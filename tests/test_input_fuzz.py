"""Fuzzed input grammars: group texts and character table files.

Each property runs `cli.main` on a drawn input and asks only that the
command ends as the exit codes promise, 0 (pass), 1 (a check failed) or 2
(an input error), never 3, and that its error message stays short.  The
`lie` class-data JSON grammar is not fuzzed here.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from burnside.cli import main

TABLES = Path(__file__).parent.parent / "src" / "burnside" / "data" / "tables" / "S3"
S3_FILES = {path.name: path.read_text(encoding="utf-8") for path in sorted(TABLES.glob("*.tbl"))}

# tokens that a point, an integer or a word may be: small and huge integers,
# signs, non-ASCII decimal digits, and short free text
TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(-3, 10**40).map(str),
    st.integers(1, 5000).map(lambda k: "9" * k),
    st.sampled_from(["", "-", "+", "e", "()", "\u0661", "\uff11", "\u0662\u0663", "1_0", "0x1", " ", "\t", "z^1"]),
    st.text(max_size=6),
)


@st.composite
def cycle_lines(draw):
    """Cycle notation with points drawn from TOKENS, and perhaps an
    unbalanced or doubled bracket."""
    cycles = ["(" + " ".join(draw(st.lists(TOKENS, max_size=4))) + ")" for _ in range(draw(st.integers(0, 3)))]
    line = "".join(cycles)
    cut = draw(st.integers(0, len(line)))
    return draw(st.sampled_from([line, line[:cut], line[cut:], line + ")", "(" + line, line.replace(")", "", 1)]))


GROUP_LINES = st.one_of(
    cycle_lines(),
    TOKENS.map(lambda t: f"name: {t}"),
    TOKENS.map(lambda t: f"# {t}"),
    st.sampled_from(["", "e", "()", "S3", "C6", "name:", "#"]),
)


def run_main(argv: list[str]) -> tuple[int, str]:
    """main's exit code, a usage error's included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(GROUP_LINES, max_size=5), command=st.sampled_from([
    ["marks"], ["verify"], ["artin", "--n", "1"], ["brauer", "--n", "2"], ["artin", "--n", "inf"],
]))
def test_group_texts_end_in_an_exit_code_below_3(lines, command):
    text = "\n".join(lines)
    code, err = run_main([*command, f"--group={text}", "--cap", "60", "--json"])
    assert code in (0, 1, 2), err
    assert len(err) < 1000


@st.composite
def perturbed_s3_tables(draw):
    """S3's table files, one of them changed: a token replaced, a line
    dropped, doubled or added, or the text cut short; or a file missing."""
    files = dict(S3_FILES)
    name = draw(st.sampled_from(sorted(files)))
    lines = files[name].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["token", "drop", "double", "add", "cut", "missing"]))
    if kind == "token":
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
        lines[i] = " ".join(tokens)
    elif kind == "drop":
        del lines[i]
    elif kind == "double":
        lines.insert(i, lines[i])
    elif kind == "add":
        lines.insert(i, draw(st.sampled_from(["group:", "conductor:", "class:", "row:", ""])) + " " + draw(TOKENS))
    elif kind == "missing":
        del files[name]
        return files
    text = "\n".join(lines) + "\n"
    files[name] = text[:draw(st.integers(0, len(text)))] if kind == "cut" else text
    return files


@settings(max_examples=200, deadline=None)
@given(files=perturbed_s3_tables())
def test_perturbed_table_files_end_in_an_exit_code_below_3(files):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "S3").mkdir()
        for name, text in files.items():
            (Path(tmp) / "S3" / name).write_text(text, encoding="utf-8")
        for mode in ("artin", "brauer"):
            code, err = run_main(["equalizer", "--group", "S3", "--tables", tmp, "--mode", mode, "--json"])
            assert code in (0, 1, 2), err
            assert len(err) < 1000
