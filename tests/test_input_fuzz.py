"""Fuzzed input grammars: group texts, character table files and `lie`
class-data files.

Each property runs `cli.main` on a drawn input and asks only that the
command ends as the exit codes promise, 0 (pass), 1 (a check failed) or 2
(an input error), never 3, and that its error message stays short.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from burnside.cli import main

DATA = Path(__file__).parent.parent / "src" / "burnside" / "data"
TABLES = DATA / "tables" / "S3"
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


SO3_CLASSES = json.loads((DATA / "so3.json").read_text(encoding="utf-8"))["classes"]

# small, negative, huge and prime integers; 10^1500 and 7^1800 pass
# int()'s 4,300-digit limit once raised to --power 3
INTEGERS = st.one_of(
    st.integers(0, 12),
    st.integers(-10**40, 10**40),
    st.sampled_from([10**18 + 3, 2**61 - 1, 2**127 - 1, 10**1500, 7**1800]),
)
LABELS = st.sampled_from(["S1", "V4", "x", "", "\u0661", "\uff12"])
# JSON texts of each field's own type
TYPED_VALUES = {
    "name": LABELS.map(json.dumps),
    "label": LABELS.map(json.dumps),
    "weyl_order": INTEGERS.map(str),
    "torus_rank": INTEGERS.map(str),
    "component_invariants": st.lists(INTEGERS, max_size=4).map(json.dumps),
    "omega_closure": st.lists(LABELS, max_size=3).map(json.dumps),
    "maximal_torus": st.booleans().map(json.dumps),
}
# JSON texts of any type: the above, an integer past int()'s digit limit,
# floats, null, an object, and nesting past the recursion limit
JSON_VALUES = st.one_of(
    *TYPED_VALUES.values(),
    st.sampled_from(["9" * 5000, "2.0", "-0.5", "1e400", "NaN", "Infinity", "null", "{}", "[]"]),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
)


@st.composite
def json_object(draw, pairs, keep):
    """An object text from (key, value text) pairs: each value kept, in
    keep cases of keep + 4, or replaced, most often by one of its field's
    own type; and then perhaps a key dropped or repeated, or an unknown key
    added."""
    pairs = [(key, draw(st.sampled_from([st.just(value)] * keep + [TYPED_VALUES.get(key, JSON_VALUES)] * 3
                                        + [JSON_VALUES]).flatmap(lambda values: values)))
             for key, value in pairs]
    for _ in range(draw(st.sampled_from([0] * keep + [1, 2]))):
        kind = draw(st.sampled_from(["drop", "repeat", "unknown"]))
        i = draw(st.integers(0, max(len(pairs) - 1, 0)))
        if kind == "unknown" or not pairs:
            pairs.insert(i, (draw(st.sampled_from(["extra", "Label", "", "weyl"])), draw(JSON_VALUES)))
        elif kind == "drop":
            del pairs[i]
        else:
            pairs.insert(i, (pairs[i][0], draw(st.one_of(TYPED_VALUES.get(pairs[i][0], JSON_VALUES), JSON_VALUES))))
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


@st.composite
def class_data_files(draw):
    """so3.json's classes, each perhaps edited, in a file object that is
    perhaps edited, and perhaps cut short."""
    records = [draw(json_object([(key, json.dumps(value)) for key, value in cls.items()], keep=12))
               for cls in draw(st.permutations(SO3_CLASSES))[:draw(st.integers(1, 2))]]
    text = draw(json_object([("name", json.dumps("SO(3)")), ("classes", f"[{', '.join(records)}]")], keep=20))
    return draw(st.sampled_from([text] * 7 + [text[:draw(st.integers(0, len(text)))]]))


@settings(max_examples=300, deadline=None)
@given(text=class_data_files(), n=st.sampled_from(["0", "1", "2", "inf"]), power=st.sampled_from(["1", "2", "3"]))
def test_class_data_files_end_in_an_exit_code_below_3(text, n, power):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.json"
        path.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        code, err = run_main(["lie", "--file", str(path), "--n", n, "--power", power, "--json"])
        assert time.perf_counter() - started < 0.5
    assert code in (0, 1, 2), err
    assert len(err) < 1000
