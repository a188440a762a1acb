"""Every certificate report stays byte-identical.

tests/data/report_digests.json holds, for the builtin groups (Q8 included)
and the benchmark groups (perfbench/data/workloads.json), the exit code and
the SHA-256 of the `--json` stdout of `marks`, `verify`, `artin` and
`brauer` at n = 0, 1, 2 and inf, and `equalizer --mode artin` and
`--mode brauer` at the same n, on computed tables and, for the 11 groups
with shipped tables, on those read with `--tables`.  A run that stops on
an error writes no stdout, so its digest pins the exit code only.
Regenerate it, only when a change of the reports is intended, with

    PYTHONPATH=src python tests/test_report_digests.py --write
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from burnside.cli import main  # noqa: E402
from burnside.groups import BUILTIN_GROUPS  # noqa: E402

from group_fixtures import BENCHMARK_GROUPS  # noqa: E402

DIGESTS = HERE / "data" / "report_digests.json"
NS = ("0", "1", "2", "inf")
EQUALIZER = [["equalizer", "--mode", mode, "--n", n] for mode in ("artin", "brauer") for n in NS]
COMMANDS = [["marks"], ["verify"]] + [
    [command, "--n", n] for command in ("artin", "brauer") for n in NS
] + EQUALIZER
# the builtin groups with shipped character tables, one directory each
TABLES = HERE.parent / "src" / "burnside" / "data" / "tables"
TABLE_GROUPS = sorted(path.name for path in TABLES.iterdir() if path.is_dir())


def _groups():
    for name in sorted(BENCHMARK_GROUPS):
        yield f"benchmark/{name}", "\n".join(BENCHMARK_GROUPS[name]["generators"])
    for name in sorted(BUILTIN_GROUPS):
        yield f"builtin/{name}", name


def _digest(argv: list[str]) -> str:
    """"<exit code> <SHA-256 of stdout>" for one `--json` CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--json"])
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def _runs():
    for prefix, spec in _groups():
        for command in COMMANDS:
            yield f"{prefix}/{' '.join(command)}", [*command, "--group", spec]
    for name in TABLE_GROUPS:
        for command in EQUALIZER:
            yield f"tables/{name}/{' '.join(command)}", [*command, "--tables", str(TABLES), "--group", name]


def report_digests() -> dict[str, str]:
    """"<source>/<group>/<command>" -> exit code and digest of its report."""
    return {key: _digest(argv) for key, argv in _runs()}


@functools.cache
def _expected() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_covers_every_run():
    assert sorted(_expected()) == sorted(key for key, _ in _runs())


PREFIXES = [prefix for prefix, _ in _groups()] + [f"tables/{name}" for name in TABLE_GROUPS]


@pytest.mark.parametrize("prefix", PREFIXES, ids=PREFIXES)
def test_every_report_is_unchanged(prefix):
    expected = _expected()
    changed = [
        key for key, argv in _runs()
        if key.startswith(prefix + "/") and expected.get(key) != _digest(argv)
    ]
    assert not changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(report_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
