"""Smoke test of the benchmark on a tiny op list (a few seconds).

    python3 perfbench/smoke.py

Checks that a run prints every metric named in BENCHMARK.json with its
unit, that a corrupted digest or oracle, a missed deadline and an uncaught
error each fail their op without stopping the run, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = {"ops": [
    {"command": "verify", "group": "S3"},
    {"command": "equalizer", "group": "S3", "mode": "artin", "tables": True},
    {"command": "equalizer", "group": "S3", "mode": "brauer"},
]}


def tiny_workload(inputs: Path) -> workloads.Workload:
    groups = workloads.load_data()["groups"]
    ops = workloads.ladder_ops(TINY, groups, random.Random(0), inputs, run.TABLES)
    return workloads.Workload("tiny", [ops], deadline_s=30)


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def check_metrics(result: dict, declared: list[dict]) -> None:
    printed = json.loads(json.dumps(result))["metrics"]
    assert set(printed) == {m["name"] for m in declared}, set(printed) ^ {m["name"] for m in declared}
    for m in declared:
        assert printed[m["name"]]["unit"] == m["unit"], m
        assert isinstance(printed[m["name"]]["value"], (int, float)), m


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from burnside import cli
    from burnside.marks import InternalInvariantViolation

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workload = tiny_workload(Path(tmp))
        result = quiet(run.measure, cli, workload, False)
        assert result["correct"] and result["failed"] == 0, result
        check_metrics(result, bench["end_to_end"])
        result = quiet(run.measure, cli, workload, True)
        assert result["correct"] and result["failed"] == 0, result
        check_metrics(result, bench["per_layer"])

        ops = workload.passes[0]
        workload.digests = {ops[0].key: "0" * 64}
        ops[1].expect["conjugacy_classes"] += 1
        outcomes = quiet(run.run_pass, cli, workload, ops)[1]
        assert [o.status for o in outcomes] == ["failed", "failed", "ok"], outcomes
        assert all(o.detail.startswith("wrong output") for o in outcomes[:2]), outcomes
        result = quiet(run.measure, cli, workload, False)
        assert not result["correct"] and result["failed"] == 2, result

        op = ops[2]
        late = run.run_op(cli.main, op, 1e-4, None)
        assert (late.status, late.detail) == ("timeout", "timeout"), late

        def broken(argv):
            raise InternalInvariantViolation("planted")
        crash = run.run_op(broken, op, 30, None)
        assert crash.status == "failed" and "InternalInvariantViolation" in crash.detail, crash
        op.known_failure = crash.detail
        assert run.run_op(broken, op, 30, None).known

        bare = Path(tmp) / "bare"
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice-ladder",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0 and not done.stdout.strip(), done
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
