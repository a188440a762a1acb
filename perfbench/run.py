"""Benchmark for burnside: timed `burnside.cli.main([..., "--json"])` calls.

    python3 perfbench/run.py --workload lattice-ladder --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Ops run one at a time in this process (a closed loop with one
client), each under a per-op deadline, and every report is checked against
independent oracles and, at the default seed, a SHA-256 digest of its
stdout.  The run repeats the workload's op list for --seconds divided by
the workload's nominal pass time (pass_s in data/workloads.json), rounded
to the nearest whole pass.

--trace 0 prints the end-to-end metrics: wall_s (median pass time),
op_p50_s, op_tail_s (the highest percentile with at least ten op samples
beyond it), setup_s (median fresh-interpreter `import burnside.cli`,
timed between passes so that it samples the whole run) and peak_rss_mb.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics derived from spans around the package's module boundaries (see
spans.py); the spans are written to perfbench/out/.
The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLES = SRC / "burnside" / "data" / "tables"
OUT = HERE / "out"
DEFAULT_SEED = 0
SETUP_SAMPLES = 4  # imports timed before each pass and after the last
SETUP_CODE = "import time; t = time.perf_counter(); import burnside.cli; print(time.perf_counter() - t)"


class OpDeadline(BaseException):
    """Raised by the per-op alarm.  A BaseException, so that cli.main's
    handlers for input errors (ValueError, OSError, ...) cannot relabel it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


@dataclass
class Outcome:
    key: str
    status: str  # ok, failed or timeout
    seconds: float
    detail: str = ""
    known: bool = False  # the op ended as its recorded known failure
    digest: str = ""  # SHA-256 of the op's stdout


def run_op(main, op: workloads.Op, deadline_s: float, digest: str | None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(op.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        status, detail = "timeout", "timeout"
    except SystemExit as exc:
        status, detail = "failed", f"exit {exc.code}: SystemExit"
    except Exception as exc:  # an uncaught error fails its op, not the run
        status, detail = "failed", f"uncaught {type(exc).__name__}: {exc}"
    else:
        status, detail = _judge(op, code, out.getvalue(), err.getvalue(), digest)
    seconds = time.perf_counter() - start
    known = status != "ok" and detail == op.known_failure
    return Outcome(op.key, status, seconds, detail, known, _sha256(out.getvalue()))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _judge(op: workloads.Op, code: int, stdout: str, stderr: str, digest: str | None) -> tuple[str, str]:
    if code != 0:
        try:
            kind = json.loads(stderr)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            kind = stderr.strip()[:200]
        return "failed", f"exit {code}: {kind}"
    try:
        problem = workloads.check_report(op, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable report: {type(exc).__name__}: {exc}"
    if problem is None and digest is not None:
        actual = _sha256(stdout)
        if actual != digest:
            problem = f"stdout digest {actual[:12]} != {digest[:12]}"
    return ("failed", f"wrong output: {problem}") if problem else ("ok", "")


def run_pass(cli, workload: workloads.Workload, ops: list[workloads.Op],
             tracer: spans.Tracer | None = None) -> tuple[float, list[Outcome]]:
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.key
        deadline_s = op.deadline_s or workload.deadline_s
        outcomes.append(run_op(cli.main, op, deadline_s, workload.digests.get(op.key)))
    return time.perf_counter() - start, outcomes


def import_times(count: int) -> list[float]:
    """Times of `import burnside.cli`, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-s", "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def quantile(samples: list[float], p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density (Harrell and
    Davis, Biometrika 69, 1982).  Unlike a single order statistic it does
    not jump when ops of different cost swap places around the quantile."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) if 0 < x < 1 else 0.0

    weights = []
    for i in range(n):  # Simpson's rule over [i/n, (i+1)/n]
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(density(lo) + inner + density(lo + steps * h))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, and its estimate."""
    pct = int(100 * (1 - 10 / len(samples))) if len(samples) >= 20 else 50
    return pct, quantile(samples, pct / 100)


def measure(cli, workload: workloads.Workload, trace: bool) -> dict:
    """Run the workload's passes (trace: its first pass untraced, then traced)."""
    outcomes: list[Outcome] = []
    if trace:
        ops = workload.passes[0]
        untraced, first = run_pass(cli, workload, ops)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, second = run_pass(cli, workload, ops, tracer)
        finally:
            tracer.uninstall()
        outcomes = first + second
        metrics = tracer.metrics({o.key for o in second if o.status == "timeout"})
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        tracer.write_jsonl(OUT / f"spans-{workload.name}.jsonl")
        walls = [untraced]
    else:
        import_times(1)  # warm-up: the first import may compile bytecode
        setup, walls = [], []
        for ops in workload.passes:
            setup += import_times(SETUP_SAMPLES)
            wall, done = run_pass(cli, workload, ops)
            walls.append(wall)
            outcomes += done
        setup += import_times(SETUP_SAMPLES)
        latencies = [o.seconds for o in outcomes]
        pct, tail_s = tail(latencies)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (quantile(latencies, 0.5), "s"),
            "op_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failed = [o for o in outcomes if o.status != "ok"]
    if trace:
        metrics["bench.failed_ratio"] = (len(failed) / len(outcomes), "ratio")
    for o in outcomes[-len(workload.passes[-1]):]:
        print(f"{o.status:8}{o.seconds:9.3f}s  {o.key}  {o.detail}{'  (known)' if o.known else ''}")
    summary = f"passes {len(walls)}, pass walls {[round(w, 3) for w in walls]}, ops {len(outcomes)}, " \
              f"failed {len(failed)}"
    if not trace:
        summary += f", op_tail_s is p{pct} of {len(outcomes)} samples"
    print(summary)
    return {
        "correct": all(o.status == "ok" or o.known for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def load_digests(name: str) -> dict:
    path = workloads.DATA / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")).get(name, {}) if path.exists() else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "burnside" / "cli.py").is_file():
        print(f"no burnside sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    data = workloads.load_data()
    if args.workload not in data["workloads"]:
        print(f"unknown workload {args.workload!r}; choose from {sorted(data['workloads'])}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from burnside import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported burnside from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    passes = 1 if args.trace else max(1, int(args.seconds / data["workloads"][args.workload]["pass_s"] + 0.5))
    with tempfile.TemporaryDirectory(dir=OUT) as inputs:
        workload = workloads.build(args.workload, args.seed, passes, Path(inputs), TABLES, data)
        if args.seed == DEFAULT_SEED:
            workload.digests = load_digests(args.workload)
        result = measure(cli, workload, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
