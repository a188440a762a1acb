"""Workload op lists, built from data/workloads.json and the workload seed.

The seed draws the random-small groups, which every pass reuses, and
relabels the points of the group of every ladder op, afresh for each op and
each pass: relabeling moves single op times by about 10%, and fresh draws
average that out within a run.  Ops that load the shipped .tbl files keep
the fixture points, because those files name class representatives by
their cycles.  Every op carries the oracle values its JSON report is
checked against.  An op may carry its own deadline: C2^4 brauer, a known
timeout that runs for more than 300 s, gets 2 s, so that equalizer-ladder
fits two passes in a 30 s run and its op latencies are not one sample each.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Op:
    key: str
    argv: list[str]
    expect: dict
    known_failure: str | None = None
    deadline_s: float | None = None  # overrides the workload's deadline


@dataclass
class Workload:
    name: str
    passes: list[list[Op]]  # the op list of each pass
    deadline_s: float
    digests: dict = field(default_factory=dict)


def load_data() -> dict:
    return json.loads((DATA / "workloads.json").read_text(encoding="utf-8"))


def _write_group(path: Path, name: str, generators: list[str]) -> None:
    path.write_text(f"name: {name}\n" + "\n".join(generators) + "\n", encoding="utf-8")


def _relabel(generators: list[str], degree: int, rng: random.Random) -> list[str]:
    points = list(range(degree))
    rng.shuffle(points)
    return [re.sub(r"\d+", lambda m: str(points[int(m.group())]), g) for g in generators]


def _file_name(name: str) -> str:
    return re.sub(r"\W", "_", name) + ".txt"


def ladder_ops(spec: dict, groups: dict, rng: random.Random, inputs: Path, tables: Path) -> list[Op]:
    ops = []
    for i, entry in enumerate(spec["ops"]):
        name, loaded = entry["group"], entry.get("tables", False)
        group = groups[name]
        gens = group["generators"] if loaded else _relabel(group["generators"], group["degree"], rng)
        path = inputs / f"{i:02d}-{_file_name(name)}"
        _write_group(path, name, gens)
        argv = [entry["command"], "--file", str(path), "--json"]
        key = f"{entry['command']} {name}"
        if entry["command"] == "equalizer":
            argv += ["--mode", entry["mode"]]
            key += f" {entry['mode']} {'loaded' if loaded else 'computed'}"
            if loaded:
                argv += ["--tables", str(tables)]
        degree = group["degree"]
        order = len(oracle.closure([oracle.parse_cycles(g, degree) for g in group["generators"]], cap=10**6))
        expect = {"order": order, "subgroup_classes": group["subgroup_classes"],
                  "conjugacy_classes": group["conjugacy_classes"]}
        ops.append(Op(key, argv, expect, entry.get("known_failure"), entry.get("deadline_s")))
    return ops


def _random_ops(spec: dict, rng: random.Random, inputs: Path) -> list[Op]:
    """verify ops on groups generated by two random permutations, filling the
    profile's quota of (order, subgroup classes) so every seed has the same mix."""
    quota = {(order, classes): count for order, classes, count in spec["profile"]}
    cap = max(order for order, _ in quota)
    drawn = []
    while any(quota.values()):
        gens = [tuple(rng.sample(range(spec["degree"]), spec["degree"])) for _ in range(2)]
        elements = oracle.closure(gens, cap=cap)
        if elements is None or not any(n and o == len(elements) for (o, _), n in quota.items()):
            continue
        kind = (len(elements), oracle.subgroup_class_count(gens))
        if quota.get(kind):
            quota[kind] -= 1
            drawn.append((kind, gens))
    ops = []
    for i, ((order, classes), gens) in enumerate(drawn):
        name = f"R{i:02d}"
        path = inputs / _file_name(name)
        _write_group(path, name, [oracle.to_cycles(g) for g in gens])
        ops.append(Op(f"verify {name}", ["verify", "--file", str(path), "--json"],
                      {"order": order, "subgroup_classes": classes}))
    return ops


def build(name: str, seed: int, passes: int, inputs: Path, tables: Path, data: dict | None = None) -> Workload:
    data = data or load_data()
    spec = data["workloads"][name]
    if name == "random-small":
        ops = _random_ops(spec, random.Random(f"{name}/{seed}"), inputs)
        return Workload(name, [ops] * passes, spec["deadline_s"])
    op_lists = []
    for k in range(passes):
        directory = inputs / f"pass{k}"
        directory.mkdir()
        op_lists.append(ladder_ops(spec, data["groups"], random.Random(f"{name}/{seed}/{k}"), directory, tables))
    return Workload(name, op_lists, spec["deadline_s"])


def check_report(op: Op, report: dict) -> str | None:
    """Why the report contradicts the op's oracles, or None if it agrees."""
    failed = [c["name"] for c in report.get("checks", []) if not c["ok"]]
    if report.get("status") != "pass" or failed:
        return f"status {report.get('status')}, failed checks {failed}"
    results, expect = report["results"], op.expect
    if report["command"] == "verify":
        if report["inputs"]["order"] != expect["order"]:
            return f"order {report['inputs']['order']} != {expect['order']}"
        if results["subgroup_classes"] != expect["subgroup_classes"]:
            return f"subgroup classes {results['subgroup_classes']} != {expect['subgroup_classes']}"
        return None
    if results["rank"] != expect["conjugacy_classes"]:
        return f"rank {results['rank']} != {expect['conjugacy_classes']} conjugacy classes"
    if "elementary_divisors" in results and results["elementary_divisors"] != [1] * results["rank"]:
        return f"elementary divisors {results['elementary_divisors']}"
    return None
