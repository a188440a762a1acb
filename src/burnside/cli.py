"""Command-line interface: group ingestion, every report and its keys.

Exit codes: 0 all checks pass, 1 a check failed, 2 input error, 3 internal
error (an invariant the code relies on did not hold).  Each package error
class names its code in its exit_code attribute; an OSError is an input
error, and any other exception an internal one.  JSON reports are
deterministic for identical inputs (timing is text-only); artin_results
and brauer_results write the certificate reports from the certificates.
The character, restriction and compact-group layers are imported by the
commands that run them, so verify, marks, artin and brauer never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from itertools import islice

from . import artin as artin_mod
from . import brauer as brauer_mod
from .exact import integer
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    GroupError,
    subgroup_lattice,
    parse_group,
)
from .marks import MarksTable, NotInImage, marks_table, solve_ghost


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command, self.inputs, self.timing = command, inputs, 0.0
        self.results, self.checks = {}, []  # checks: (name, ok) pairs

    @property
    def status(self) -> str:
        return "pass" if all(ok for _, ok in self.checks) else "fail"

    def add_check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def write_json(self) -> None:
        """Write the JSON report and a newline to stdout, then flush: the
        encoder's chunks go out in batches, so no report's text is held whole.
        Payloads hold only dicts, lists, tuples, strings, ints and bools, so
        encoding cannot fail partway through a report."""
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": [{"name": n, "ok": ok} for n, ok in self.checks],
            "status": self.status,
        }
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
        for batch in iter(lambda: "".join(islice(chunks, 8192)), ""):
            sys.stdout.write(batch)
        print(flush=True)

    def to_text(self) -> str:
        return "\n".join([
            f"command: {self.command}",
            *(f"  {key}: {value}" for key, value in self.inputs.items()),
            *(f"{key}: {value}" for key, value in self.results.items()),
            *(f"[{'ok' if ok else 'FAIL'}] {name}" for name, ok in self.checks),
            f"status: {self.status} ({self.timing:.3f}s)",
        ])


def _parse_n(text: str) -> int | float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    value = integer(text)
    if value < 0:
        raise ValueError("n must be nonnegative or inf")
    return value


def _format_n(n: int | float) -> str:
    return "inf" if n == math.inf else str(n)


def _nonempty(text: str) -> str:
    if text:
        return text
    raise argparse.ArgumentTypeError("expected a nonempty value")


def _load_group(args) -> Group:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise GroupError(f"{args.file} is not UTF-8 text: {exc}") from exc
        return parse_group(text, cap=args.cap)
    if args.group:
        return parse_group(args.group, cap=args.cap)
    raise GroupError("specify --group or --file")


def cmd_marks(args) -> Report:
    group = _load_group(args)
    lattice = subgroup_lattice(group)
    table = marks_table(lattice)
    report = Report("marks", {"group": group.name or "file", "order": group.order})
    report.results["classes"] = [
        {"label": cls.label, "order": cls.order, "weyl": cls.weyl_order,
         "abelian": cls.is_abelian, "generators": cls.min_generators}
        for cls in lattice.classes
    ]
    report.results["rows"] = table.rows
    report.add_check("marks computed", True)
    return report


def _certificate_results(cert, table: MarksTable, before_checks: dict, after_checks: dict) -> dict:
    family, classes = cert.family, table.lattice.group.element_classes
    checks = [{"element_class": classes.label(c), "lhs": lhs, "rhs": rhs} for c, lhs, rhs in cert.element_checks]
    return {"group": table.lattice.group.name or "unnamed", "n": "inf" if family.n == math.inf else family.n,
            "order_n": family.order, **before_checks, "checks": checks, **after_checks, "verified": cert.verified}


def artin_results(cert: artin_mod.ArtinCertificate, table: MarksTable) -> dict:
    lattice, family, ghost = table.lattice, cert.family, cert.ghost
    coefficients = [{"class": lattice.label_of(i), "c": c} for i, c in sorted(cert.alpha.items())]
    return _certificate_results(cert, table, {"coefficients": coefficients}, {
        "ghost_checks": [
            {"class": cls.label, "value": ghost.get(i, 0), "expected": family.order if i in family.members else 0}
            for i, cls in enumerate(lattice.classes)
        ],
        "in_ideal": all(ghost.get(k, 0) == family.order for k in family.class_indices),
    })


def brauer_results(cert: brauer_mod.BrauerCertificate, table: MarksTable) -> dict:
    lattice, family = table.lattice, cert.family
    return _certificate_results(cert, table, {
        "bezout": [{"p": p, "z_p": z} for p, z in sorted(cert.bezout.items())],
        "idempotents": [  # the p'-classes' idempotents only
            {"class": lattice.label_of(a), "p": p, "ghost": [1 if core == a else 0 for core in cert.cores[p]]}
            for p in sorted(cert.bezout) for a in family.class_indices if lattice.classes[a].order % p
        ],
        "i_n_ghost": [cert.i_n_ghost.get(i, 0) for i in range(len(lattice))],
        "decomposition": [{"class": lattice.label_of(i), "k": k} for i, k in sorted(cert.decomposition.items())],
    }, {
        "family_values": [{"class": lattice.label_of(i), "value": cert.i_n_ghost.get(i, 0)}
                          for i in family.class_indices],
        "support_hyper": cert.decomposition.keys() <= cert.hyper,
    })


def cmd_certificate(args) -> Report:
    """The artin and brauer commands: one certificate at n and its results."""
    group = _load_group(args)
    table = marks_table(subgroup_lattice(group))
    report = Report(args.command, {"group": group.name or "file", "n": _format_n(args.n)})
    if args.command == "artin":
        cert = artin_mod.artin_certificate(table, args.n)
        report.results = artin_results(cert, table)
    else:
        cert = brauer_mod.brauer_certificate(table, args.n)
        report.results = brauer_results(cert, table)
    report.add_check("certificate verified", cert.verified)
    return report


def cmd_equalizer(args) -> Report:
    from .restriction import DirectoryTables, TableProvider, verify_artin_restriction, verify_brauer_restriction

    group = _load_group(args)
    lattice = subgroup_lattice(group)
    table = marks_table(lattice)
    provider = DirectoryTables(lattice, args.tables) if args.tables else TableProvider(lattice)
    report = Report("equalizer", {
        "group": group.name or "file", "n": _format_n(args.n), "mode": args.mode,
    })
    # a failed check raised before this point, so every check added here passed
    if args.mode == "artin":
        report.results["order"], report.results["rank"] = verify_artin_restriction(table, args.n, provider)
        report.add_check("psi o res = order * id", True)
        report.add_check("res o psi = order * id", True)
    else:
        rank, divisors = verify_brauer_restriction(table, args.n, provider)
        report.results["rank"], report.results["elementary_divisors"] = rank, list(divisors)
        report.add_check("restriction is a lattice isomorphism", True)
    return report


def cmd_lie(args) -> Report:
    from .lie import load_phi_data, order_n_lie, power

    data = power(load_phi_data(args.file), args.power)
    value = order_n_lie(data, args.n)
    report = Report("lie", {"file": args.file, "power": args.power, "n": _format_n(args.n)})
    report.results["name"] = data.name
    report.results["order"] = value
    report.add_check("order computed", True)
    return report


def cmd_verify(args) -> Report:
    group = _load_group(args)
    lattice = subgroup_lattice(group)
    table = marks_table(lattice)
    report = Report("verify", {"group": group.name or "file", "order": group.order})

    rows, classes = table.rows, lattice.classes
    report.add_check("marks triangular", all(k <= h for h, row in enumerate(rows) for k, _ in row))
    report.add_check("diagonal equals Weyl orders", all(
        row[-1:] == ((h, classes[h].weyl_order),) for h, row in enumerate(rows)
    ))
    report.add_check("Weyl order divides row", all(
        m % classes[h].weyl_order == 0 for h, row in enumerate(rows) for _, m in row
    ))

    tom_dieck = True
    for idx in range(table.size):
        try:
            solve_ghost({idx: group.order}, table)
        except NotInImage:
            tom_dieck = False
    report.add_check("order * indicator solves integrally", tom_dieck)

    certs = {n: artin_mod.artin_certificate(table, n) for n in (1, 2, math.inf)}
    for n, cert in certs.items():
        report.add_check(f"Artin certificate n={_format_n(n)}", cert.verified)
    cert0 = artin_mod.artin_certificate(table, 0)
    report.add_check("Artin ghost certificate n=0", cert0.verified)

    bcert = brauer_mod.brauer_certificate(table, 1)
    report.add_check("Brauer certificate n=1", bcert.verified)

    report.results["subgroup_classes"] = table.size
    report.results["order_n"] = certs[math.inf].family.order
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="burnside",
        description="Exact Burnside-ring computations and induction certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--group", type=_nonempty, help="builtin fixture name or group definition text")
        source.add_argument("--file", type=_nonempty, help="group definition file")
        p.add_argument("--cap", type=integer, default=DEFAULT_ORDER_CAP,
                       help="bound on the group order and on every point (default %(default)s)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if with_n:
            p.add_argument("--n", type=_parse_n, default=1, help="generator bound (0, 1, 2, ..., inf)")

    p_marks = sub.add_parser("marks", help="subgroup lattice and table of marks")
    common(p_marks, with_n=False)
    p_marks.set_defaults(func=cmd_marks)

    p_artin = sub.add_parser("artin", help="Artin induction certificate")
    common(p_artin)
    p_artin.set_defaults(func=cmd_certificate)

    p_brauer = sub.add_parser("brauer", help="Brauer induction certificate")
    common(p_brauer)
    p_brauer.set_defaults(func=cmd_certificate)

    p_eq = sub.add_parser("equalizer", help="restriction-theorem verification")
    common(p_eq)
    p_eq.add_argument("--mode", choices=["artin", "brauer"], default="artin")
    p_eq.add_argument("--tables", type=_nonempty, help="directory of character table files")
    p_eq.set_defaults(func=cmd_equalizer)

    p_lie = sub.add_parser("lie", help="orders from compact-group class data")
    p_lie.add_argument("--file", type=_nonempty, required=True, help="class data JSON file")
    p_lie.add_argument("--power", type=integer, default=1, help="cartesian power of the data")
    p_lie.add_argument("--n", type=_parse_n, default=1)
    p_lie.add_argument("--json", action="store_true")
    p_lie.set_defaults(func=cmd_lie)

    p_verify = sub.add_parser("verify", help="full invariant suite for one group")
    common(p_verify, with_n=False)
    p_verify.set_defaults(func=cmd_verify)

    return parser


# errors the standard library raises while reading input; the package's
# own errors carry their exit code in exit_code, and any other error is a bug
INPUT_ERRORS = (OSError,)
KINDS = {1: "check failed", 2: "error", 3: "internal error"}


def _emit_error(kind: str, exc: Exception, as_json: bool) -> None:
    message = str(exc) or type(exc).__name__  # a bare MemoryError() has no message
    message = message if len(message) <= 500 else f"{message[:500]}... ({len(message)} characters)"
    if as_json:
        payload = {"error": {"kind": kind, "type": type(exc).__name__, "message": message}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"{kind}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)
    start = time.monotonic()
    try:
        report: Report = args.func(args)
        report.timing = time.monotonic() - start
        if as_json:
            report.write_json()
        else:
            print(report.to_text(), flush=True)
    except Exception as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader is gone: keep shutdown's flush silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2 if isinstance(exc, INPUT_ERRORS) else getattr(exc, "exit_code", 3)
        _emit_error(KINDS[code], exc, as_json)
        return code
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
