"""Declarative abelian-class data for compact Lie groups.

Only finitely many conjugacy classes of abelian subgroups have finite Weyl
group, so a compact group's order data fits in a small JSON file: one record
per class with its Weyl-group order, torus rank, component-group invariant
factors, and the classes receiving closures of its subgroups.  Orders are
computed from this data alone; no Lie-theoretic computation happens here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .exact import factorization


class LieDataError(Exception):
    exit_code = 2  # an input error


class NoQualifyingClass(LieDataError):
    """No class satisfies the generator bound for the requested order."""


MAX_POWER_CLASSES = 10_000  # the classes power() may build over all its products


class PhiClass:
    def __init__(self, label: str, weyl_order: int, torus_rank: int,
                 component_invariants: tuple[int, ...], omega_closure: tuple[str, ...],
                 maximal_torus: bool = False):
        self.label, self.weyl_order, self.torus_rank = label, weyl_order, torus_rank
        self.component_invariants, self.omega_closure = component_invariants, omega_closure
        self.maximal_torus = maximal_torus


class PhiData:
    def __init__(self, name: str, classes: tuple[PhiClass, ...]):
        self.name, self.classes = name, classes

    def validate(self) -> None:
        labels = {cls.label for cls in self.classes}
        if len(labels) != len(self.classes):
            raise LieDataError("duplicate class labels")
        for cls in self.classes:
            if cls.weyl_order < 1:
                raise LieDataError(f"{cls.label}: weyl_order must be positive")
            if cls.torus_rank < 0:
                raise LieDataError(f"{cls.label}: negative torus rank")
            if any(f < 1 for f in cls.component_invariants):
                raise LieDataError(f"{cls.label}: invariant factors must be positive")
            for target in cls.omega_closure:
                if target not in labels:
                    raise LieDataError(f"{cls.label}: unknown omega target {target!r}")
            if cls.label not in cls.omega_closure:
                raise LieDataError(f"{cls.label}: omega_closure must contain the class itself")
        # transitivity of the closure relation within the file
        by_label = {cls.label: cls for cls in self.classes}
        reached = {cls.label: set(cls.omega_closure) for cls in self.classes}
        for cls in self.classes:
            for target in cls.omega_closure:
                if not reached[target] <= reached[cls.label]:
                    beyond = next(x for x in by_label[target].omega_closure if x not in reached[cls.label])
                    raise LieDataError(f"{cls.label}: omega_closure missing {beyond!r} (not transitively closed)")


def generator_count(cls: PhiClass) -> int:
    """Topological generators of the class: the component group's largest
    p-rank, with a torus folding into one generator when components are trivial."""
    max_rank = 0
    for p in {p for v in cls.component_invariants for p in factorization(v)}:
        rank = sum(1 for f in cls.component_invariants if f % p == 0)
        max_rank = max(max_rank, rank)
    if max_rank == 0:
        return 1 if cls.torus_rank >= 1 else 0
    return max_rank


def order_n_lie(data: PhiData, n: int | float) -> int:
    """lcm of Weyl orders over classes within the generator bound.

    n = 0 selects the explicitly flagged maximal-torus class.
    """
    if n == 0:
        selected = [cls for cls in data.classes if cls.maximal_torus]
    else:
        selected = [cls for cls in data.classes if generator_count(cls) <= n]
    if not selected:
        raise NoQualifyingClass(f"no class qualifies for n = {n}")
    return math.lcm(*[cls.weyl_order for cls in selected])


def product(a: PhiData, b: PhiData) -> PhiData:
    """Componentwise product data: Weyl orders multiply, ranks add, invariants concatenate."""
    classes = []
    for ca in a.classes:
        for cb in b.classes:
            classes.append(PhiClass(
                label=f"({ca.label},{cb.label})",
                weyl_order=ca.weyl_order * cb.weyl_order,
                torus_rank=ca.torus_rank + cb.torus_rank,
                component_invariants=ca.component_invariants + cb.component_invariants,
                omega_closure=tuple(
                    f"({xa},{xb})" for xa in ca.omega_closure for xb in cb.omega_closure
                ),
                maximal_torus=ca.maximal_torus and cb.maximal_torus,
            ))
    return PhiData(f"{a.name}x{b.name}", tuple(classes))


def power(data: PhiData, exponent: int) -> PhiData:
    """The exponent-fold product of data with itself, refused up front if its
    products would build more than MAX_POWER_CLASSES classes in all (each
    product counts as at least one, so the count stops within that many steps)."""
    if exponent < 1:
        raise LieDataError("power must be at least 1")
    size = built = len(data.classes)
    for _ in range(exponent - 1):
        size *= len(data.classes)
        built += size or 1
        if built > MAX_POWER_CLASSES:
            raise LieDataError(f"power {exponent} of {len(data.classes)}-class data would build more "
                               f"than {MAX_POWER_CLASSES} classes")
    result = data
    for _ in range(exponent - 1):
        result = product(result, data)
    return result


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and 2.5 are not integers


def _is_str(value) -> bool:
    return isinstance(value, str)


# docs/phidata.schema.json field by field: key -> (required, test, what the test asks)
_FILE_FIELDS = {"name": (True, _is_str, "a string"),
                "classes": (True, lambda v: isinstance(v, list) and v != [], "a non-empty list")}
_CLASS_FIELDS = {
    "label": (True, _is_str, "a string"),
    "weyl_order": (True, _is_int, "an integer"),
    "torus_rank": (True, _is_int, "an integer"),
    "component_invariants": (False, lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "omega_closure": (False, lambda v: isinstance(v, list) and all(map(_is_str, v)), "a list of strings"),
    "maximal_torus": (False, lambda v: isinstance(v, bool), "a boolean"),
}


def _check_fields(record, fields: dict, where: str) -> None:
    """Raise LieDataError naming where and the key unless record is an object
    with every required key, no other, and values that pass their tests."""
    if not isinstance(record, dict):
        raise LieDataError(f"{where}: not an object")
    for key in sorted(record.keys() - fields.keys()):
        raise LieDataError(f"{where}: unknown field {key!r}")
    for key, (required, test, kind) in fields.items():
        if key in record and not test(record[key]) or required and key not in record:
            raise LieDataError(f"{where}: field {key!r} must be {kind}")


def load_phi_data(path: str | Path) -> PhiData:
    """Read a class-data file; a field against the schema raises LieDataError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
        raise LieDataError(f"malformed data file: {exc}") from exc
    _check_fields(raw, _FILE_FIELDS, "data file")
    classes = []
    for i, cls in enumerate(raw["classes"]):
        label = cls.get("label") if isinstance(cls, dict) else None
        _check_fields(cls, _CLASS_FIELDS, f"class {label!r}" if isinstance(label, str) else f"class {i}")
        classes.append(PhiClass(label, cls["weyl_order"], cls["torus_rank"],
                                tuple(cls.get("component_invariants", ())),
                                tuple(cls.get("omega_closure", (label,))),
                                cls.get("maximal_torus", False)))
    data = PhiData(raw["name"], tuple(classes))
    data.validate()
    return data

