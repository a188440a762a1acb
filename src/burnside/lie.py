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
from dataclasses import dataclass
from pathlib import Path

from .exact import prime_factors


class LieDataError(Exception):
    exit_code = 2  # an input error


class NoQualifyingClass(LieDataError):
    """No class satisfies the generator bound for the requested order."""


@dataclass(frozen=True)
class PhiClass:
    label: str
    weyl_order: int
    torus_rank: int
    component_invariants: tuple[int, ...]
    omega_closure: tuple[str, ...]
    maximal_torus: bool = False


@dataclass(frozen=True)
class PhiData:
    name: str
    classes: tuple[PhiClass, ...]

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
            nontrivial = cls.torus_rank > 0 or any(f > 1 for f in cls.component_invariants)
            if nontrivial and generator_count(cls) < 1:
                raise LieDataError(f"{cls.label}: nontrivial class with zero generators")
        # transitivity of the closure relation within the file
        by_label = {cls.label: cls for cls in self.classes}
        for cls in self.classes:
            for target in cls.omega_closure:
                for beyond in by_label[target].omega_closure:
                    if beyond not in cls.omega_closure:
                        raise LieDataError(
                            f"{cls.label}: omega_closure missing {beyond!r} (not transitively closed)"
                        )


def generator_count(cls: PhiClass) -> int:
    """Topological generators of the class: the component group's largest
    p-rank, with a torus folding into one generator when components are trivial."""
    max_rank = 0
    for p in {p for v in cls.component_invariants for p in prime_factors(v)}:
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
    data = PhiData(f"{a.name}x{b.name}", tuple(classes))
    data.validate()
    return data


def power(data: PhiData, exponent: int) -> PhiData:
    if exponent < 1:
        raise LieDataError("power must be at least 1")
    result = data
    for _ in range(exponent - 1):
        result = product(result, data)
    return result


def load_phi_data(path: str | Path) -> PhiData:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)  # a JSONDecodeError or UnicodeDecodeError is a ValueError
        classes = tuple(
            PhiClass(
                label=cls["label"],
                weyl_order=int(cls["weyl_order"]),
                torus_rank=int(cls["torus_rank"]),
                component_invariants=tuple(int(f) for f in cls.get("component_invariants", [])),
                omega_closure=tuple(cls.get("omega_closure", [cls["label"]])),
                maximal_torus=bool(cls.get("maximal_torus", False)),
            )
            for cls in raw["classes"]
        )
        data = PhiData(raw["name"], classes)
    except (KeyError, TypeError, ValueError) as exc:
        raise LieDataError(f"malformed data file: {exc}") from exc
    data.validate()
    return data


def builtin_so3() -> PhiData:
    """The rotation group's abelian class data shipped with the package."""
    path = Path(__file__).parent / "data" / "so3.json"
    return load_phi_data(path)
