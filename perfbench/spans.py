"""Spans around burnside's module boundaries, installed from outside the package.

Each wrapped public function is rebound in every burnside module that holds
it, so `from .groups import subgroup_lattice` call sites are traced too;
methods are patched on their class.  Per-element helpers such as perm_mul
are never wrapped.  Spans stay in memory as [id, parent, op, name, start,
end, attrs] and are written as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# target ("module.function" or "module.Class.method") -> span name
SPANNED = {
    "cli.main": "cli.main",
    "groups.parse_group": "groups.parse",
    "groups.subgroup_lattice": "groups.lattice",
    "groups.all_subgroups": "groups.all_subgroups",
    "groups.conjugacy_classes": "groups.conjugacy_classes",
    "groups.double_cosets": "groups.double_cosets",
    "groups.SubgroupLattice.class_of_subgroup": "groups.class_of_subgroup",
    "marks.marks_table": "marks.table",
    "marks.solve_ghost": "marks.solve_ghost",
    "marks.fixed_points_of_element": "marks.fixed_points",
    "artin.artin_certificate": "artin.certificate",
    "brauer.brauer_certificate": "brauer.certificate",
    "brauer.core_classification": "brauer.core_classification",
    "characters.character_table": "characters.table",
    "characters.load_character_table": "characters.load",
    "characters.CharacterTable.coordinates": "characters.coordinates",
    "characters.induce": "characters.induce",
    "characters.restrict": "characters.restrict",
    "characters.conjugate_function": "characters.conjugate",
    "restriction.equalizer_lattice": "restriction.equalizer",
    "restriction.verify_artin_restriction": "restriction.verify",
    "restriction.verify_brauer_restriction": "restriction.verify",
    "restriction.TableProvider.class_table": "restriction.class_table",
    "restriction.TableProvider.table_for": "restriction.table_for",
    "exact.integer_kernel_basis": "exact.kernel",
    "exact.smith_normal_form": "exact.snf",
}

# targets too frequent for a span each; only their calls are counted
COUNTED = {"groups.close_under_product": "groups.closures"}


def _sizes(name, args, result) -> dict | None:
    if name == "groups.all_subgroups":
        return {"subgroups": len(result)}
    if name in ("exact.kernel", "exact.snf"):
        attrs = {"rows": args[0].rows, "cols": args[0].cols}
        if name == "exact.kernel":
            attrs["kernel"] = len(result)
        return attrs
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(self.spans), self._stack[-1] if self._stack else None,
                      self.op, name, time.perf_counter(), None, None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[6] = {"error": type(exc).__name__}
                raise
            finally:
                record[5] = time.perf_counter()
                self._stack.pop()
            record[6] = _sizes(name, args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op, name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "burnside" or key.startswith("burnside.")]
        for targets, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for target, name in targets.items():
                module_name, *path = target.split(".")
                owner = importlib.import_module(f"burnside.{module_name}")
                if len(path) == 2:
                    owner = getattr(owner, path[0])
                    self._patch(owner, path[1], make(name, getattr(owner, path[1])))
                    continue
                original = getattr(owner, path[0])
                wrapper = make(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end, attrs in self.spans:
                row = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start, "end": end}
                if attrs:
                    row.update(attrs)
                handle.write(json.dumps(row) + "\n")

    def metrics(self, skip_ops=frozenset()) -> dict[str, tuple[float, str]]:
        """Per-layer metrics derived from the spans: name -> (value, unit).

        Spans and counts of the ops in skip_ops (ops cut off by their
        deadline, whose work depends on where the cut fell) are left out.
        """
        kept = [s for s in self.spans if s[2] not in skip_ops]
        closures = sum(n for (op, _), n in self.counts.items() if op not in skip_ops)
        child_time: dict[int, float] = defaultdict(float)
        children: Counter = Counter()
        for sid, parent, _, _, start, end, _ in kept:
            if parent is not None:
                child_time[parent] += end - start
                children[parent] += 1
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        errors: Counter = Counter()
        attr_sum: Counter = Counter()
        attr_max: Counter = Counter()
        hits = 0
        names = {s[0]: s[3] for s in kept}
        for sid, parent, _, name, start, end, attrs in kept:
            calls[name] += 1
            # inclusive time counts only the outermost call of a recursion
            ancestor = parent
            while ancestor is not None and names[ancestor] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                total[name] += end - start
            self_time[name] += end - start - child_time[sid]
            if attrs and "error" in attrs:
                errors[name] += 1
            elif attrs:
                for key, value in attrs.items():
                    attr_sum[name, key] += value
                    attr_max[name, key] = max(attr_max[name, key], value)
            if name == "restriction.table_for" and not children[sid]:
                hits += 1
        rows = attr_sum["exact.kernel", "rows"]
        rank = attr_sum["exact.kernel", "cols"] - attr_sum["exact.kernel", "kernel"]
        s, n, r = "s", "count", "ratio"
        return {
            "groups.lattice_s": (total["groups.lattice"], s),
            "groups.lattice_calls": (calls["groups.lattice"], n),
            "groups.closures": (closures, n),
            "groups.subgroups": (attr_sum["groups.all_subgroups", "subgroups"], n),
            "groups.parse_s": (total["groups.parse"], s),
            "groups.conjugacy_classes_calls": (calls["groups.conjugacy_classes"], n),
            "groups.conjugacy_classes_s": (total["groups.conjugacy_classes"], s),
            "groups.double_cosets_s": (total["groups.double_cosets"], s),
            "groups.class_of_subgroup_calls": (calls["groups.class_of_subgroup"], n),
            "groups.class_of_subgroup_s": (total["groups.class_of_subgroup"], s),
            "marks.table_s": (total["marks.table"], s),
            "marks.solve_ghost_calls": (calls["marks.solve_ghost"], n),
            "marks.fixed_points_calls": (calls["marks.fixed_points"], n),
            "marks.fixed_points_s": (total["marks.fixed_points"], s),
            "artin.certificate_s": (total["artin.certificate"], s),
            "artin.certificates": (calls["artin.certificate"], n),
            "brauer.certificate_s": (total["brauer.certificate"], s),
            "brauer.core_classification_calls": (calls["brauer.core_classification"], n),
            "characters.table_s": (total["characters.table"], s),
            "characters.tables": (calls["characters.table"] - errors["characters.table"], n),
            "characters.table_failures": (errors["characters.table"], n),
            "characters.load_s": (total["characters.load"], s),
            "characters.tables_loaded": (calls["characters.load"] - errors["characters.load"], n),
            "characters.coordinates_calls": (calls["characters.coordinates"], n),
            "characters.coordinates_s": (total["characters.coordinates"], s),
            "characters.induce_calls": (calls["characters.induce"], n),
            "characters.induce_s": (total["characters.induce"], s),
            "characters.restrict_calls": (calls["characters.restrict"], n),
            "characters.restrict_s": (total["characters.restrict"], s),
            "characters.conjugate_calls": (calls["characters.conjugate"], n),
            "characters.conjugate_s": (total["characters.conjugate"], s),
            "restriction.equalizer_s": (self_time["restriction.equalizer"], s),
            "restriction.verify_s": (self_time["restriction.verify"], s),
            "restriction.rows": (rows, n),
            "restriction.cols": (attr_sum["exact.kernel", "cols"], n),
            "restriction.useful_row_ratio": (rank / rows if rows else 0.0, r),
            "restriction.table_for_calls": (calls["restriction.table_for"], n),
            "restriction.table_cache_hit_ratio": (
                hits / calls["restriction.table_for"] if calls["restriction.table_for"] else 0.0, r),
            "exact.kernel_s": (total["exact.kernel"], s),
            "exact.snf_calls": (calls["exact.snf"], n),
            "exact.snf_s": (total["exact.snf"], s),
            "exact.snf_max_rows": (attr_max["exact.snf", "rows"], n),
            "exact.snf_max_cols": (attr_max["exact.snf", "cols"], n),
            "cli.self_s": (self_time["cli.main"], s),
        }
