"""Every computed character table stays byte-identical.

tests/data/table_digests.json holds, for every subgroup class of the
benchmark groups (perfbench/data/workloads.json) and of the builtin groups
(Q8 included), the SHA-256 of table_to_text(character_table(sub)), or the
name of the error type when the table cannot be computed.  Regenerate it,
only when a change of the tables is intended, with

    PYTHONPATH=src python tests/test_table_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from burnside.characters import CharacterError, character_table  # noqa: E402
from burnside.groups import (  # noqa: E402
    BUILTIN_GROUPS,
    builtin_group,
    subgroup_lattice,
)

from group_fixtures import BENCHMARK_GROUPS, benchmark_group  # noqa: E402
from oracles import element_set, subgroup_view, table_to_text  # noqa: E402

DIGESTS = HERE / "data" / "table_digests.json"


def _groups():
    for name in sorted(BENCHMARK_GROUPS):
        yield f"benchmark/{name}", benchmark_group(name)
    for name in sorted(BUILTIN_GROUPS):
        yield f"builtin/{name}", builtin_group(name)


def table_digests() -> dict[str, str]:
    """"<source>/<group>/<class label>" -> digest of the class's table text,
    or the error type name when character_table raises."""
    out = {}
    for prefix, group in _groups():
        lattice = subgroup_lattice(group)
        for i, cls in enumerate(lattice.classes):
            label = lattice.label_of(i)
            sub = subgroup_view(group, element_set(cls), name=label)
            try:
                text = table_to_text(character_table(sub))
            except CharacterError as exc:
                out[f"{prefix}/{label}"] = type(exc).__name__
            else:
                out[f"{prefix}/{label}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_every_table_is_unchanged():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = table_digests()
    assert len(expected) == 264
    changed = sorted(key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key))
    assert not changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
