"""The benchmark tracer in perfbench/spans.py wraps burnside functions and
methods by name.  Every name it lists must resolve to a callable, so that
removing or renaming a traced function fails here and not only in a traced
benchmark run.  The file is loaded read-only, outside the perfbench package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
TARGETS = sorted({**spans.SPANNED, **spans.COUNTED})


def test_targets_are_listed():
    assert "groups.conjugacy_classes" in TARGETS
    assert "groups.close_under_product" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_is_a_burnside_callable(target):
    module_name, *path = target.split(".")
    assert 1 <= len(path) <= 2, target
    owner = importlib.import_module(f"burnside.{module_name}")
    for attr in path:
        assert hasattr(owner, attr), f"{target} does not resolve"
        owner = getattr(owner, attr)
    assert callable(owner), f"{target} is not callable"


def test_install_and_uninstall_restore_every_name():
    import burnside.cli  # noqa: F401  (the tracer patches the modules already imported)
    from burnside import characters, groups

    before = (groups.conjugacy_classes, characters.conjugate_function, groups.close_under_product)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert groups.conjugacy_classes is not before[0]
        assert characters.conjugate_function is not before[1]
        assert groups.close_under_product is not before[2]
    finally:
        tracer.uninstall()
    assert (groups.conjugacy_classes, characters.conjugate_function, groups.close_under_product) == before
