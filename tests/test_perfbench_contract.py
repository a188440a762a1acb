"""The benchmark tracer in perfbench/spans.py wraps burnside functions and
methods by name.  Every name it lists must resolve to a callable, so that
removing or renaming a traced function fails here and not only in a traced
benchmark run.  The cli imports the character and restriction layers only
when a command needs them, so a traced run mirrors run.py --trace 1 in a
fresh interpreter and checks that the equalizer's layers are still traced.
The file is loaded read-only, outside the perfbench package."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


# run.py --trace 1 in a fresh interpreter: one untraced pass, which imports
# the layers the commands load on first use, then the tracer, then a traced pass
TRACED_AFTER_UNTRACED = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from burnside import cli
argv = ["equalizer", "--group", "S3", "--mode", "artin", "--json"]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
tracer = spans.Tracer()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
finally:
    tracer.uninstall()
print(json.dumps({"code": code, "names": sorted({span[3] for span in tracer.spans})}))
"""


def test_traced_equalizer_after_an_untraced_one_records_its_layers():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", TRACED_AFTER_UNTRACED, str(SPANS_PATH)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert {"restriction.verify", "characters.table", "characters.coordinates"} <= set(result["names"])
