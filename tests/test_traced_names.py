"""The benchmark tracer in ``perfbench/tracer.py`` patches library names in
place and silently skips any that a refactor removed; this test makes such
a removal fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


@pytest.mark.parametrize("mod_name, owner_name, attr, layer", _wrapped())
def test_traced_name_exists_where_the_tracer_looks(mod_name, owner_name, attr, layer):
    module = importlib.import_module(f"rkstieltjes.{mod_name}")
    owner = module if owner_name is None else getattr(module, owner_name)
    assert attr in vars(owner), f"{layer}: {mod_name}.{owner_name or ''}.{attr} is gone"
