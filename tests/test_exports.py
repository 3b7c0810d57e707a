from __future__ import annotations

import importlib

import pytest

# every name a module exports must exist: tools that wrap the public API look
# each one up, so a name left behind by a deletion breaks them
MODULES = ("quadrature", "profiles", "logtransform", "moser", "rearrangement", "symmetry", "cli")


@pytest.mark.parametrize("module", ("henon4",) + tuple(f"henon4.{m}" for m in MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
