"""Every exported name resolves: a stale entry in a module's `__all__`, such
as a constant that was deleted, fails here."""

import importlib
import pkgutil

import pytest

import patrolgeom

MODULES = ["patrolgeom"] + sorted(
    "patrolgeom." + info.name for info in pkgutil.iter_modules(patrolgeom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
