import importlib

import pytest

MODULES = ("af", "channel", "df", "discrete", "ef", "scenario")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A name left in __all__ after its definition is deleted fails here.
    module = importlib.import_module(f"ircrates.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from ircrates.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
