import ast
import importlib
import inspect
import textwrap

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


@pytest.mark.parametrize("name, function", [
    ("af", "af_sum_rate_gain_batch"), ("ef", "_bi_eval"), ("ef", "ef_bi_sum_rate_search_batch"),
    ("ef", "ef_sl_batch"), ("df", "df_sum_rate_search_batch")])
def test_block_kernels_raise_nothing(name, function):
    # A block kernel marks a cell it refuses with NaN rates, and
    # scenario._refusal alone turns the mark into an error.
    source = inspect.getsource(getattr(importlib.import_module(f"ircrates.{name}"), function))
    tree = ast.parse(textwrap.dedent(source))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)] == []
