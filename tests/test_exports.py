"""The package's export list: every public name once, in order, and nothing
that no longer exists, so `from specangles import *` keeps working."""

import types

import specangles


def test_all_is_sorted_and_unique():
    assert specangles.__all__ == sorted(set(specangles.__all__))


def test_all_is_every_public_name_but_the_submodules():
    public = {
        name
        for name, value in vars(specangles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(specangles.__all__) == public


def test_star_import():
    namespace = {}
    exec("from specangles import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(specangles.__all__)
