"""The package's export list: every public name once, in order, and nothing
that no longer exists, so `from specangles import *` keeps working."""

import specangles


def test_all_is_sorted_and_unique():
    assert specangles.__all__ == sorted(set(specangles.__all__))


def test_star_import():
    namespace = {}
    exec("from specangles import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(specangles.__all__)
