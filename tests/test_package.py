"""The package namespace: lazy re-exports of the submodules' public names."""

import importlib

import pytest

import nilcolim


@pytest.mark.parametrize("name", nilcolim.__all__)
def test_export_is_its_home_modules_object(name):
    obj = getattr(nilcolim, name)
    assert obj.__module__.startswith("nilcolim.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from nilcolim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nilcolim.__all__)


def test_dir_lists_the_exports():
    assert set(nilcolim.__all__) <= set(dir(nilcolim))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nilcolim.no_such_name
    assert not hasattr(nilcolim, "no_such_name")


def test_budgets_keep_their_old_homes():
    import nilcolim.bar_complex as bar_complex
    import nilcolim.budgets as budgets
    import nilcolim.coset_enum as coset_enum
    import nilcolim.symplectic as symplectic

    assert nilcolim.BudgetExceededError is bar_complex.BudgetExceededError
    assert bar_complex.DEFAULT_MAX_SIMPLICES == budgets.DEFAULT_MAX_SIMPLICES
    assert coset_enum.DEFAULT_COSET_LIMIT == budgets.DEFAULT_COSET_LIMIT
    assert symplectic.DEFAULT_SEARCH_BUDGET == budgets.DEFAULT_SEARCH_BUDGET
