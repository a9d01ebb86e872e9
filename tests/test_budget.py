"""The resource budget: one module knows it, and its comparison is exact."""

import ast
from pathlib import Path

import pytest

from quandlekit import BudgetError, _budget, boundary_matrix

SRC = Path(_budget.__file__).resolve().parent


def test_only_the_budget_module_knows_the_budget():
    holders = [p.name for p in sorted(SRC.glob("*.py")) if "QUANDLEKIT_BUDGET" in p.read_text()]
    assert holders == ["_budget.py"]
    tree = ast.parse((SRC / "coloring.py").read_text())
    from_homology = [alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "homology"
                     for alias in node.names]
    assert from_homology and not [name for name in from_homology if "budget" in name.lower()]
    assert not hasattr(boundary_matrix, "cache_clear")  # the memo keeps answers only


def test_coloring_applies_no_budget_memo():
    # Cocycle verdicts are memoized in homology; coloring keeps no memo of its own.
    tree = ast.parse((SRC / "coloring.py").read_text())
    memos = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "memo"
             or isinstance(node, ast.ImportFrom) and node.module == "_budget"]
    assert not memos


def test_within_agrees_with_the_power():
    for bound in (-3, 0, 1, 7, 8, 9, 20_000):
        for m in range(6):
            for n in range(40):
                assert _budget.within(m, n, bound) == (m**n <= bound), (m, n, bound)
    assert not _budget.within(3, 10**18, 20_000)  # no power is formed
    assert _budget.within(1, 10**18, 1)


@pytest.mark.parametrize("budget", ["8", "9", "100", "20000"])
def test_size_rule(monkeypatch, budget):
    # m >= 2 counts m^n tuples; one element counts n^2, the work of the boundary.
    monkeypatch.setenv("QUANDLEKIT_BUDGET", budget)
    for m in range(1, 5):
        for n in range(-1, 20):
            size = n * n if m == 1 else m**n
            if n > 0 and size > int(budget):
                with pytest.raises(BudgetError, match="exceeds the budget of " + budget):
                    _budget.check_chain(m, n)
            else:
                _budget.check_chain(m, n)


def test_one_element_refusal_names_the_work(monkeypatch):
    monkeypatch.delenv("QUANDLEKIT_BUDGET", raising=False)
    _budget.check_chain(1, 141)  # 141^2 = 19881
    with pytest.raises(BudgetError, match=r"size 1\^142 \(boundary work 142\^2\) exceeds"):
        _budget.check_chain(1, 142)


def test_refusal_names_the_work(monkeypatch):
    # Work that walks C_n without building it is named, not a chain basis.
    monkeypatch.setenv("QUANDLEKIT_BUDGET", "624")
    _budget.check_chain(5, 3, "cocycle check")
    with pytest.raises(BudgetError) as info:
        _budget.check_chain(5, 4, "cocycle check")
    assert str(info.value) == ("cocycle check over 5^4 tuples exceeds the budget of 624 "
                               "(override with QUANDLEKIT_BUDGET)")
    with pytest.raises(BudgetError, match=r"^coboundary over 1\^25 tuples \(boundary work 25\^2\) "):
        _budget.check_chain(1, 25, "coboundary")
