"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion from the shared verification suite (the same
code the ``conesphere verify`` subcommand drives) and prints one PASS/FAIL
line; run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they complete.  The samples and tolerances live in the check functions of
``conesphere.verify``, in one place; most detail lines print the tolerance
next to the worst gap.
"""

import math

import pytest

from conesphere import growth, verify, volume


def _run(name):
    result = verify.run_suite([name], seed=0)[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, result.detail


@pytest.mark.parametrize("name", [name for name, _, _ in verify.ACCEPTANCE_CRITERIA])
def test_acceptance_criterion(name):
    _run(name)


@pytest.mark.parametrize("name", [name for name, _, _ in verify.MODULE_SUITES])
def test_module_property_suite(name):
    _run(name)


def test_fibonacci_growth_fails_on_a_nonfinite_vertex(monkeypatch):
    expand = growth.expand_tree

    def planted(root, start_edge, depth):
        tree = expand(root, start_edge, depth)
        tree.levels[7].logs[5, 1] = math.nan
        return tree
    monkeypatch.setattr(growth, "expand_tree", planted)
    result = verify.run_suite(["fibonacci_growth"], seed=0)[0]
    assert not result.passed
    assert "non-finite" in result.detail and " 0 non-finite" not in result.detail


@pytest.mark.parametrize("name", ["_log_v_integrand", "_slope_integrand"])
def test_derivative_relation_fails_on_a_scaled_integrand(monkeypatch, name):
    integrand = getattr(volume, name)
    monkeypatch.setattr(volume, name, lambda u, level: integrand(u, level) * (1.0 + 1e-9))
    result = verify.run_suite(["derivative_relation"], seed=0)[0]
    assert not result.passed, result.detail


def test_derivative_relation_fails_on_a_nonfinite_slope(monkeypatch):
    integrand = volume._slope_integrand

    def planted(u, level):
        values = integrand(u, level)
        if level < 1e-20:
            values[len(values) // 2] = math.nan
        return values
    monkeypatch.setattr(volume, "_slope_integrand", planted)
    result = verify.run_suite(["derivative_relation"], seed=0)[0]
    assert not result.passed
    assert "gap inf at 50 angles" in result.detail
