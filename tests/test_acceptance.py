"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion from the shared verification suite (the same
code the ``conesphere verify`` subcommand drives) and prints one PASS/FAIL
line; run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they complete.  Tolerances are fixed inside the suite:

  1.  kappa anchors: exact values, tr CBA vs the polynomial at 1e-12.
  2.  involution corollary: phi_beta vs I_b and the displayed rational, 1e-9.
  3.  group action: kappa invariance for words up to length 8 at 1e-12,
      involutions square to the identity, domain images disjoint.
  4.  inequalities: products > 4, both collar bounds, b = 2 equality at 1e-12.
  5.  volume anchor: pi^2/2 within 1e-4, moduli 2*pi^2 within 4e-4.
  6.  volume family: polynomial references within 1e-3 across levels.
  7.  symplectic: density consistency < 1e-6 at h = 1e-5 with O(h^2)
      refinement, Darboux pairing within 1e-5.
  8.  Fibonacci growth: depth-15 trees, every vertex finite, transfer
      identity 1e-12, defect bound log 4, normalized lower bound.
  9.  reduction: < 200 steps, strictly decreasing energy, replay 1e-9.
  10. hyperbolization: residual 1e-10, sign lemma, convexity, pairings 1e-9,
      angle sum within 1e-6 (derived property).
  11. derivative relation: constant pi*i at 1e-9 agreement.
"""

import math

import pytest

from conesphere import growth, verify


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
