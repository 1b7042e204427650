"""Acceptance suite: one test per criterion, one printed verdict line each.

The criterion implementations live in hyp2.acceptance so that `hyp2 selftest`
runs exactly the same checks; here each one is asserted at its stated
tolerance and budget.
"""

from itertools import count

from hyp2 import acceptance


def _run(fn):
    result = fn()
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_ring_order_suite():
    _run(acceptance.criterion_ring_order)


def test_criterion_2_two_norm_axiom_suite():
    _run(acceptance.criterion_two_norm_axioms)


def test_criterion_3_decomposition_identity():
    _run(acceptance.criterion_decomposition)


def test_criterion_4_functional_norm_equivalence():
    _run(acceptance.criterion_functional_norms)


def test_criterion_5_k_decomposition_identities():
    _run(acceptance.criterion_k_decomposition)


def test_criterion_6_extension_engine():
    _run(acceptance.criterion_extension_engine)


def test_criterion_7_norm_attaining_corollary():
    _run(acceptance.criterion_corollary)


def test_criterion_8_componentwise_decoupling():
    _run(acceptance.criterion_componentwise_decoupling)


def test_runner_fails_a_criterion_over_its_budget(monkeypatch):
    # a clock that advances 5 s per read: the body's checks pass, its runtime
    # equals the 5 s budget, and the runner's wall-clock gate fails it
    clock = count(0.0, 5.0)
    monkeypatch.setattr(acceptance, "perf_counter", lambda: next(clock))
    result = acceptance.criterion_ring_order()
    assert (result.runtime, result.budget) == (5.0, 5.0)
    assert result.detail["worst_violation"] <= 1e-12
    assert result.passed is False
