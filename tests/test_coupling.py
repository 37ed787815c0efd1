import gc
import itertools
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import (
    CapExceededError,
    Formula,
    InfeasiblePinningError,
    KsatError,
    RegimeError,
    UsageError,
    enumerate_solutions,
    generate_random_kcnf,
)
from ksat.classify import classify, default_delta, good_induced_formula
from ksat import marginals
from ksat.coupling import (
    CouplingTrace,
    _reveal_store,
    coupling_influence_bound,
    exact_influence_matrix,
    r_window_violations,
    run_coupling,
    verify_coupling_trace,
)
from ksat.marginals import DEFAULT_CAP, exact_marginal, open_store
from ksat.marking import Marking, default_quotas, find_marking
from ksat.rng import make_rng, spawn_seed
from ksat.sampler import SamplerConfig, default_t_max, run_block_dynamics


def all_good_classification(f, k=4):
    return classify(f, delta=max(f.degree(v) for v in range(1, f.n + 1)) + 1, zeta=0.3, k=k)


def test_isolated_v0():
    f = Formula.from_ints(3, [[2, 3]])
    cl = all_good_classification(f)
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    tr = run_coupling(f, cl, m, {}, v0=1, k_c=1, seed=5)
    assert tr.v_failed == frozenset({1})
    assert tr.e_failed == tr.e_failed_dagger == tr.e_failed_ddagger == frozenset()
    assert tr.disagreements == frozenset({1})


def test_or_clause_disagreement_rate():
    # Psi(x1, x2) = mu(x2=1|x1=0) - mu(x2=1|x1=1) = 1 - 1/2 = 1/2; the
    # monotone coupling disagrees at x2 with exactly that probability
    f = Formula.from_ints(2, [[1, 2]])
    cl = all_good_classification(f)
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    rng = make_rng(31337)
    diff = 0
    trials = 20_000
    for _ in range(trials):
        tr = run_coupling(f, cl, m, {}, v0=1, k_c=1, seed=make_rng(spawn_seed(rng)))
        diff += 2 in tr.disagreements
    assert abs(diff / trials - 0.5) < 0.02


def test_marginal_laws_are_exact():
    f = generate_random_kcnf(7, 8, 3, seed=29)
    sols = enumerate_solutions(f)
    assert len(sols) > 2
    cl = all_good_classification(f, k=3)
    m = find_marking(f, 1, 1, seed=4)
    assert m.certified
    v0 = min(m.marked)
    law0 = [s for s in sols if s[v0 - 1] == 0]
    law1 = [s for s in sols if s[v0 - 1] == 1]
    assert law0 and law1

    runs = 30_000
    rng = make_rng(99)
    cx, cy = Counter(), Counter()
    for _ in range(runs):
        tr = run_coupling(f, cl, m, {}, v0=v0, k_c=1, seed=make_rng(spawn_seed(rng)))
        cx[tr.x] += 1
        cy[tr.y] += 1
    tv_x = 0.5 * sum(abs(cx.get(s, 0) / runs - 1 / len(law0)) for s in law0)
    tv_x += 0.5 * sum(c / runs for s, c in cx.items() if s not in law0)
    tv_y = 0.5 * sum(abs(cy.get(s, 0) / runs - 1 / len(law1)) for s in law1)
    tv_y += 0.5 * sum(c / runs for s, c in cy.items() if s not in law1)
    assert tv_x <= 0.03
    assert tv_y <= 0.03


def test_marginal_laws_are_exact_through_both_bad_rules():
    """The k = 5 instance of the warm-tree differential test, on which every
    run fails clauses by both bad-variable rules. Its 12,028 solutions are
    too many for the joint law, so each variable's marginal under X and
    under Y must lie within 4 binomial standard errors of its exact
    conditional marginal."""
    f = generate_random_kcnf(14, 10, 5, seed=55)
    cl = classify(f, delta=5, zeta=0.45, k=5)
    assert cl.v_bad == {1, 3, 8, 9, 10}
    m = find_marking(good_induced_formula(f, cl, force=True), 1, 1, seed=55, eligible=cl.v_good)
    sols = np.array(enumerate_solutions(f))
    assert len(sols) == 12_028

    runs = 20_000
    rng = make_rng(2024)
    xs, ys = [], []
    for _ in range(runs):
        tr = run_coupling(f, cl, m, {}, v0=4, k_c=1, seed=make_rng(spawn_seed(rng)))
        assert tr.e_failed_dagger and tr.e_failed_ddagger
        xs.append(tr.x)
        ys.append(tr.y)
    for side, outputs in ((0, xs), (1, ys)):
        p = sols[sols[:, 3] == side].mean(axis=0)
        se = np.sqrt(p * (1 - p) / runs)
        assert (np.abs(np.mean(outputs, axis=0) - p) <= 4 * se).all(), side


def test_coupling_with_pinning_and_infeasible_branch():
    f = Formula.from_ints(2, [[1, 2]])
    cl = all_good_classification(f)
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    # pinning x2=0 forces x1=1: the v0=x1 branch X(v0)=0 is infeasible
    with pytest.raises(InfeasiblePinningError):
        run_coupling(f, cl, m, {2: 0}, v0=1, k_c=1, seed=0)


def test_no_open_good_variable_at_v0_is_out_of_regime():
    """v0 = 1 sits only in (-1 v 3), unsatisfied in Y, whose open variable
    3 is bad: the reveal loop has nothing to pick, yet 3 must not end up
    coupled. Every seed raises RegimeError before any draw."""
    f = Formula.from_ints(4, [[2, 3, -4], [-1, 3], [2, 3]])
    cl = classify(f, delta=2, zeta=0.3, k=4)
    assert 3 in cl.v_bad and 1 in cl.v_good
    m = Marking(frozenset({1}), 1, 1, certified=True)
    for seed in range(6):
        with pytest.raises(RegimeError):
            run_coupling(f, cl, m, {}, v0=1, k_c=1, seed=seed)


class _ZeroDraws(random.Random):
    """A generator whose 53-bit draws are all 0, the one value that makes
    r = 0 fall on a zero marginal."""

    def getrandbits(self, k):
        return 0 if k == 53 else super().getrandbits(k)


def test_reveal_keeps_a_value_of_probability_zero_out():
    """X's pinning x1 = 0 forces x2 = 0 through (1 v -2): the reveal of 2
    must keep X_2 = 0 even on the draw r = 0, while under Y's pinning
    (x1 = 1, 2 free) P(Y_2 = 1) = 1/2, so r = 0 gives Y_2 = 1."""
    f = Formula.from_ints(2, [[1, -2]])
    cl = all_good_classification(f)
    m = Marking(frozenset({1}), 1, 1, certified=True)
    tr = run_coupling(f, cl, m, {}, v0=1, k_c=1, seed=_ZeroDraws(0))
    assert tr.r_records == ((2, 0.0, 0, 1),)
    assert tr.x == (0, 0) and tr.y == (1, 1)


def test_repeated_run_reads_every_schedule_from_the_store():
    """A second identical run builds no schedule: its reveals and its
    extension draws all hit the formula's store, and its trace is the
    first run's."""
    f = generate_random_kcnf(9, 10, 3, seed=7)
    cl = all_good_classification(f, k=3)
    m = Marking(frozenset(range(1, 10)), 1, 1, certified=True)
    first = run_coupling(f, cl, m, {2: 1}, v0=1, k_c=1, seed=11)
    misses = open_store(f).cache_info().misses
    assert run_coupling(f, cl, m, {2: 1}, v0=1, k_c=1, seed=11) == first
    assert open_store(f).cache_info().misses == misses


def test_structure_invariants_on_all_good_instances():
    # verify_coupling_trace runs inside run_coupling; exercise it broadly
    rng = make_rng(404)
    ran = 0
    for _ in range(10):
        f = generate_random_kcnf(9, 10, 3, seed=rng)
        if not enumerate_solutions(f):
            continue
        cl = all_good_classification(f, k=3)
        m = find_marking(f, 1, 1, seed=6)
        if not m.certified:
            continue
        v0 = sorted(m.marked)[0]
        try:
            tr = run_coupling(f, cl, m, {}, v0=v0, k_c=1, seed=rng.getrandbits(40))
        except InfeasiblePinningError:
            continue
        assert tr.x[v0 - 1] == 0 and tr.y[v0 - 1] == 1
        ran += 1
    assert ran >= 5


def test_structure_invariants_with_bad_components():
    # sparse n=40 instances with a contained bad set (same configuration as
    # the random-path tests); the trace checks run inside run_coupling
    from ksat.classify import good_induced_formula

    for seed in (0, 3, 4):
        f = generate_random_kcnf(40, 8, 4, seed=seed)
        cl = classify(f, delta=2, zeta=0.3, k=4)
        assert cl.c_bad
        good = good_induced_formula(f, cl, force=True)
        m = find_marking(good, 1, 1, seed=9, eligible=cl.v_good)
        assert m.certified and m.marked
        rng = make_rng(seed + 1)
        saw_failed_clause = saw_absorption = False
        for v0 in sorted(m.marked):
            for _ in range(25):
                tr = run_coupling(
                    f, cl, m, {}, v0=v0, k_c=1, seed=make_rng(spawn_seed(rng))
                )
                saw_failed_clause = saw_failed_clause or bool(tr.e_failed)
                saw_absorption = saw_absorption or bool(tr.e_failed_ddagger)
        assert saw_failed_clause and saw_absorption


def test_r_window_on_lll_regime_instance():
    # disjoint width-8 clauses: d=1, k_u=6, k_c=1, s=8 gives
    # 2^(k_u - k_c) = 32 >= 2*e*1*8 = 43.5? no -- use s=5: 2e*5 = 27.2 <= 32
    clauses = [list(range(1 + 8 * i, 9 + 8 * i)) for i in range(3)]
    f = Formula.from_ints(24, clauses)
    cl = all_good_classification(f, k=8)
    marked = {v for i in range(3) for v in range(1 + 8 * i, 3 + 8 * i)}
    m = Marking(frozenset(marked), 2, 6, certified=True)
    rng = make_rng(2001)
    for _ in range(300):
        tr = run_coupling(f, cl, m, {}, v0=1, k_c=1, seed=make_rng(spawn_seed(rng)))
        assert r_window_violations(tr, s=5) == []


def test_r_window_flags_disagreements_on_either_side_only():
    # s = 4: the window is [1/4, 3/4]
    records = ((1, 0.1, 0, 1), (2, 0.9, 1, 0), (3, 0.05, 1, 1), (4, 0.5, 0, 1))
    empty = frozenset()
    trace = CouplingTrace(empty, empty, empty, empty, empty, empty, (), (), records, 1)
    assert r_window_violations(trace, s=4) == [(1, 0.1), (2, 0.9)]


@pytest.mark.parametrize(
    "pin, v0, k_c, match",
    [
        ({}, 3, 1, "v0=3 is not a marked variable"),
        ({1: 0}, 1, 1, "v0=1 is pinned"),
        ({3: 0}, 1, 1, "pinning domain must be a subset of the marked set"),
        ({}, 1, 0, "k_c must be >= 1, got 0"),
    ],
)
def test_run_coupling_rejects_bad_inputs(pin, v0, k_c, match):
    f = Formula.from_ints(3, [[2, 3]])
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    with pytest.raises(UsageError, match=match):
        run_coupling(f, all_good_classification(f), m, pin, v0=v0, k_c=k_c)


def test_exact_influence_independent_vars():
    f = Formula(3, ())
    m = Marking(frozenset({1, 2, 3}), 0, 0, certified=True)
    inf = exact_influence_matrix(f, m, {})
    assert inf.matrix.shape == (3, 3)
    assert not inf.matrix.any()
    assert inf.max_eigenvalue == pytest.approx(0.0, abs=1e-9)


def test_exact_influence_or_clause():
    f = Formula.from_ints(2, [[1, 2]])
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    inf = exact_influence_matrix(f, m, {})
    assert inf.entry(1, 2) == Fraction(1, 2)
    assert inf.entry(2, 1) == Fraction(1, 2)
    assert inf.max_eigenvalue == pytest.approx(0.5, abs=1e-8)


def test_exact_influence_max_eigenvalue_on_slowly_converging_spectrum():
    # np.linalg.eigvals gives 0.2554537305; a power iteration on the matrix
    # shifted by 1 + its largest row sum converges slowly here, and its
    # stopping rule on successive Rayleigh quotients read 0.2554669423
    f = generate_random_kcnf(9, 9, 3, seed=192)
    inf = exact_influence_matrix(f, find_marking(f, 1, 1, seed=192), {})
    assert inf.max_eigenvalue == pytest.approx(0.2554537305, abs=1e-9)


def test_exact_influence_satisfied_pinning_is_zero():
    f = Formula.from_ints(3, [[1, 2]])
    m = Marking(frozenset({1, 2, 3}), 1, 1, certified=True)
    inf = exact_influence_matrix(f, m, {1: 1})
    assert not inf.matrix.any()


def test_exact_influence_flags_frozen_rows():
    f = Formula.from_ints(2, [[1], [1, 2]])
    m = Marking(frozenset({1, 2}), 0, 0, certified=True)
    inf = exact_influence_matrix(f, m, {})
    assert inf.flagged == (1,)
    assert not inf.matrix[inf.order.index(1)].any()


def test_exact_influence_rejects_a_pin_outside_the_marked_set():
    f = Formula.from_ints(3, [[1, 2, 3]])
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    with pytest.raises(UsageError, match="pinning domain must be a subset of the marked set"):
        exact_influence_matrix(f, m, {1: 0, 3: 1})


@st.composite
def marked_pinning_cases(draw):
    """(formula on at most 10 variables, a find_marking marking, a pinning of
    some of its marked variables). The pinning's values are drawn freely, so
    infeasible pinnings are common."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 3)))
    f = generate_random_kcnf(n, draw(st.integers(0, 2 * n)), k, seed=draw(st.integers(0, 2**32)))
    k_m = draw(st.integers(0, 1))
    k_u = draw(st.integers(0, min(1, k - k_m)))
    m = find_marking(f, k_m, k_u, seed=draw(st.integers(0, 2**16)), max_resamples=50)
    pinned = draw(st.lists(st.sampled_from(sorted(m.marked)), unique=True)) if m.marked else []
    return f, m, {v: draw(st.integers(0, 1)) for v in pinned}


def oracle_influence(f, marked, pin):
    """(order, exact, flagged, max eigenvalue) of the influence matrix from
    every satisfying assignment of f that agrees with pin, or None when no
    assignment does."""
    sols = [
        a
        for a in itertools.product((0, 1), repeat=f.n)
        if all(any(a[lit.var - 1] == lit.sign for lit in c) for c in f.clauses)
        and all(a[v - 1] == b for v, b in pin.items())
    ]
    if not sols:
        return None
    order = tuple(sorted(marked - set(pin)))
    exact = [[Fraction(0)] * len(order) for _ in order]
    flagged = []
    for i, u in enumerate(order):
        s0 = [a for a in sols if a[u - 1] == 0]
        s1 = [a for a in sols if a[u - 1] == 1]
        if not s0 or not s1:
            flagged.append(u)
            continue
        for j, v in enumerate(order):
            if v != u:
                exact[i][j] = Fraction(sum(a[v - 1] for a in s0), len(s0)) - Fraction(
                    sum(a[v - 1] for a in s1), len(s1)
                )
    mat = np.array([[float(e) for e in row] for row in exact], dtype=float)
    top = float(np.linalg.eigvals(mat).real.max()) if order else 0.0
    return order, tuple(map(tuple, exact)), tuple(flagged), top


@settings(max_examples=300, deadline=None)
@given(marked_pinning_cases())
def test_exact_influence_matches_enumeration_oracle(case):
    f, m, pin = case
    want = oracle_influence(f, m.marked, pin)
    if want is None:
        with pytest.raises(InfeasiblePinningError):
            exact_influence_matrix(f, m, pin)
        return
    inf = exact_influence_matrix(f, m, pin)
    order, exact, flagged, top = want
    assert inf.order == order
    assert inf.exact == exact
    assert inf.flagged == flagged
    assert inf.max_eigenvalue == pytest.approx(top, abs=1e-9)


def test_exact_influence_beyond_the_whole_formula_oracle():
    """n = 40 is past whole-formula enumeration, but with all but 8 marked
    variables pinned to a chain sample every residual component is small,
    and only those are enumerated."""
    f = generate_random_kcnf(40, 8, 5, seed=0)
    cl = classify(f, delta=default_delta(5, f.m / f.n), zeta=0.3, k=5)
    good = good_induced_formula(f, cl, force=True)
    m = find_marking(good, *default_quotas(5, 0.3), seed=0, eligible=cl.v_good)
    sample, _ = run_block_dynamics(f, m, SamplerConfig(0.3, default_t_max(0.3, f.n), 0))
    marked = sorted(m.marked)
    pin = {v: sample[v - 1] for v in marked[8:]}
    inf = exact_influence_matrix(f, m, pin)
    assert inf.order == tuple(marked[:8])
    assert inf.matrix.shape == (8, 8) and inf.matrix.any()
    for u in inf.order:
        for v in inf.order:
            if v != u and u not in inf.flagged:
                p0 = exact_marginal(f, {**pin, u: 0}, v)
                assert inf.entry(u, v) == p0 - exact_marginal(f, {**pin, u: 1}, v)
    with pytest.raises(CapExceededError):
        exact_influence_matrix(f, m, pin, cap=2)


def test_influence_dominated_by_coupling_estimate():
    f = generate_random_kcnf(8, 9, 3, seed=61)
    assert enumerate_solutions(f)
    cl = all_good_classification(f, k=3)
    m = find_marking(f, 1, 1, seed=4)
    assert m.certified
    inf = exact_influence_matrix(f, m, {})
    for u in inf.order:
        i = inf.order.index(u)
        row_sum = sum(abs(float(e)) for e in inf.exact[i])
        est = coupling_influence_bound(
            f, cl, m, {}, v0=u, k_c=1, trials=4000, seed=u
        )
        assert row_sum <= est.total + 3 * est.total_stderr + 1e-9


def test_estimates_on_isolated_v0():
    f = Formula.from_ints(3, [[2, 3]])
    cl = all_good_classification(f)
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    est = coupling_influence_bound(f, cl, m, {}, v0=1, k_c=1, trials=200, seed=0)
    assert est.total == 0.0
    assert est.e_failed_mean == 0.0


def test_default_k_c():
    from ksat.coupling import default_k_c

    # 4 / (4(1 - 12*0.3) + 5) = 4 / (-5.4) < 0: invalid zeta for the formula
    # 4 / (4(1 - 12*0.02) + 5) = 4 / 8.04 -> ceil(0.4975 * k_u)
    assert default_k_c(2, 0.02) == 1
    assert default_k_c(7, 0.02) == 4
    import pytest as _pytest
    from ksat import UsageError as _U

    with _pytest.raises(_U):
        default_k_c(2, 0.3)


def test_exact_influence_rejects_values_other_than_0_1():
    from ksat import UsageError

    f = Formula.from_ints(3, [[1, 2, 3]])
    m = Marking(frozenset({1, 2, 3}), 1, 1, certified=True)
    with pytest.raises(UsageError, match="must be 0/1"):
        exact_influence_matrix(f, m, {3: 2})


def _verify_rejects(f, cl, trace, match):
    with pytest.raises(AssertionError, match=match):
        verify_coupling_trace(f, cl, trace)


def _isolated_v0_trace(f, cl):
    """A valid trace with v0 = 1 in no clause, so V = V_failed = {1} and no
    clause fails."""
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    trace = run_coupling(f, cl, m, {}, v0=1, k_c=1, seed=5)
    assert trace.v_set == trace.v_failed == frozenset({1})
    assert not trace.e_failed
    verify_coupling_trace(f, cl, trace)
    return trace


def test_verify_rejects_disagreeing_coupled_variable():
    f = Formula.from_ints(3, [[2, 3]])
    cl = all_good_classification(f)
    trace = _isolated_v0_trace(f, cl)
    y = list(trace.y)
    y[1] ^= 1
    _verify_rejects(f, cl, replace(trace, y=tuple(y)), "coupled variable 2 disagrees")


def test_verify_rejects_loop_exit_with_open_good_variable():
    # clause (2 or 3) is unsatisfied, holds failed variable 2 and still has
    # good variable 3 to couple, so the reveal loop should not have ended
    f = Formula.from_ints(3, [[2, 3]])
    cl = all_good_classification(f)
    trace = _isolated_v0_trace(f, cl)
    bad = replace(trace, v_failed=frozenset({1, 2}), v_coupled=frozenset({3}))
    _verify_rejects(f, cl, bad, "exit condition violated at clause 0")


def test_verify_rejects_failed_good_variable_without_primary_clause():
    # variable 4 is failed and good, but only a secondary failed clause holds it
    f = Formula.from_ints(4, [[2, 3], [4]])
    cl = all_good_classification(f)
    trace = _isolated_v0_trace(f, cl)
    bad = replace(
        trace,
        v_failed=frozenset({1, 4}),
        v_coupled=frozenset({2, 3}),
        e_failed_dagger=frozenset({1}),
    )
    _verify_rejects(f, cl, bad, "failed good variable 4 not explained")


def test_verify_rejects_failed_variable_outside_failed_clauses():
    f = Formula.from_ints(4, [[2, 3]])
    cl = all_good_classification(f)
    trace = _isolated_v0_trace(f, cl)
    bad = replace(trace, v_failed=trace.v_failed | {4}, v_coupled=trace.v_coupled - {4})
    _verify_rejects(f, cl, bad, "failed variable 4 in no failed clause")


def test_verify_rejects_clause_split_between_regions():
    # with variable 2 bad, clause (2 or 3) has no open good variable once 3
    # fails, so the exit condition holds and only the split is wrong
    f = Formula.from_ints(3, [[2, 3]])
    cl = replace(
        all_good_classification(f),
        v_bad=frozenset({2}),
        v_good=frozenset({1, 3}),
        bad_components=(frozenset({2}),),
    )
    trace = _isolated_v0_trace(f, cl)
    bad = replace(trace, v_failed=frozenset({1, 3}), v_coupled=frozenset({2}))
    _verify_rejects(f, cl, bad, "clause 0 split between coupled and failed")


def test_verify_rejects_primary_failed_clauses_three_apart():
    # a path of clauses: 0 and 2 are at distance 2, 0 and 3 at distance 3
    f = Formula.from_ints(6, [[2, 3], [3, 4], [4, 5], [5, 6]])
    cl = all_good_classification(f)
    trace = _isolated_v0_trace(f, cl)
    verify_coupling_trace(f, cl, replace(trace, e_failed=frozenset({0, 2})))
    bad = replace(trace, e_failed=frozenset({0, 3}))
    _verify_rejects(f, cl, bad, "not 2-step connected")


def test_verify_rejects_unsatisfying_output():
    f = Formula.from_ints(3, [[2, 3]])
    cl = all_good_classification(f)
    trace = _isolated_v0_trace(f, cl)
    bad = replace(trace, x=(0, 0, 0), y=(1, 0, 0))
    _verify_rejects(f, cl, bad, "does not satisfy the formula")


def test_coupled_residual_check_rejects_differing_clause():
    from ksat.coupling import _assert_same_coupled_residual

    # X(1) = 0 leaves clause (1 or 2) open, Y(1) = 1 satisfies it, and no
    # variable of it failed, so one shared draw could not serve both
    f = Formula.from_ints(2, [[1, 2]])
    _assert_same_coupled_residual(f, 0b01, 0b00, 0b01, 0b01)
    with pytest.raises(AssertionError, match="coupled-region clause 0 differs"):
        _assert_same_coupled_residual(f, 0b01, 0b00, 0b01, 0b00)


@pytest.mark.parametrize("marked, bad", [({0, 1}, 0), ({1, 5}, 5)])
def test_entry_points_reject_marked_variables_out_of_range(marked, bad):
    f = Formula.from_ints(3, [[1, 2, 3]])
    cl = all_good_classification(f)
    m = Marking(frozenset(marked), 1, 1, certified=True)
    msg = f"marked variable {bad} out of range"
    for _ in range(2):  # the check stays on once the first run has failed
        with pytest.raises(UsageError, match=msg):
            run_coupling(f, cl, m, {}, v0=1, k_c=1, seed=0)
    with pytest.raises(UsageError, match=msg):
        coupling_influence_bound(f, cl, m, {}, v0=1, k_c=1, trials=3, seed=0)
    with pytest.raises(UsageError, match=msg):
        exact_influence_matrix(f, m, {})


def _tree_nodes(node):
    """Nodes and leaves of a reveal (sub)tree, counting what runs built."""
    if node is None:
        return 0
    return 1 + sum(_tree_nodes(kid) for kid in getattr(node, "kids", ()))


def test_reveal_store_is_bounded_and_dies_with_its_formula(monkeypatch):
    """Once a tree is warm, further runs add no node to it; the reveal store
    keeps at most _STORE_ENTRIES trees; and with the cycle collector off,
    dropping the formula frees the formula and its reveal store."""
    monkeypatch.setattr(marginals, "_STORE_ENTRIES", 5)
    f = generate_random_kcnf(9, 10, 3, seed=7)
    cl = all_good_classification(f, k=3)
    m = Marking(frozenset(range(1, 10)), 1, 1, certified=True)
    store = _reveal_store(f)
    rng = make_rng(3)
    for _ in range(2000):
        run_coupling(f, cl, m, {2: 1}, v0=1, k_c=1, seed=rng.getrandbits(63))
    tree = store(cl, m, 0b10, 0b10, 1, 1, DEFAULT_CAP)
    warm = _tree_nodes(tree.root)
    assert warm > 3
    for _ in range(1000):
        run_coupling(f, cl, m, {2: 1}, v0=1, k_c=1, seed=rng.getrandbits(63))
    assert _tree_nodes(tree.root) == warm

    for v0, k_c in itertools.product(range(1, 10), (1, 2)):
        try:
            run_coupling(f, cl, m, {}, v0=v0, k_c=k_c, seed=v0)
        except KsatError:
            pass
    info = store.cache_info()
    assert info.maxsize == 5 and info.currsize == 5 and info.misses > 5
    refs = weakref.ref(f), weakref.ref(store)
    gc.disable()
    try:
        del f, store, tree
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_reveal_trees_are_keyed_on_the_pinning_not_its_key_order():
    """Two orderings of one pinning give equal traces and share one tree."""
    f = generate_random_kcnf(8, 9, 4, seed=0)
    cl = all_good_classification(f)
    m = find_marking(f, 1, 1, seed=5)
    a, b, v0 = sorted(m.marked)[:3]
    first = run_coupling(f, cl, m, {a: 0, b: 1}, v0, 1, seed=3)
    second = run_coupling(f, cl, m, {b: 1, a: 0}, v0, 1, seed=3)
    assert first == second
    assert _reveal_store(f).cache_info().currsize == 1
