import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import (
    Formula,
    InfeasiblePinningError,
    CapExceededError,
    UsageError,
    enumerate_solutions,
    generate_random_kcnf,
)
from ksat.formula import assignment_to_mask, bit_positions, check_pinning
from ksat.marginals import (
    DEFAULT_CAP,
    check_local_uniformity,
    closest_solution,
    exact_marginal,
    plan_for,
    sample_conditional,
    tree_excess,
)
from ksat.marking import Marking
from ksat.rng import make_rng


def oracle_marginal(f, x, v):
    """Enumeration-derived conditional marginal, as an exact Fraction."""
    sols = [s for s in enumerate_solutions(f) if all(s[u - 1] == b for u, b in x.items())]
    if not sols:
        return None
    ones = sum(s[v - 1] for s in sols)
    return Fraction(ones, len(sols))


def tv(counts, expected, total):
    mass = sum(counts.values())
    d = sum(abs(c / total - p) for c, p in ((counts.get(k, 0), p) for k, p in expected.items()))
    d += (total - mass) / total  # anything outside the expected support
    return 0.5 * d


def test_exact_marginal_or_clause():
    f = Formula.from_ints(2, [[1, 2]])
    # oracle: solutions {01, 10, 11}, two of three have x1=1
    assert exact_marginal(f, {}, 1) == Fraction(2, 3)


def test_exact_marginal_isolated():
    f = Formula.from_ints(3, [[1, 2]])
    assert exact_marginal(f, {}, 3) == Fraction(1, 2)


def test_exact_marginal_forced():
    f = Formula.from_ints(2, [[1, 2]])
    assert exact_marginal(f, {2: 0}, 1) == Fraction(1)


def test_exact_marginal_errors():
    f = Formula.from_ints(2, [[1], [1, 2]])
    with pytest.raises(InfeasiblePinningError):
        exact_marginal(f, {1: 0}, 2)
    with pytest.raises(UsageError):
        exact_marginal(f, {2: 1}, 2)
    wide = generate_random_kcnf(12, 14, 3, seed=3)
    with pytest.raises(CapExceededError):
        exact_marginal(wide, {}, 1, cap=4)


def test_exact_marginal_matches_oracle_unconditioned():
    rng = make_rng(21)
    for _ in range(10):
        f = generate_random_kcnf(10, 14, 3, seed=rng)
        if not enumerate_solutions(f):
            continue
        for v in range(1, f.n + 1):
            assert exact_marginal(f, {}, v) == oracle_marginal(f, {}, v)


def test_exact_marginal_matches_oracle_under_pinnings():
    rng = make_rng(22)
    f = generate_random_kcnf(8, 10, 3, seed=rng)
    sols = enumerate_solutions(f)
    assert sols
    for dom in itertools.combinations(range(1, 9), 2):
        for bits in itertools.product((0, 1), repeat=2):
            x = dict(zip(dom, bits))
            want_feasible = any(
                all(s[u - 1] == b for u, b in x.items()) for s in sols
            )
            for v in range(1, 9):
                if v in x:
                    continue
                if want_feasible:
                    assert exact_marginal(f, x, v) == oracle_marginal(f, x, v)
                else:
                    with pytest.raises(InfeasiblePinningError):
                        exact_marginal(f, x, v)
                    break


@st.composite
def pinned_cases(draw):
    """(formula on at most 10 variables, pinning, a free variable v). Unit
    and short clauses make falsified clauses and empty components common."""
    n = draw(st.integers(1, 10))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 4), unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    f = Formula.from_ints(n, draw(st.lists(clause, max_size=12)))
    pinned = draw(st.lists(st.integers(1, n), max_size=n - 1, unique=True))
    x = {u: draw(st.integers(0, 1)) for u in pinned}
    v = draw(st.sampled_from([u for u in range(1, n + 1) if u not in x]))
    return f, x, v


def residual_oracle(f, x):
    """(first falsified clause id or None, components) of f under x, by
    sets: the clauses x leaves unsatisfied, cut to their free literals as
    (var, bit) pairs, grouped into connected components, each as (sorted
    variables, clauses), in ascending order of lowest variable."""
    comps = []
    for cid, clause in enumerate(f.clauses):
        if any(x.get(lit.var) == lit.sign for lit in clause):
            continue
        lits = [(lit.var, int(lit.sign)) for lit in clause if lit.var not in x]
        if not lits:
            return cid, []
        vs, clauses = {u for u, _ in lits}, [lits]
        for c in [c for c in comps if c[0] & vs]:
            comps.remove(c)
            vs |= c[0]
            clauses += c[1]
        comps.append((vs, clauses))
    return None, sorted(((sorted(vs), clauses) for vs, clauses in comps), key=lambda c: c[0])


def component_solutions_oracle(comp_vars, clauses):
    """Satisfying local masks of a component, ascending; bit i is the value
    of comp_vars[i]."""
    out = []
    for mask in range(1 << len(comp_vars)):
        val = {u: (mask >> i) & 1 for i, u in enumerate(comp_vars)}
        if all(any(val[u] == b for u, b in c) for c in clauses):
            out.append(mask)
    return out


@settings(max_examples=300, deadline=None)
@given(pinned_cases())
def test_exact_marginal_matches_enumeration_oracle(case):
    f, x, v = case
    want = oracle_marginal(f, x, v)
    if want is None:
        with pytest.raises(InfeasiblePinningError):
            exact_marginal(f, x, v)
    else:
        assert exact_marginal(f, x, v) == want


def expected_error(f, x, cap_vars):
    """(kind, detail) of the error raised on f under x with a cap of
    2^cap_vars evaluations, or None. A falsified clause comes first; then
    the components in ascending order of lowest variable, the first too
    large for the cap or without solutions deciding the error."""
    falsified, comps = residual_oracle(f, x)
    if falsified is not None:
        return InfeasiblePinningError, f"pinning falsifies clause {falsified}"
    for comp_vars, clauses in comps:
        if len(comp_vars) > cap_vars:
            return CapExceededError, len(comp_vars)
        if not component_solutions_oracle(comp_vars, clauses):
            return InfeasiblePinningError, f"component containing variable {comp_vars[0]} "
    return None


def assert_raises_as(error, call):
    kind, detail = error
    with pytest.raises(kind) as info:
        call()
    if kind is CapExceededError:
        assert info.value.size == detail
    else:
        assert str(info.value).startswith(detail)


def closest_from_pinning(f, x, v, want, reference, cap=DEFAULT_CAP):
    """closest_solution on the pinning x and the reference tuple, as masks,
    with its (component, values) masks read back as var -> bit."""
    hit = closest_solution(f, *check_pinning(f, x), v, want, assignment_to_mask(reference), cap)
    if hit is None:
        return None
    comp, vals = hit
    return {b + 1: (vals >> b) & 1 for b in bit_positions(comp)}


def closest_oracle(f, x, v, want, reference):
    """closest_solution by brute force over v's component, on a pinning
    with a satisfying extension."""
    comp = next((c for c in residual_oracle(f, x)[1] if v in c[0]), None)
    if comp is None:
        return {v: want}
    comp_vars, clauses = comp
    i = comp_vars.index(v)
    ref = sum(reference[u - 1] << j for j, u in enumerate(comp_vars))
    best = min(
        (
            ((s ^ ref).bit_count(), s)
            for s in component_solutions_oracle(comp_vars, clauses)
            if (s >> i) & 1 == want
        ),
        default=None,
    )
    return None if best is None else {u: (best[1] >> j) & 1 for j, u in enumerate(comp_vars)}


@settings(max_examples=300, deadline=None)
@given(pinned_cases(), st.integers(0, 10), st.integers(0, 1), st.data())
def test_exact_marginal_error_kinds(case, cap_vars, want, data):
    """exact_marginal and closest_solution raise by one rule (see
    expected_error) and otherwise match their oracles."""
    f, x, v = case
    reference = data.draw(st.tuples(*[st.integers(0, 1)] * f.n))
    cap = 1 << cap_vars
    calls = (
        (lambda: exact_marginal(f, x, v, cap=cap), lambda: oracle_marginal(f, x, v)),
        (
            lambda: closest_from_pinning(f, x, v, want, reference, cap),
            lambda: closest_oracle(f, x, v, want, reference),
        ),
    )
    error = expected_error(f, x, cap_vars)
    for call, oracle in calls:
        if error is None:
            assert call() == oracle()
        else:
            assert_raises_as(error, call)


@settings(max_examples=300, deadline=None)
@given(pinned_cases(), st.integers(0, 1), st.data())
def test_closest_solution_matches_brute_force(case, want, data):
    """The nearest solution of v's component with v = want; any residual
    component without solutions makes the pinning infeasible."""
    f, x, v = case
    reference = data.draw(st.tuples(*[st.integers(0, 1)] * f.n))
    error = expected_error(f, x, DEFAULT_CAP.bit_length() - 1)
    if error is not None:
        assert_raises_as(error, lambda: closest_from_pinning(f, x, v, want, reference))
    else:
        assert closest_from_pinning(f, x, v, want, reference) == closest_oracle(f, x, v, want, reference)


@settings(max_examples=200, deadline=None)
@given(pinned_cases(), st.integers(0, 10))
def test_plan_for_surface_read_by_bench_sweep(case, cap_vars):
    """bench/make_sweep.py (and through it bench/selftest.py) reads plan_for's
    .comps in ascending order of lowest variable, .max_comp_vars, and each
    component's .vars and .solutions(cap), with cap in evaluations, and
    counts a formula's solutions as 2^(uncovered variables) times the
    component counts."""
    f, x, _ = case
    falsified, comps = residual_oracle(f, x)
    plan = plan_for(f, *check_pinning(f, x))
    if falsified is not None:
        assert not plan.ok and plan.falsified_clause == falsified and plan.comps == ()
        return
    assert [c.vars for c in plan.comps] == [tuple(vs) for vs, _ in comps]
    assert plan.max_comp_vars == max((len(vs) for vs, _ in comps), default=0)
    for c, (comp_vars, clauses) in zip(plan.comps, comps):
        if len(comp_vars) > cap_vars:
            with pytest.raises(CapExceededError) as info:
                c.solutions(1 << cap_vars)
            assert info.value.size == len(comp_vars)
        else:
            got = c.solutions(1 << cap_vars).tolist()
            assert got == component_solutions_oracle(comp_vars, clauses)
    covered = {v for c in plan.comps for v in c.vars}
    count = 2 ** (f.n - len(x) - len(covered))
    for c in plan.comps:
        count *= len(c.solutions(DEFAULT_CAP))
    assert count == sum(
        all(s[u - 1] == b for u, b in x.items()) for s in enumerate_solutions(f)
    )


def test_factorization_across_components():
    f = Formula.from_ints(4, [[1, 2], [3, 4]])
    # conditioning inside one component leaves the other untouched
    assert exact_marginal(f, {3: 0}, 1) == exact_marginal(f, {}, 1)
    assert len(enumerate_solutions(f)) == 3 * 3


def test_sample_conditional_uniform_bit():
    f = Formula.from_ints(3, [[1, 2]])
    rng = make_rng(5)
    draws = [sample_conditional(f, {}, [3], rng)[3] for _ in range(2000)]
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_sample_conditional_matches_uniform_law():
    f = Formula.from_ints(2, [[1, 2]])
    rng = make_rng(17)
    counts = {}
    runs = 10**5
    for _ in range(runs):
        s = sample_conditional(f, {}, [1, 2], rng)
        key = (s[1], s[2])
        counts[key] = counts.get(key, 0) + 1
    expected = {(0, 1): 1 / 3, (1, 0): 1 / 3, (1, 1): 1 / 3}
    assert tv(counts, expected, runs) <= 0.01
    assert counts.get((0, 0), 0) == 0


def test_sample_conditional_product_on_free_targets():
    f = Formula.from_ints(4, [[1, 2]])
    rng = make_rng(23)
    counts = {}
    runs = 40_000
    for _ in range(runs):
        s = sample_conditional(f, {}, [3, 4], rng)
        counts[(s[3], s[4])] = counts.get((s[3], s[4]), 0) + 1
    for cell in itertools.product((0, 1), repeat=2):
        assert abs(counts.get(cell, 0) / runs - 0.25) < 0.02


def test_sample_conditional_composed_over_partition_is_uniform():
    rng = make_rng(31)
    f = generate_random_kcnf(8, 8, 3, seed=rng)
    sols = enumerate_solutions(f)
    assert len(sols) >= 2
    runs = 10**5
    counts = {}
    half = [1, 2, 3, 4]
    rest = [5, 6, 7, 8]
    for _ in range(runs):
        a = sample_conditional(f, {}, half, rng)
        b = sample_conditional(f, a, rest, rng)
        full = tuple((a | b)[v] for v in range(1, 9))
        counts[full] = counts.get(full, 0) + 1
    expected = {s: 1 / len(sols) for s in sols}
    assert tv(counts, expected, runs) <= 0.02


def test_local_uniformity_empty_formula():
    f = Formula(3, ())
    m = Marking(frozenset({1, 2}), 0, 0, certified=True)
    rep = check_local_uniformity(f, m, s=4, trials=50, seed=9)
    assert rep.worst == Fraction(1, 2)
    assert rep.ok


@pytest.mark.parametrize("trials", [0, -3])
def test_local_uniformity_rejects_trials_below_one(trials):
    f = Formula(3, ())
    m = Marking(frozenset({1, 2}), 0, 0, certified=True)
    with pytest.raises(UsageError, match="trials must be >= 1"):
        check_local_uniformity(f, m, s=4, trials=trials, seed=9)


def test_local_uniformity_or_clause_within_bound():
    # mu = 2/3 vs bound (1/2)e^(1/2) ~ 0.824
    f = Formula.from_ints(2, [[1, 2]])
    m = Marking(frozenset(), 0, 0, certified=True)
    rep = check_local_uniformity(f, m, s=2, trials=50, seed=10)
    assert rep.worst == Fraction(2, 3)
    assert rep.bound == pytest.approx(0.8243606353500641)
    assert rep.ok


def test_local_uniformity_unit_clause_violates():
    f = Formula.from_ints(1, [[1]])
    m = Marking(frozenset(), 0, 0, certified=True)
    rep = check_local_uniformity(f, m, s=2, trials=20, seed=11)
    assert not rep.ok
    assert rep.worst == Fraction(1)


def test_tree_excess():
    f = Formula.from_ints(4, [[1, 2, 3]])
    assert tree_excess(f, [0]) == 0

    shared2 = Formula.from_ints(3, [[1, 2], [1, 2]])
    assert tree_excess(shared2, [0, 1]) == 1

    chain = Formula.from_ints(5, [[1, 2], [2, 3], [3, 4, 5]])
    assert tree_excess(chain, [0, 1, 2]) == 0

    assert tree_excess(chain, []) == 0


def test_bad_variable_marginals_positive_under_all_marked_pinnings():
    # dense pocket {1,2,3,4} is bad; every bad variable keeps both values
    # available under every pinning of the marked set (checked exhaustively)
    from ksat.classify import classify, good_induced_formula
    from ksat.geometry import check_flippable_all
    from ksat.marking import find_marking

    clauses = [[1, 2, 3, 4]] * 3 + [
        [-1, 5, 6, 7],
        [5, 8, 9, -10],
        [7, 10, 11, 12],
        [-6, 9, 11, -12],
    ]
    f = Formula.from_ints(12, clauses)
    cl = classify(f, delta=3, zeta=0.3, k=4)
    assert cl.v_bad == frozenset({1, 2, 3, 4})
    assert check_flippable_all(f).all_flippable
    good = good_induced_formula(f, cl, force=True)
    m = find_marking(good, 1, 2, seed=2, eligible=cl.v_good)
    assert m.certified and m.marked
    marked = sorted(m.marked)
    for bits in itertools.product((0, 1), repeat=len(marked)):
        x = dict(zip(marked, bits))
        for v in sorted(cl.v_bad):
            p = exact_marginal(f, x, v)
            assert 0 < p < 1, (x, v, p)


def test_local_uniformity_flags_a_forced_variable():
    # x1 = 0 in every solution: mu_1(1) = 0, so max(p, 1 - p) = 1 > bound
    f = Formula.from_ints(1, [[-1]])
    rep = check_local_uniformity(f, Marking(frozenset(), 0, 0, True), s=4, trials=5, seed=1)
    assert rep.worst == 1
    assert rep.violations and all(p == 0 for _, _, p in rep.violations)
    assert not rep.ok


def test_local_uniformity_flags_an_or_clause_marginal_just_over_the_bound():
    # (x1 or x2): each variable is 1 in 2 of the 3 solutions, and
    # 2/3 > (1/2) e^(1/4) = 0.642
    f = Formula.from_ints(2, [[1, 2]])
    rep = check_local_uniformity(f, Marking(frozenset(), 0, 0, True), s=4, trials=5, seed=1)
    assert rep.bound == pytest.approx(0.642, abs=1e-3)
    assert rep.worst == Fraction(2, 3)
    assert len(rep.violations) == 5
    assert not rep.ok
