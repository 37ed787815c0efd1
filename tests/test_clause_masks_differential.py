"""classify, the marking search and the formula's graph helpers, which run
on the formula's clause bitmasks, against set-based reference copies built
on a per-variable occurrence list."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import Formula, clause_graph_components, connected_component
from ksat.classify import (
    Classification,
    _bad_threshold,
    bad_components,
    classify,
)
from ksat.errors import KsatError, UsageError
from ksat.formula import _ball_union, bit_positions, mask_groups
from ksat.marking import Marking, find_marking, verify_marking
from ksat.rng import rand_float


class SetView:
    """The set-based clause view: occurrences per variable, a frozenset per
    clause, and the clause masks derived from them."""

    def __init__(self, f):
        self.f = f
        occ = [[] for _ in range(f.n + 1)]
        for cid, clause in enumerate(f.clauses):
            for pos, lit in enumerate(clause):
                occ[lit.var].append((cid, pos))
        self.occ = occ
        self.vars = [frozenset(lit.var for lit in clause) for clause in f.clauses]
        self.by_var = [sum({1 << cid for cid, _ in entries}) for entries in occ]
        self.ball1 = []
        for clause in f.clauses:
            near = 0
            for lit in clause:
                near |= self.by_var[lit.var]
            self.ball1.append(near)

    def degree(self, v):
        return len(self.occ[v])


def ref_classify(view, delta, zeta, k):
    f = view.f
    if not 0 < zeta < 0.5:
        raise UsageError(f"zeta must lie in (0, 1/2), got {zeta}")
    if k < 1:
        raise UsageError(f"nominal width k must be >= 1, got {k}")
    thresh = _bad_threshold(zeta, k)
    if delta < 1:
        raise UsageError(f"delta must be >= 1, got {delta}")
    v_bad = {v for v in range(1, f.n + 1) if view.degree(v) >= delta}
    while True:
        c_bad = {
            cid
            for cid in range(f.m)
            if sum(1 for lit in f.clauses[cid] if lit.var in v_bad) >= thresh
        }
        grown = set(v_bad)
        for cid in c_bad:
            grown.update(view.vars[cid])
        if grown == v_bad:
            break
        v_bad = grown
    all_vars = frozenset(range(1, f.n + 1))
    cl = Classification(
        delta=delta,
        zeta=zeta,
        k=k,
        v_bad=frozenset(v_bad),
        v_good=all_vars - v_bad,
        c_bad=frozenset(c_bad),
        c_good=frozenset(range(f.m)) - frozenset(c_bad),
        bad_components=(),
    )
    return replace(cl, bad_components=bad_components(cl, f))


def ref_violations(view, marked, k_m, k_u):
    out = []
    for cid in range(view.f.m):
        vs = view.vars[cid]
        n_marked = len(vs & marked)
        if n_marked < k_m or len(vs) - n_marked < k_u:
            out.append(cid)
    return out


def ref_find_marking(view, k_m, k_u, p_mark, rng, max_resamples, eligible):
    f = view.f
    if k_m < 0 or k_u < 0:
        raise UsageError("quotas must be nonnegative")
    if max_resamples < 0:
        raise UsageError(f"max_resamples must be >= 0, got {max_resamples}")
    if p_mark is None:
        p_mark = k_m / (k_m + k_u) if k_m + k_u else 0.5
    if not 0.0 <= p_mark <= 1.0:
        raise UsageError(f"p_mark must lie in [0, 1], got {p_mark}")
    eligible_set = set(range(1, f.n + 1)) if eligible is None else set(eligible)
    for cid in range(f.m):
        vs = view.vars[cid]
        if len(vs) < k_m + k_u:
            raise UsageError(f"clause {cid} has width {len(vs)} < k_m + k_u = {k_m + k_u}")
        if len(vs & eligible_set) < k_m:
            raise UsageError(
                f"clause {cid} has only {len(vs & eligible_set)} eligible "
                f"variables, needs k_m = {k_m}"
            )
    marked = {v for v in range(1, f.n + 1) if v in eligible_set and rand_float(rng) < p_mark}
    budget = max_resamples
    while True:
        violating = ref_violations(view, marked, k_m, k_u)
        if not violating:
            return Marking(frozenset(marked), k_m, k_u, certified=True)
        if budget <= 0:
            return Marking(frozenset(marked), k_m, k_u, certified=False)
        budget -= 1
        for v in sorted(view.vars[violating[0]]):
            if v not in eligible_set:
                continue
            if rand_float(rng) < p_mark:
                marked.add(v)
            else:
                marked.discard(v)


def ref_connected_component(view, v):
    f = view.f
    clauses = view.by_var[v]
    if clauses:
        clauses = next(g for g in mask_groups(view.ball1, (1 << f.m) - 1) if g & clauses)
    seen_vars = {v}
    for cid in bit_positions(clauses):
        seen_vars |= view.vars[cid]
    return seen_vars, set(bit_positions(clauses))


def ref_clause_graph_components(view, adjacency, power, classification, vertices):
    f = view.f
    if adjacency == "shared-any-var":
        base = range(f.m)
        balls = view.ball1
    else:
        if adjacency == "shared-good-var":
            base, var_filter = classification.c_good, classification.v_good
        else:
            base, var_filter = classification.c_bad, classification.v_bad
        base_mask = sum(1 << cid for cid in base)
        balls = {}
        for cid in base:
            ball = 1 << cid
            for v in view.vars[cid] & var_filter:
                ball |= view.by_var[v] & base_mask
            balls[cid] = ball
    vertices = set(base if vertices is None else vertices)
    reach = {cid: balls[cid] for cid in vertices}
    for _ in range(power - 1):
        reach = {cid: _ball_union(balls, near) for cid, near in reach.items()}
    return [set(bit_positions(g)) for g in mask_groups(reach, sum(1 << cid for cid in reach))]


@st.composite
def formulas(draw):
    """Formulas on 1..14 variables with clauses of width 1..5, some of them
    repeated, and often variables in no clause."""
    n = draw(st.integers(1, 14))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 5), unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    clauses = draw(st.lists(clause, max_size=12))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=4))
        clauses = draw(st.permutations(clauses))
    return Formula.from_ints(n, clauses)


def outcome(call):
    """A call's result, or the type and message of the package error it
    raised."""
    try:
        return call()
    except KsatError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_incidence_and_classify_match_the_set_view(f, data):
    view = SetView(f)
    assert [f.degree(v) for v in range(f.n + 1)] == [view.degree(v) for v in range(f.n + 1)]
    assert [f.clause_vars(cid) for cid in range(f.m)] == view.vars
    assert list(f._var_clause_masks) == view.by_var
    assert list(f._clause_ball1) == view.ball1
    for v in range(1, f.n + 1):
        assert connected_component(f, v) == ref_connected_component(view, v)

    delta = data.draw(st.integers(0, 5), label="delta")
    zeta = data.draw(st.sampled_from([0.1, 0.3, 0.49, 0.5]), label="zeta")
    k = data.draw(st.integers(0, 5), label="k")
    assert outcome(lambda: classify(f, delta, zeta, k)) == outcome(
        lambda: ref_classify(view, delta, zeta, k)
    )


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_clause_graph_components_match_the_set_view(f, data):
    view = SetView(f)
    # a threshold of 2 or more lets good clauses hold bad variables
    k = data.draw(st.integers(1, 8), label="k")
    cl = classify(f, data.draw(st.integers(1, 4), label="delta"), 0.3, k)
    for adjacency, base in (
        ("shared-any-var", range(f.m)),
        ("shared-good-var", cl.c_good),
        ("shared-bad-var", cl.c_bad),
    ):
        subsets = st.sets(st.sampled_from(sorted(base))) if base else st.just(set())
        vertices = data.draw(st.one_of(st.none(), subsets), label=adjacency)
        for power in (1, 2):
            got = clause_graph_components(f, adjacency, power, cl, vertices)
            assert got == ref_clause_graph_components(view, adjacency, power, cl, vertices)


@settings(max_examples=400, deadline=None)
@given(formulas(), st.data())
def test_find_marking_matches_the_set_view(f, data):
    view = SetView(f)
    k_m = data.draw(st.integers(0, 2), label="k_m")
    k_u = data.draw(st.integers(0, 2), label="k_u")
    p_mark = data.draw(st.one_of(st.none(), st.floats(0, 1)), label="p_mark")
    max_resamples = data.draw(st.sampled_from([0, 1, 3, 50]), label="max_resamples")
    # eligible may name variables outside the formula, which are ignored
    eligible = data.draw(st.one_of(st.none(), st.sets(st.integers(-1, f.n + 2))), label="eligible")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = outcome(lambda: find_marking(f, k_m, k_u, p_mark, rng, max_resamples, eligible))
    want = outcome(
        lambda: ref_find_marking(view, k_m, k_u, p_mark, ref_rng, max_resamples, eligible)
    )
    assert got == want
    assert rng.getstate() == ref_rng.getstate()
    if isinstance(got, Marking):
        assert verify_marking(f, got) == ref_violations(view, got.marked, k_m, k_u)


@pytest.mark.parametrize("marked", [set(), {1}, {2, 3}, {1, 2, 3, 4}])
def test_verify_marking_matches_the_set_view(marked):
    f = Formula.from_ints(4, [[1, 2, -3], [2, -4], [1, 2, -3], [3]])
    view = SetView(f)
    for k_m, k_u in ((0, 0), (1, 1), (2, 1)):
        m = Marking(frozenset(marked), k_m, k_u, certified=False)
        assert verify_marking(f, m) == ref_violations(view, marked, k_m, k_u)
