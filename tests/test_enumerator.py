"""The one enumeration loop, formula._enumerate_local: against a
pure-Python brute force on raw clause masks and across chunk boundaries,
and through the two bit orders built on it (whole-formula codes with
variable v at bit n-v, and component masks with the i-th lowest variable
at bit i) under renaming variables and flipping the signs of one
variable."""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import Formula, InfeasiblePinningError, enumerate_solutions, generate_random_kcnf
from ksat import formula, marginals
from ksat.geometry import solution_graph
from ksat.marginals import exact_marginal


def brute_solutions(f):
    """Every assignment tuple checked literal by literal, in lexicographic
    order."""
    return [
        bits
        for bits in itertools.product((0, 1), repeat=f.n)
        if all(any((bits[lit.var - 1] == 1) == lit.sign for lit in c) for c in f.clauses)
    ]


def brute_marginal(f, x, v):
    """mu_v(1 | x) over the brute-force solutions, or None when x has no
    satisfying extension."""
    sols = [s for s in brute_solutions(f) if all(s[u - 1] == b for u, b in x.items())]
    if not sols:
        return None
    return Fraction(sum(s[v - 1] for s in sols), len(sols))


@st.composite
def raw_clause_sets(draw, max_vars):
    """(nvars, clauses): nvars in 0..max_vars and 0-8 disjoint (pos, neg)
    mask pairs over its bits, from the empty clause up to clauses on every
    bit, so that dense ones put 16 or more literals inside one chunk."""
    nvars = draw(st.integers(0, max_vars) | st.integers(max_vars - 3, max_vars))
    full = (1 << nvars) - 1
    lits = st.one_of(
        st.integers(0, full),
        st.just(full),
        st.integers(0, max(nvars - 1, 0)).map(lambda b: full & ~(1 << b)),
    )
    clauses = draw(st.lists(st.tuples(lits, st.integers(0, full)), max_size=8))
    return nvars, [(mask & signs, mask & ~signs) for mask, signs in clauses]


# the chunk loop runs 2^nvars / _ENUM_CHUNK times, so small chunks get small formulas
@pytest.mark.parametrize("chunk, max_vars", [(1, 11), (8, 14), (formula._ENUM_CHUNK, 20)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumerate_local_matches_a_brute_force(chunk, max_vars, data):
    """dtype, order and values of _enumerate_local against every candidate
    filtered clause by clause: it fails a clause when it has no bit of pos
    and every bit of neg."""
    nvars, clauses = data.draw(raw_clause_sets(max_vars))
    want = list(range(1 << nvars))
    for pos, neg in clauses:
        want = [x for x in want if x & pos or x & neg != neg]
    with mock.patch.object(formula, "_ENUM_CHUNK", chunk):
        got = formula._enumerate_local(nvars, clauses)
    assert got.dtype == np.uint64
    assert got.tolist() == want


CHUNKED = [
    pytest.param(Formula.from_ints(6, [[-1, -2, -3], [2, 4], [-5, 6, -4]]), id="negative-only"),
    pytest.param(Formula.from_ints(6, [[-3, -4, -5, -6], [-1, -6]]), id="negative-only-low"),
    pytest.param(Formula.from_ints(5, [[1, 2], [1, -2], [-1, 2], [-1, -2]]), id="unsatisfiable"),
    pytest.param(Formula.from_ints(6, [[5, 6], [5, -6], [-5, 6], [-5, -6]]), id="unsatisfiable-low"),
    pytest.param(Formula(0, ()), id="empty"),
    pytest.param(Formula(4, ()), id="clause-free"),
] + [
    pytest.param(generate_random_kcnf(n, m, 3, seed=seed), id=f"random-{n}-{m}-{seed}")
    for n, m, seed in ((7, 10, 1), (8, 14, 2), (9, 18, 3), (9, 30, 4))
]


@pytest.mark.parametrize("f", CHUNKED)
def test_enumeration_across_chunk_boundaries(f, monkeypatch):
    """With chunks of 8 candidates every formula above but the empty one
    spans several chunks. The solutions, [()] for the empty formula, and
    every exact marginal under no pinning and under each one-variable
    pinning match the brute force."""
    assert marginals._enumerate_local is formula._enumerate_local
    monkeypatch.setattr(formula, "_ENUM_CHUNK", 8)
    f = Formula(f.n, f.clauses)  # fresh solution and schedule stores

    assert enumerate_solutions(f) == brute_solutions(f)
    pinnings = [{}] + [{u: b} for u in range(1, f.n + 1) for b in (0, 1)]
    for x in pinnings:
        for v in range(1, f.n + 1):
            if v in x:
                continue
            want = brute_marginal(f, x, v)
            if want is None:
                with pytest.raises(InfeasiblePinningError):
                    exact_marginal(f, x, v)
            else:
                assert exact_marginal(f, x, v) == want


@st.composite
def renamed_cases(draw):
    """(formula on 1..10 variables with clauses of width 1..4, pinning,
    free variable, the formula renamed by a permutation of the
    variables, the permutation as a dict)."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 4)))
    f = generate_random_kcnf(n, draw(st.integers(0, 3 * n)), k, seed=draw(st.integers(0, 2**32)))
    perm = draw(st.permutations(range(1, n + 1)))
    rename = dict(zip(range(1, n + 1), perm))
    g = Formula.from_ints(
        n, [[rename[lit.var] if lit.sign else -rename[lit.var] for lit in c] for c in f.clauses]
    )
    pinned = draw(st.lists(st.integers(1, n), max_size=n - 1, unique=True))
    x = {u: draw(st.integers(0, 1)) for u in pinned}
    v = draw(st.sampled_from([u for u in range(1, n + 1) if u not in x]))
    return f, x, v, g, rename


def marginal_or_none(f, x, v):
    try:
        return exact_marginal(f, x, v)
    except InfeasiblePinningError:
        return None


@settings(max_examples=200, deadline=None)
@given(renamed_cases())
def test_renaming_variables_maps_solutions_marginals_and_components(case):
    f, x, v, g, rename = case
    inverse = {new: old for old, new in rename.items()}
    moved = sorted(tuple(s[inverse[u] - 1] for u in range(1, f.n + 1)) for s in enumerate_solutions(f))
    assert enumerate_solutions(g) == moved
    gx = {rename[u]: b for u, b in x.items()}
    assert marginal_or_none(g, gx, rename[v]) == marginal_or_none(f, x, v)
    for d in (1, 2):
        assert solution_graph(g, d).component_sizes == solution_graph(f, d).component_sizes


@st.composite
def flipped_cases(draw):
    """(formula, pinning, free variable v, variable w, the formula with
    the signs of w's literals flipped)."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 4)))
    f = generate_random_kcnf(n, draw(st.integers(0, 3 * n)), k, seed=draw(st.integers(0, 2**32)))
    w = draw(st.integers(1, n))
    g = Formula.from_ints(
        n, [[-lit.to_int() if lit.var == w else lit.to_int() for lit in c] for c in f.clauses]
    )
    pinned = draw(st.lists(st.integers(1, n), max_size=n - 1, unique=True))
    x = {u: draw(st.integers(0, 1)) for u in pinned}
    v = draw(st.sampled_from([u for u in range(1, n + 1) if u not in x]))
    return f, x, v, w, g


@settings(max_examples=200, deadline=None)
@given(flipped_cases())
def test_flipping_one_variable_maps_solutions_and_marginals(case):
    f, x, v, w, g = case
    flip = 1 << (f.n - w)
    codes = formula._solution_codes(f)
    assert formula._solution_codes(g).tolist() == sorted(int(c) ^ flip for c in codes)
    gx = {u: b ^ (u == w) for u, b in x.items()}
    p = marginal_or_none(f, x, v)
    q = marginal_or_none(g, gx, v)
    if v == w and p is not None:
        assert q == 1 - p
    else:
        assert q == p
    assert solution_graph(g, 1).component_sizes == solution_graph(f, 1).component_sizes

