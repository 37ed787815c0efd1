import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import (
    Formula,
    UsageError,
    CapExceededError,
    clause_graph_components,
    connected_component,
    emit_dimacs,
    enumerate_solutions,
    generate_random_kcnf,
    hamming,
    is_satisfying,
    parse_dimacs,
)
from ksat.rng import make_rng


def brute_solutions(f):
    """Independent oracle: check every assignment tuple literal by literal."""
    sols = []
    for bits in itertools.product((0, 1), repeat=f.n):
        ok = True
        for clause in f.clauses:
            if not any((bits[l.var - 1] == 1) == l.sign for l in clause):
                ok = False
                break
        if ok:
            sols.append(bits)
    return sols


def test_parse_basic():
    f = parse_dimacs("p cnf 2 1\n1 -2 0")
    assert f.n == 2 and f.m == 1
    assert [l.to_int() for l in f.clauses[0]] == [1, -2]


def test_parse_comments_and_multiline_clause():
    f = parse_dimacs("c hello\np cnf 3 1\n1 2\n3 0\n")
    assert f.m == 1
    assert [l.to_int() for l in f.clauses[0]] == [1, 2, 3]


def test_parse_bytes():
    f = parse_dimacs(b"p cnf 1 1\n1 0\n")
    assert f.n == 1 and f.m == 1


@pytest.mark.parametrize(
    "text",
    [
        "1 -2 0",  # missing header
        "p cnf x 1\n1 0",  # bad header ints
        "p dnf 2 1\n1 0",  # wrong format tag
        "p cnf 2 1\n3 0",  # literal out of range
        "p cnf 1 1\n1 1 0",  # duplicate variable in clause
        "p cnf 2 2\n1 0",  # clause count mismatch
        "p cnf 2 1\n1 2",  # unterminated clause
        "p cnf 2 1\n0",  # empty clause
    ],
)
def test_parse_rejects(text):
    with pytest.raises(UsageError):
        parse_dimacs(text)


def test_emit_round_trip():
    text = "c comment\np cnf 4 2\n1 -2 4 0\n-3 2 0\n"
    f = parse_dimacs(text)
    emitted = emit_dimacs(f)
    assert parse_dimacs(emitted) == f
    # emit is a fixpoint: canonical form survives a second round trip
    assert emit_dimacs(parse_dimacs(emitted)) == emitted


@st.composite
def small_formulas(draw, max_n=10):
    """Formulas on 0..max_n variables with signed clauses of width 1..4."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return Formula(0, ())
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 4), unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    return Formula.from_ints(n, draw(st.lists(clause, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(small_formulas())
def test_dimacs_round_trip_property(f):
    assert parse_dimacs(emit_dimacs(f)) == f


def test_emit_empty_formula():
    assert emit_dimacs(Formula(3, ())) == "p cnf 3 0\n"


def test_emit_single_clause_line():
    f = Formula.from_ints(2, [[1, -2]])
    assert emit_dimacs(f) == "p cnf 2 1\n1 -2 0\n"


def test_generate_empty_and_forced():
    f = generate_random_kcnf(3, 0, 3, seed=5)
    assert f.m == 0
    for seed in range(10):
        g = generate_random_kcnf(3, 1, 3, seed=seed)
        assert g.clause_vars(0) == {1, 2, 3}


def test_generate_rejects_wide_clause():
    with pytest.raises(UsageError):
        generate_random_kcnf(2, 1, 3, seed=0)


def test_generate_deterministic_and_well_formed():
    a = generate_random_kcnf(12, 30, 4, seed=99)
    b = generate_random_kcnf(12, 30, 4, seed=99)
    assert a == b
    for cid in range(a.m):
        assert len(a.clause_vars(cid)) == 4


def test_generate_clause_frequencies():
    # oracle: enumerate all possible clauses. n=4, k=2 gives 6 variable
    # pairs x 4 sign patterns = 24 equally likely outcomes.
    n, k, draws = 4, 2, 10**5
    outcomes = {
        tuple(v if s else -v for v, s in zip(pair, signs))
        for pair in itertools.combinations(range(1, n + 1), k)
        for signs in itertools.product((True, False), repeat=k)
    }
    assert len(outcomes) == 24

    rng = make_rng(2024)
    counts = {}
    f = generate_random_kcnf(n, draws, k, seed=rng)
    for clause in f.clauses:
        key = tuple(l.to_int() for l in clause)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == outcomes
    for key in outcomes:
        assert abs(counts.get(key, 0) / draws - 1 / 24) <= 0.005, key


def test_connected_component_examples():
    f = Formula.from_ints(4, [[1, 2], [3, 4]])
    assert connected_component(f, 1) == ({1, 2}, {0})

    chain = Formula.from_ints(3, [[1, 2], [2, 3]])
    assert connected_component(chain, 3) == ({1, 2, 3}, {0, 1})

    iso = Formula.from_ints(5, [[1, 2]])
    assert connected_component(iso, 5) == ({5}, set())


def test_connected_component_is_equivalence():
    f = generate_random_kcnf(10, 8, 3, seed=41)
    for u in range(1, 11):
        comp_u, _ = connected_component(f, u)
        for v in comp_u:
            comp_v, _ = connected_component(f, v)
            assert comp_v == comp_u


def test_clause_graph_components_basic():
    f = Formula.from_ints(4, [[1, 2], [3, 4]])
    assert clause_graph_components(f) == [{0}, {1}]

    ring = Formula.from_ints(5, [[1, 2], [2, 3], [4, 5], [5, 1]])
    assert clause_graph_components(ring) == [{0, 1, 2, 3}]


def test_clause_graph_power_uses_full_graph_distances():
    # c0-c1 share a var, c2 shares with c1 only: at power 2, c0 and c2 are
    # adjacent through c1 even when c1 is excluded from the vertex set.
    f = Formula.from_ints(5, [[1, 2], [2, 3], [3, 4]])
    parts = clause_graph_components(f, power=2, vertices={0, 2})
    assert parts == [{0, 2}]
    parts1 = clause_graph_components(f, power=1, vertices={0, 2})
    assert parts1 == [{0}, {2}]


def test_enumerate_solutions_examples():
    f = Formula.from_ints(2, [[1, 2]])
    assert enumerate_solutions(f) == [(0, 1), (1, 0), (1, 1)]

    empty = Formula(2, ())
    assert enumerate_solutions(empty) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    contradiction = Formula.from_ints(1, [[1], [-1]])
    assert enumerate_solutions(contradiction) == []


def test_enumerate_matches_oracle_and_is_satisfying():
    rng = make_rng(13)
    for _ in range(8):
        f = generate_random_kcnf(9, 12, 3, seed=rng)
        sols = enumerate_solutions(f)
        assert sols == brute_solutions(f)
        sol_set = set(sols)
        for bits in itertools.product((0, 1), repeat=f.n):
            assert is_satisfying(f, bits) == (bits in sol_set)


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_solutions(Formula(30, ()), cap=1 << 26)


def test_hamming():
    assert hamming((0, 1, 1), (0, 1, 1)) == 0
    assert hamming((0, 0, 0), (1, 1, 1)) == 3
    assert hamming((0, 1, 1), (0, 0, 1)) == 1
