import gc
import itertools
import math
import re
import weakref

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksat import (
    CapExceededError,
    Formula,
    UsageError,
    enumerate_solutions,
    generate_random_kcnf,
    hamming,
    is_satisfying,
)
from ksat.classify import classify, default_delta, good_induced_formula
from ksat.geometry import (
    certify_loose,
    check_flippable_all,
    clause_coloring,
    extract_two_tree,
    greenblue_select,
    looseness_report,
    solution_graph,
    verify_dtree_membership,
    verify_two_tree,
)
from ksat.marginals import open_store
from ksat.marking import Marking, default_quotas, find_marking
from ksat.rng import make_rng
from ksat.sampler import SamplerConfig, run_block_dynamics


def trivial_marking(marked=()):
    return Marking(frozenset(marked), 0, 0, certified=True)


def test_certify_loose_isolated():
    f = Formula.from_ints(3, [[1, 2]])
    w = certify_loose(f, trivial_marking(), (1, 0, 0), 3)
    assert w.distance == 1
    assert w.assignment == (1, 0, 1)


def test_certify_loose_or_clause():
    # M = {x1}, sigma = 10, flip x1: component {x1,x2} re-solves to 01
    f = Formula.from_ints(2, [[1, 2]])
    m = Marking(frozenset({1}), 1, 1, certified=True)
    w = certify_loose(f, m, (1, 0), 1)
    assert w.assignment == (0, 1)
    assert w.distance == 2


def test_certify_loose_frozen_variable():
    f = Formula.from_ints(2, [[1], [1, 2]])
    m = trivial_marking()
    assert certify_loose(f, m, (1, 0), 1) is None


def test_witnesses_verified_on_random_suite():
    rng = make_rng(3003)
    for _ in range(8):
        f = generate_random_kcnf(10, 6, 3, seed=rng)
        sols = enumerate_solutions(f)
        if not sols:
            continue
        m = find_marking(f, 1, 1, seed=4)
        if not m.certified:
            continue
        sigma = sols[0]
        rep = looseness_report(f, m, sigma)
        for v, w in rep.witnesses.items():
            assert is_satisfying(f, w)
            assert w[v - 1] != sigma[v - 1]
            assert hamming(sigma, w) == rep.distances[v]


@pytest.mark.parametrize("n, m, k, seed", [(24, 7, 4, 3), (32, 9, 4, 5), (30, 4, 6, 7)])
def test_looseness_report_reuses_the_chain_schedules(n, m, k, seed):
    """After run_block_dynamics, every unmarked variable's flip reads the
    chain's extension schedule from the formula's store, so the report
    builds at most one schedule per marked variable."""
    f = generate_random_kcnf(n, m, k, seed=seed)
    cl = classify(f, default_delta(k, m / n), 0.3, k)
    mk = find_marking(
        good_induced_formula(f, cl, force=True), *default_quotas(k, 0.3), seed=seed,
        eligible=cl.v_good,
    )
    assert mk.certified and mk.marked
    sigma, _ = run_block_dynamics(f, mk, SamplerConfig(0.3, 20, seed))
    before = open_store(f).cache_info()
    rep = looseness_report(f, mk, sigma)
    after = open_store(f).cache_info()
    assert rep.distances
    assert after.misses - before.misses <= len(mk.marked)
    assert after.hits - before.hits >= n - len(mk.marked)


def test_looseness_report_empty_formula():
    f = Formula(4, ())
    rep = looseness_report(f, trivial_marking(), (0, 0, 0, 0))
    assert rep.ok
    assert set(rep.distances.values()) == {1}


def test_looseness_report_unique_solution():
    f = Formula.from_ints(2, [[1], [-2]])
    rep = looseness_report(f, trivial_marking(), (1, 0))
    assert not rep.ok
    assert {v for v, _ in rep.failures} == {1, 2}


def test_looseness_report_records_a_cap_below_a_component():
    """A component that needs more evaluations than the cap makes each of
    its variables a 'cap exceeded' failure; the report raises nothing, and
    at the component's 2^3 evaluations every variable is certified."""
    f = Formula.from_ints(3, [[1, 2, 3]])
    rep = looseness_report(f, trivial_marking(), (1, 0, 0), cap=7)
    assert not rep.distances
    assert [v for v, _ in rep.failures] == [1, 2, 3]
    assert all(reason.startswith("cap exceeded: ") for _, reason in rep.failures)
    rep = looseness_report(f, trivial_marking(), (1, 0, 0), cap=8)
    assert rep.ok and rep.distances == {1: 2, 2: 1, 3: 1}


def test_looseness_frozen_construction():
    # (x1) and (x1 v x2): x1 is frozen, x2 flips freely
    f = Formula.from_ints(2, [[1], [1, 2]])
    rep = looseness_report(f, trivial_marking(), (1, 0))
    assert [v for v, _ in rep.failures] == [1]
    assert rep.distances[2] == 1


def test_solution_graph_free_formula():
    f = Formula(2, ())
    s = solution_graph(f, 1)
    assert s.component_sizes == (4,)
    assert s.giant_fraction == 1.0


def test_solution_graph_split_then_joined():
    f = Formula.from_ints(2, [[1, 2], [-1, -2]])
    assert solution_graph(f, 1).component_sizes == (1, 1)
    assert solution_graph(f, 2).component_sizes == (2,)


def test_solution_graph_d0_isolates():
    f = Formula.from_ints(2, [[1, 2]])
    s = solution_graph(f, 0)
    assert s.component_sizes == (1, 1, 1)


def test_solution_graph_dn_single_component(monkeypatch):
    # at d >= n every pair is joined, so nothing is linked
    from ksat import geometry

    def refuse(*args, **kwargs):
        raise AssertionError("d >= n needs no linking")

    for name in ("_link_by_ball_search", "_link_all_pairs"):
        monkeypatch.setattr(geometry, name, refuse)
    rng = make_rng(17)
    for _ in range(5):
        f = generate_random_kcnf(9, 8, 3, seed=rng)
        sols = enumerate_solutions(f)
        if not sols:
            continue
        s = solution_graph(f, f.n)
        assert s.component_sizes == (len(sols),)


def test_solution_graph_strategies_agree():
    # the ball-search path (taken by solution_graph at d=1) must produce the
    # same partition as the all-pairs flood
    from ksat.formula import _solution_codes
    from ksat.geometry import _link_all_pairs

    f = generate_random_kcnf(10, 9, 3, seed=5)
    via_ball = solution_graph(f, 1).component_sizes

    labels = _link_all_pairs(_solution_codes(f), 1)
    via_pairs = tuple(sorted(np.unique(labels, return_counts=True)[1].tolist(), reverse=True))
    assert via_ball == via_pairs


def test_solution_graph_scale_clause_free():
    assert solution_graph(Formula(16, ()), 1).component_sizes == (65536,)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_solution_graph_scale_sparse(d):
    # 121,016 of 2^18 points, one component at every d: the ball search
    # stops after its weight-1 pass, where a full search at d = 4 would
    # look up about 5 x 10^8 candidates
    s = solution_graph(generate_random_kcnf(18, 12, 4, seed=3), d)
    assert s.component_sizes == (121016,)


@st.composite
def kcnf_distances(draw):
    """(random k-CNF on at most 10 variables, distance 0..n+1). Wide m and
    k = 1 make unsatisfiable formulas common; m = 0 gives the clause-free
    ones."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 4)))
    m = draw(st.integers(0, 3 * n))
    f = generate_random_kcnf(n, m, k, seed=draw(st.integers(0, 2**32)))
    return f, draw(st.integers(0, n + 1))


def hamming_partition(sols, d):
    """networkx components of the graph on sols joining pairs at Hamming
    distance <= d, as sorted lists of solution indices."""
    masks = [sum(bit << i for i, bit in enumerate(s)) for s in sols]
    g = nx.Graph()
    g.add_nodes_from(range(len(sols)))
    g.add_edges_from(
        (i, j)
        for i in range(len(sols))
        for j in range(i + 1, len(sols))
        if (masks[i] ^ masks[j]).bit_count() <= d
    )
    return sorted(sorted(c) for c in nx.connected_components(g))


def link_partition(labels):
    """The partition of solution indices that a linker's labels give."""
    groups = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return sorted(groups.values())


@settings(max_examples=150, deadline=None)
@given(kcnf_distances())
def test_solution_graph_matches_networkx_components(case):
    from ksat.formula import _solution_codes
    from ksat.geometry import _link_all_pairs, _link_by_ball_search

    f, d = case
    sols = enumerate_solutions(f)
    want = hamming_partition(sols, d)
    s = solution_graph(f, d)
    assert s.n_solutions == len(sols)
    assert list(s.component_sizes) == sorted(map(len, want), reverse=True)
    # both linkers, whichever one the crossover picks for this input; each
    # labels a component by its lowest index
    codes = _solution_codes(f)
    for labels in (_link_by_ball_search(f.n, codes, d), _link_all_pairs(codes, d)):
        assert link_partition(labels) == want
        assert all(labels[g[0]] == g[0] for g in want)


@st.composite
def kcnf_call_orders(draw):
    """(n, m, k, seed) of a random k-CNF on at most 10 variables, as
    kcnf_distances draws them, and 1-6 distances in 0..n+1, repeats and
    descents allowed."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 4)))
    m = draw(st.integers(0, 3 * n))
    order = draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=6))
    return n, m, k, draw(st.integers(0, 2**32)), order


@settings(max_examples=150, deadline=None)
@given(kcnf_call_orders())
# 35 solutions, split at D = 1 and 2: D = 2 and 3 flood past the crossover,
# D = 1 links by ball search, D = 10 >= n is one component
@example((9, 20, 3, 2, [10, 2, 0, 1, 3]))
# 115 solutions in 3 components at D = 1 and 2 at D = 2, asked above before
# below: D = 1 and 2 link by ball search, D = 3 floods
@example((10, 37, 4, 5, [2, 1, 0, 3]))
def test_solution_graph_answers_do_not_depend_on_the_call_order(case):
    """One formula asked at distances in any order answers each as networkx
    does, and as a fresh equal formula does cold."""
    n, m, k, seed, order = case
    f = generate_random_kcnf(n, m, k, seed=seed)
    sols = enumerate_solutions(f)
    for d in order:
        s = solution_graph(f, d)
        assert s == solution_graph(Formula(f.n, f.clauses), d)
        assert s.n_solutions == len(sols)
        assert list(s.component_sizes) == sorted(map(len, hamming_partition(sols, d)), reverse=True)


def test_warm_solution_graph_keeps_the_cold_contract():
    """A linked formula still checks its cap and distance as a cold one does,
    and with the cycle collector off, dropping it frees it and its store."""
    f = generate_random_kcnf(9, 20, 3, seed=2)
    cap = 2 ** (f.n - 1)
    with pytest.raises(CapExceededError) as cold:
        solution_graph(Formula(f.n, f.clauses), 1, cap=cap)
    assert solution_graph(f, 1).component_sizes != (35,)
    # no ExceptionInfo is kept for f: its traceback would hold f
    with pytest.raises(CapExceededError, match=f"^{re.escape(str(cold.value))}$"):
        solution_graph(f, 1, cap=cap)
    with pytest.raises(UsageError):
        solution_graph(f, -1)
    refs = weakref.ref(f), weakref.ref(f.__dict__["_solution_graphs"])
    gc.disable()
    try:
        del f
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", [5, 17, 29])
@pytest.mark.parametrize("d", [1, 2, 4, 10])
def test_link_all_pairs_swar_popcount_matches_bitwise_count(seed, d, monkeypatch):
    # numpy < 2 has no bitwise_count; the SWAR fallback must link the same pairs
    from ksat.formula import _solution_codes
    from ksat.geometry import _link_all_pairs

    codes = _solution_codes(generate_random_kcnf(10, 12, 3, seed=seed))
    want = _link_all_pairs(codes, d)
    monkeypatch.delattr(np, "bitwise_count")
    assert np.array_equal(_link_all_pairs(codes, d), want)


@pytest.mark.parametrize("seed", [5, 17, 29])
@pytest.mark.parametrize("d", [1, 2, 4, 10])
def test_link_by_ball_search_swar_popcount_matches_bitwise_count(seed, d, monkeypatch):
    # the rank lookup counts a word's codes with _popcount too
    from ksat.formula import _solution_codes
    from ksat.geometry import _link_by_ball_search

    codes = _solution_codes(generate_random_kcnf(10, 12, 3, seed=seed))
    want = _link_by_ball_search(10, codes, d)
    monkeypatch.delattr(np, "bitwise_count")
    assert np.array_equal(_link_by_ball_search(10, codes, d), want)


@pytest.mark.parametrize("chunk", [3, 40])
def test_ball_search_labels_do_not_depend_on_the_chunk(chunk, monkeypatch):
    # a chunk smaller than one weight's flips splits them as well as the rows
    from ksat import geometry
    from ksat.formula import _solution_codes

    codes = _solution_codes(generate_random_kcnf(9, 20, 3, seed=2))  # 35, split at d = 1, 2
    want = [geometry._link_by_ball_search(9, codes, d) for d in range(11)]
    assert len(np.unique(want[2])) > 1
    monkeypatch.setattr(geometry, "_EDGE_CHUNK", chunk)
    for d in range(11):
        assert np.array_equal(geometry._link_by_ball_search(9, codes, d), want[d])


def _reference_popcount(x):
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)


def _reference_ball_search(n, codes, d):
    """The ball search as it was before the rank index: every mask of
    weight 1..d at once, found by np.searchsorted, no early stop."""
    flips = np.array([sum(1 << b for b in c) for w in range(1, min(d, n) + 1)
                      for c in itertools.combinations(range(n), w)], dtype=np.uint64)
    label = np.arange(len(codes))
    rows = max(1, (1 << 18) // max(1, len(flips)))
    for start in range(0, len(codes), rows):
        near = (codes[start : start + rows, None] ^ flips).ravel()
        j = np.minimum(np.searchsorted(codes, near), len(codes) - 1)
        hit = np.nonzero(codes[j] == near)[0]
        i, j = hit // len(flips) + start, j[hit]
        i, j = i[i < j], j[i < j]
        while (apart := label[i] != label[j]).any():
            i, j = i[apart], j[apart]
            np.minimum.at(label, np.maximum(label[i], label[j]), np.minimum(label[i], label[j]))
            while not np.array_equal(up := label[label], label):
                label = up
    return label


def _reference_flood(codes, d):
    """The all-pairs flood as it was before the rank index, with a popcount
    that needs no numpy 2."""
    from ksat.formula import mask_groups

    class Balls:
        def __getitem__(self, i):
            near = _reference_popcount(codes ^ codes[i]) <= d
            return int.from_bytes(np.packbits(near, bitorder="little"), "little")

    label = np.empty(len(codes), dtype=np.int64)
    for group in mask_groups(Balls(), (1 << len(codes)) - 1):
        bits = np.frombuffer(group.to_bytes(len(codes) // 8 + 1, "little"), np.uint8)
        label[np.unpackbits(bits, count=len(codes), bitorder="little") == 1] = (
            (group & -group).bit_length() - 1
        )
    return label


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 14), st.sampled_from([3, 4]), st.data())
def test_linkers_match_the_searchsorted_ball_search_and_the_flood(n, k, data):
    """Both linkers give the reference labels, array for array, at every
    d in 0..n+1, on dense formulas (alpha up to 8) with many components at
    d = 1 and 2. The reference ball search, which never stops early, runs
    where it looks up at most 2^20 candidates; the reference flood runs
    everywhere."""
    from ksat.formula import _solution_codes
    from ksat.geometry import _link_all_pairs, _link_by_ball_search

    # alpha from 1 (k = 3) or 2 (k = 4) to below the satisfiability threshold
    m = data.draw(st.integers(n if k == 3 else 2 * n, 4 * n if k == 3 else 8 * n), "m")
    k = min(k, n)
    codes = _solution_codes(generate_random_kcnf(n, m, k, seed=data.draw(st.integers(0, 2**32))))
    for d in range(n + 2):
        want = _reference_flood(codes, d)
        ball = sum(math.comb(n, w) for w in range(1, min(d, n) + 1))
        if len(codes) * ball <= 1 << 20:
            assert np.array_equal(_reference_ball_search(n, codes, d), want)
        assert np.array_equal(_link_by_ball_search(n, codes, d), want)
        assert np.array_equal(_link_all_pairs(codes, d), want)


def test_flippable_or_clause():
    f = Formula.from_ints(2, [[1, 2]])
    res = check_flippable_all(f)
    assert res.all_flippable
    sigma, comp = res.nae_pair
    assert sigma == (0, 1) and comp == (1, 0)


def test_flippable_unit_clause_fallback():
    f = Formula.from_ints(2, [[1], [1, 2]])
    res = check_flippable_all(f)
    assert not res.all_flippable
    assert res.nae_pair is None
    assert res.unflippable == (1,)


def test_flippable_fallback_without_solutions():
    res = check_flippable_all(Formula.from_ints(3, [[1], [-1]]))
    assert (res.all_flippable, res.nae_pair, res.unflippable) == (False, None, (1, 2, 3))


def test_flippable_search_past_the_enumeration_oracle():
    """The NAE search has its own budget of cap (variable, value) trials,
    so n = 40 needs no 2^40 enumeration; a cap below the trials the search
    needs raises."""
    f = generate_random_kcnf(40, 8, 5, seed=0)
    res = check_flippable_all(f)
    assert res.all_flippable and all(is_satisfying(f, a) for a in res.nae_pair)
    assert check_flippable_all(f, cap=f.n).nae_pair == res.nae_pair
    with pytest.raises(CapExceededError):
        check_flippable_all(f, cap=f.n - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 12), st.integers(0, 2**32))
def test_flippable_search_finds_the_first_nae_assignment(n, m, seed):
    """The witness is the lexicographically first assignment giving every
    clause a true and a false literal, by brute force; with none, the
    solution fallback decides."""
    f = generate_random_kcnf(n, m, min(n, 3), seed=seed) if n else Formula(0, ())
    nae = next(
        (
            a
            for a in itertools.product((0, 1), repeat=n)
            if all(len({a[lit.var - 1] == lit.sign for lit in c}) == 2 for c in f.clauses)
        ),
        None,
    )
    res = check_flippable_all(f)
    if nae is not None:
        assert res.nae_pair == (nae, tuple(1 - b for b in nae))
    else:
        assert res.nae_pair is None


def test_flippable_low_density_suite():
    rng = make_rng(2718)
    for _ in range(10):
        f = generate_random_kcnf(12, 5, 4, seed=rng)
        res = check_flippable_all(f)
        assert res.all_flippable


def test_extract_two_tree_chain():
    # line graph chain c0 - c1 - c2: from root c0, the only clause at
    # distance exactly 2 is c2
    f = Formula.from_ints(5, [[1, 2], [2, 3], [3, 4]])
    t = extract_two_tree(f, {0, 1, 2}, root=0, target=2)
    assert t == frozenset({0, 2})
    assert verify_two_tree(f, t)


def test_extract_two_tree_trivial_targets():
    f = Formula.from_ints(4, [[1, 2], [2, 3], [3, 4]])
    assert extract_two_tree(f, {0, 1, 2}, root=1, target=1) == frozenset({1})
    assert extract_two_tree(f, {0}, root=0, target=1) == frozenset({0})


def test_extract_two_tree_rejects():
    from ksat import DomainError

    f = Formula.from_ints(5, [[1, 2], [2, 3], [4, 5]])
    with pytest.raises(UsageError):
        extract_two_tree(f, {0, 2}, root=0, target=1)  # disconnected b
    with pytest.raises(DomainError):
        # c0 and c1 are adjacent, so no 2-tree of size 2 exists in {c0, c1};
        # the stall happens above the guaranteed size and is a domain error
        extract_two_tree(f, {0, 1}, root=0, target=2)


def test_verify_two_tree_rejects_adjacent():
    f = Formula.from_ints(5, [[1, 2], [2, 3], [3, 4]])
    assert not verify_two_tree(f, {0, 1})
    # {0, 2} at distance 2: fine; {0} alone: fine
    assert verify_two_tree(f, {0, 2})
    assert verify_two_tree(f, {0})


def test_greenblue_all_green_path():
    n = 9
    vertices = list(range(n))
    edges = [(i, i + 1) for i in range(n - 1)]
    vcolor = {v: "green" for v in vertices}
    ecolor = {frozenset(e): "green" for e in edges}
    t = greenblue_select(vertices, edges, vcolor, ecolor, max_green_degree=2)
    assert len(t) >= (n + 2) // 3
    # independence in the green-edge subgraph
    for u, w in edges:
        assert not (u in t and w in t)


def test_greenblue_all_blue():
    vertices = [0, 1, 2]
    edges = [(0, 1), (1, 2)]
    vcolor = {v: "blue" for v in vertices}
    ecolor = {frozenset(e): "blue" for e in edges}
    t = greenblue_select(vertices, edges, vcolor, ecolor, max_green_degree=1)
    assert t == frozenset(vertices)


def test_greenblue_single_green_vertex():
    t = greenblue_select([7], [], {7: "green"}, {}, max_green_degree=1)
    assert t == frozenset({7})


def test_greenblue_hypothesis_violation():
    vertices = [0, 1]
    edges = [(0, 1)]
    vcolor = {0: "blue", 1: "green"}
    ecolor = {frozenset((0, 1)): "green"}
    with pytest.raises(UsageError):
        greenblue_select(vertices, edges, vcolor, ecolor, max_green_degree=2)


def test_greenblue_properties_on_mixed_graphs():
    rng = make_rng(444)
    built = 0
    for _ in range(40):
        f = generate_random_kcnf(40, 8, 4, seed=rng)
        cl = classify(f, delta=2, zeta=0.3, k=4)
        from ksat import clause_graph_components

        for comp in clause_graph_components(f):
            if len(comp) < 3:
                continue
            ids, edges, vcolor, ecolor = clause_coloring(f, cl, comp)
            greens = [c for c in ids if vcolor[c] == "green"]
            degree = max(
                (sum(1 for e in edges if c in e and ecolor[frozenset(e)] == "green") for c in greens),
                default=0,
            )
            try:
                t = greenblue_select(ids, edges, vcolor, ecolor, degree)
            except UsageError:
                continue
            built += 1
            # blue vertices all in, green part independent and large enough
            assert {c for c in ids if vcolor[c] == "blue"} <= t
            green_t = [c for c in t if vcolor[c] == "green"]
            for i, a in enumerate(green_t):
                for b2 in green_t[i + 1 :]:
                    assert ecolor.get(frozenset((a, b2))) != "green"
            if greens:
                assert len(green_t) >= len(greens) / (degree + 1)
            assert verify_dtree_membership(f, cl, t, b=2)
        if built >= 10:
            break
    assert built >= 10


def test_verify_dtree_membership_counterexamples():
    f = Formula.from_ints(4, [[1, 2], [2, 3], [3, 4]])
    cl = classify(f, delta=10, zeta=0.4, k=2)  # everything good
    assert not verify_dtree_membership(f, cl, {0, 1}, b=2)  # share good var
    assert verify_dtree_membership(f, cl, {0, 2}, b=2)
    assert verify_dtree_membership(f, cl, {0}, b=2)
    assert not verify_dtree_membership(f, cl, {}, b=2)


def test_paths_consistent_with_solution_graph():
    # every constructed path is a walk in the solution graph at its own max
    # step size, so consecutive entries must share a component there; with
    # every sampled pair connected, the giant must hold at least one pair
    from ksat.marking import find_marking
    from ksat.paths import find_path_bounded

    rng = make_rng(909)
    checked = 0
    for _ in range(10):
        f = generate_random_kcnf(10, 8, 4, seed=rng)
        sols = enumerate_solutions(f)
        if not 4 <= len(sols) <= 700:
            continue
        m = find_marking(f, 1, 1, seed=3)
        if not m.certified:
            continue
        pairs = [(sols[0], sols[-1]), (sols[1], sols[len(sols) // 2])]
        d_star = 0
        for a, b in pairs:
            p = find_path_bounded(f, m, a, b)
            d_star = max(d_star, p.max_step)
        if d_star == 0:
            continue
        summary = solution_graph(f, d_star)
        assert summary.component_sizes[0] >= 2
        # endpoints of each pair are d_star-connected by construction: a
        # component holding one endpoint holds the other, so no component
        # can separate them; verify via a direct union-find replay
        index = {s: i for i, s in enumerate(sols)}
        parent = list(range(len(sols)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, a in enumerate(sols):
            for j in range(i + 1, len(sols)):
                if hamming(a, sols[j]) <= d_star:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        for a, b in pairs:
            assert find(index[a]) == find(index[b])
        checked += 1
    assert checked >= 3
