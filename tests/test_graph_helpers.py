"""The shared grouping helpers (union-find, the mask flood), the 2-tree
grower, and the clause-graph components built on them, against networkx as
an independent oracle."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import Formula, clause_graph_components
from ksat.classify import Classification
from ksat.errors import DomainError, UsageError
from ksat.formula import bit_positions, mask_groups, union_find
from ksat.geometry import _grow_two_tree, extract_two_tree, verify_two_tree
from ksat.marginals import tree_excess


@st.composite
def graphs(draw, max_nodes=20):
    """(node count, undirected edge list) on the nodes 0..size-1."""
    size = draw(st.integers(0, max_nodes))
    if size == 0:
        return 0, []
    node = st.integers(0, size - 1)
    return size, draw(st.lists(st.tuples(node, node), max_size=3 * size))


def nx_graph(size, edges):
    g = nx.Graph()
    g.add_nodes_from(range(size))
    g.add_edges_from(edges)
    return g


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_union_find_matches_networkx_components(graph):
    size, edges = graph
    groups = union_find(size, iter(edges))
    assert sorted(map(sorted, groups)) == sorted(
        map(sorted, nx.connected_components(nx_graph(size, edges)))
    )
    assert all(g == sorted(g) for g in groups)
    assert [g[0] for g in groups] == sorted(g[0] for g in groups)


def closed_balls(size, edges):
    """Per node, the mask of itself and its neighbours."""
    balls = [1 << u for u in range(size)]
    for a, b in edges:
        balls[a] |= 1 << b
        balls[b] |= 1 << a
    return balls


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_mask_groups_match_networkx_components(graph, data):
    """The flood restricted to an id subset finds the components of the
    induced subgraph, in order of their lowest id."""
    size, edges = graph
    ids = data.draw(st.sets(st.integers(0, size - 1)) if size else st.just(set()))
    want = sorted(map(sorted, nx.connected_components(nx_graph(size, edges).subgraph(ids))))
    groups = mask_groups(closed_balls(size, edges), sum(1 << u for u in ids))
    assert [bit_positions(g) for g in groups] == want


@st.composite
def formulas(draw):
    n = draw(st.integers(1, 10))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 3), unique=True)
    return Formula.from_ints(n, draw(st.lists(clause, max_size=12)))


def line_graph(f):
    g = nx.Graph()
    g.add_nodes_from(range(f.m))
    for a in range(f.m):
        for b in range(a + 1, f.m):
            if f.clause_vars(a) & f.clause_vars(b):
                g.add_edge(a, b)
    return g


@settings(max_examples=300, deadline=None)
@given(formulas(), st.integers(1, 4), st.data())
def test_clause_graph_components_match_line_graph_power(f, power, data):
    """Components of the power-th power of the line graph, induced on a
    vertex subset: distances count in the whole line graph."""
    vertices = data.draw(st.sets(st.integers(0, f.m - 1)) if f.m else st.just(set()))
    powered = nx.power(line_graph(f), power) if f.m else nx.Graph()
    want = sorted(map(sorted, nx.connected_components(powered.subgraph(vertices))))
    got = clause_graph_components(f, "shared-any-var", power, vertices=vertices)
    assert sorted(map(sorted, got)) == want
    assert [min(part) for part in got] == sorted(min(part) for part in got)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_clause_ball2_masks_match_line_graph_distances(f):
    g = line_graph(f)
    for c in range(f.m):
        near = nx.single_source_shortest_path_length(g, c, cutoff=2)
        assert f._clause_ball2[c] == sum(1 << d for d in near)
        assert f._clause_ball1[c] == sum(1 << d for d, dist in near.items() if dist <= 1)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_two_step_flood_matches_clause_graph_components(f, data):
    """The flood over the distance-2 masks that the coupling check runs
    finds the parts of clause_graph_components(power=2)."""
    if not f.m:
        return
    vertices = data.draw(st.sets(st.integers(0, f.m - 1), min_size=1))
    parts = clause_graph_components(f, "shared-any-var", 2, vertices=vertices)
    groups = mask_groups(f._clause_ball2, sum(1 << c for c in vertices))
    assert [set(bit_positions(g)) for g in groups] == parts


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_tree_excess_matches_networkx_incidence_graph(f, data):
    clause_ids = data.draw(st.sets(st.integers(0, f.m - 1)) if f.m else st.just(set()))
    incidence = nx.Graph()
    incidence.add_nodes_from(("c", c) for c in clause_ids)
    incidence.add_edges_from((("c", c), ("v", v)) for c in clause_ids for v in f.clause_vars(c))
    want = (
        incidence.number_of_edges()
        - incidence.number_of_nodes()
        + nx.number_connected_components(incidence)
    )
    assert tree_excess(f, clause_ids) == want


@st.composite
def partitions(draw, f):
    """A split of the variables and clauses into good and bad parts; the
    graph helpers read only these four sets, so they need not come from a
    fixed point of the contamination process."""
    v_bad = frozenset(draw(st.sets(st.integers(1, f.n))))
    c_bad = frozenset(draw(st.sets(st.integers(0, f.m - 1)))) if f.m else frozenset()
    return Classification(
        delta=1, zeta=0.3, k=3,
        v_bad=v_bad, v_good=frozenset(range(1, f.n + 1)) - v_bad,
        c_bad=c_bad, c_good=frozenset(range(f.m)) - c_bad,
        bad_components=(),
    )


def mode_line_graph(f, clauses, variables):
    """The clauses joined when they share one of the variables: the
    projection onto the clauses of their bipartite incidence graph."""
    incidence = nx.Graph()
    incidence.add_nodes_from(("c", c) for c in clauses)
    incidence.add_edges_from(
        (("c", c), ("v", v)) for c in clauses for v in f.clause_vars(c) & variables
    )
    projected = nx.bipartite.projected_graph(incidence, [("c", c) for c in clauses])
    return nx.relabel_nodes(projected, {("c", c): c for c in clauses})


@settings(max_examples=300, deadline=None)
@given(
    formulas(), st.sampled_from(["shared-good-var", "shared-bad-var"]), st.integers(1, 3), st.data()
)
def test_good_and_bad_var_components_match_mode_line_graph_power(f, mode, power, data):
    cl = data.draw(partitions(f))
    if mode == "shared-good-var":
        clauses, variables = cl.c_good, cl.v_good
    else:
        clauses, variables = cl.c_bad, cl.v_bad
    subsets = st.sets(st.sampled_from(sorted(clauses))) if clauses else st.nothing()
    vertices = data.draw(st.none() | subsets)
    powered = nx.power(mode_line_graph(f, clauses, variables), power) if clauses else nx.Graph()
    induced = powered.subgraph(clauses if vertices is None else vertices)
    want = sorted(map(sorted, nx.connected_components(induced)))
    got = clause_graph_components(f, mode, power, cl, vertices=vertices)
    assert sorted(map(sorted, got)) == want
    assert [min(part) for part in got] == sorted(min(part) for part in got)
    outside = set(range(f.m)) - clauses
    if outside:
        with pytest.raises(UsageError):
            clause_graph_components(f, mode, power, cl, vertices={min(outside)})


def greedy_two_tree(g, b, root, target):
    """The greedy of extract_two_tree on networkx distances: the largest
    tree it reaches inside b, up to target nodes."""
    tree = {root}
    while len(tree) < target:
        dist = {}
        for t in tree:
            for c, d in nx.single_source_shortest_path_length(g, t, cutoff=2).items():
                dist[c] = min(d, dist.get(c, d))
        candidates = sorted(c for c in b if dist.get(c) == 2)
        if not candidates:
            break
        tree.add(candidates[0])
    return tree


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_grow_two_tree_matches_networkx_greedy(graph, data):
    """The grower on arbitrary graphs, inside an arbitrary allowed set, with
    and without a size limit."""
    size, edges = graph
    if size == 0:
        return
    allowed = data.draw(st.sets(st.integers(0, size - 1)))
    root = data.draw(st.integers(0, size - 1))
    limit = data.draw(st.none() | st.integers(1, size))
    want = greedy_two_tree(nx_graph(size, edges), allowed, root, limit or math.inf)
    got = _grow_two_tree(closed_balls(size, edges), sum(1 << u for u in allowed), root, limit)
    assert bit_positions(got) == sorted(want)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_extract_two_tree_matches_networkx_greedy(f, data):
    if not f.m:
        return
    g = line_graph(f)
    b = data.draw(st.sampled_from(sorted(map(sorted, nx.connected_components(g)))))
    root = data.draw(st.sampled_from(b))
    target = data.draw(st.integers(1, len(b)))
    want = greedy_two_tree(g, b, root, target)
    if len(want) == target:
        assert extract_two_tree(f, b, root, target) == want
        assert verify_two_tree(f, want)
        return
    widest = max(len(f.clause_vars(c)) for c in b)
    busiest = max(f.degree(v) for c in b for v in f.clause_vars(c))
    error = AssertionError if len(want) < len(b) // (widest * busiest) else DomainError
    with pytest.raises(error, match="stalled (at|below)"):
        extract_two_tree(f, b, root, target)
    if error is DomainError:
        with pytest.raises(DomainError, match=f"at size {len(want)} "):
            extract_two_tree(f, b, root, target)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_extract_two_tree_rejects_bad_input(f, data):
    if not f.m:
        return
    b = data.draw(st.sets(st.integers(0, f.m - 1), min_size=1))
    root = data.draw(st.integers(0, f.m - 1))
    target = data.draw(st.integers(0, len(b) + 1))
    connected = nx.is_connected(line_graph(f).subgraph(b))
    if root in b and connected and 1 <= target <= len(b):
        return
    with pytest.raises(UsageError):
        extract_two_tree(f, b, root, target)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_verify_two_tree_matches_networkx(f, data):
    tree = data.draw(st.sets(st.integers(0, f.m - 1)) if f.m else st.just(set()))
    g = line_graph(f)
    want = (
        bool(tree)
        and not any(g.has_edge(a, c) for a in tree for c in tree)
        and nx.is_connected(nx.power(g, 2).subgraph(tree))
    )
    assert verify_two_tree(f, tree) == want
