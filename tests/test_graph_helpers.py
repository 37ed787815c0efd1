"""The shared union-find and BFS helpers, and the clause-graph components
built on them, against networkx as an independent oracle."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import Formula, clause_graph_components
from ksat.coupling import _two_step_connected
from ksat.formula import bfs_distances, union_find


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


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_bfs_distances_match_networkx(graph, data):
    size, edges = graph
    if size == 0:
        return
    source = data.draw(st.integers(0, size - 1))
    limit = data.draw(st.none() | st.integers(0, 4))
    g = nx_graph(size, edges)
    neighbors = {u: set(g[u]) for u in g}
    want = nx.single_source_shortest_path_length(g, source, cutoff=limit)
    assert bfs_distances(neighbors, source, limit) == want


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


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_two_step_flood_matches_clause_graph_components(f, data):
    """The coupling check's flood over the distance-2 masks joins a clause
    set exactly when clause_graph_components(power=2) finds one part."""
    if not f.m:
        return
    vertices = data.draw(st.sets(st.integers(0, f.m - 1), min_size=1))
    parts = clause_graph_components(f, "shared-any-var", 2, vertices=vertices)
    assert _two_step_connected(f, sum(1 << c for c in vertices)) == (len(parts) == 1)
