"""Solution-space geometry: per-variable flip witnesses, the Hamming
solution graph, NAE-based flippability, and the 2-tree / green-blue
selectors with their independent verifiers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import CapExceededError, DomainError, UsageError
from .formula import (
    DEFAULT_ENUM_CAP,
    Formula,
    assignment_to_mask,
    bfs_distances,
    clause_graph_components,
    enumerate_solutions,
    hamming,
    is_satisfying,
    mask_groups,
    union_find,
)
from .marginals import DEFAULT_CAP, closest_solution
from .marking import Marking


@dataclass(frozen=True)
class FlipWitness:
    assignment: tuple
    distance: int


def certify_loose(
    f: Formula,
    m: Marking,
    cl,
    sigma,
    v: int,
    cap: int = DEFAULT_CAP,
):
    """Minimum-distance witness flipping v from sigma, or None.

    The pinning holds sigma on every marked variable other than v; only the
    connected component of v in the simplified formula may change. Bad
    variables are never marked, so the same pinning rule covers both the
    good and bad cases.
    """
    sigma = tuple(sigma)
    if not is_satisfying(f, sigma):
        raise UsageError("sigma does not satisfy the formula")
    if not 1 <= v <= f.n:
        raise UsageError(f"variable {v} out of range [1, {f.n}]")
    pin = {u: sigma[u - 1] for u in sorted(m.marked) if u != v}
    update = closest_solution(f, pin, v, 1 - sigma[v - 1], sigma, cap)
    if update is None:
        return None
    witness = list(sigma)
    for u, b in update.items():
        witness[u - 1] = b
    witness = tuple(witness)
    if not is_satisfying(f, witness):
        raise AssertionError("component flip broke satisfaction")
    return FlipWitness(witness, hamming(sigma, witness))


@dataclass(frozen=True)
class LoosenessReport:
    distances: dict  # variable -> flip distance (successes only)
    witnesses: dict  # variable -> witness assignment
    failures: tuple  # (variable, reason)

    @property
    def max_distance(self) -> int:
        return max(self.distances.values(), default=0)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema": "ksat/loose/v1",
            "max_distance": self.max_distance,
            "n_failures": len(self.failures),
            "failures": [[v, reason] for v, reason in self.failures],
            "distances": {str(v): d for v, d in sorted(self.distances.items())},
        }


def looseness_report(
    f: Formula, m: Marking, cl, sigma, cap: int = DEFAULT_CAP
) -> LoosenessReport:
    """certify_loose for every variable; failures recorded, never raised."""
    distances = {}
    witnesses = {}
    failures = []
    for v in range(1, f.n + 1):
        try:
            w = certify_loose(f, m, cl, sigma, v, cap=cap)
        except CapExceededError as exc:
            failures.append((v, f"cap exceeded: {exc}"))
            continue
        if w is None:
            failures.append((v, "no flip within the component"))
        else:
            distances[v] = w.distance
            witnesses[v] = w.assignment
    return LoosenessReport(distances, witnesses, tuple(failures))


@dataclass(frozen=True)
class SolutionGraphSummary:
    d: int
    component_sizes: tuple  # descending
    n_solutions: int

    @property
    def giant_fraction(self) -> float:
        if not self.n_solutions:
            return 0.0
        return self.component_sizes[0] / self.n_solutions

    def to_json(self) -> dict:
        return {
            "schema": "ksat/solgraph/v1",
            "D": self.d,
            "n_solutions": self.n_solutions,
            "component_sizes": list(self.component_sizes),
            "giant_fraction": self.giant_fraction,
        }


def solution_graph(f: Formula, d: int, cap: int = DEFAULT_ENUM_CAP) -> SolutionGraphSummary:
    """Connected components of the graph on all solutions with edges at
    Hamming distance <= d."""
    if d < 0:
        raise UsageError(f"distance threshold must be >= 0, got {d}")
    sols = enumerate_solutions(f, cap=cap)
    n_sols = len(sols)
    if n_sols == 0:
        return SolutionGraphSummary(d, (), 0)
    masks = [assignment_to_mask(s) for s in sols]
    ball = sum(math.comb(f.n, i) for i in range(1, min(d, f.n) + 1))
    if d == 0:
        groups = [[i] for i in range(n_sols)]
    elif n_sols * ball <= n_sols * n_sols:
        groups = _link_by_ball_search(f.n, masks, d)
    else:
        groups = _link_all_pairs(masks, d)
    sizes = tuple(sorted((len(g) for g in groups), reverse=True))
    return SolutionGraphSummary(d, sizes, n_sols)


def _link_by_ball_search(n, masks, d):
    """union_find groups of the solutions, linking each to every solution
    within distance d found by flipping up to d of its n bits."""
    index = {mask: i for i, mask in enumerate(masks)}

    def flips(mask, start, depth):
        if depth == 0:
            return
        for b in range(start, n):
            flipped = mask ^ (1 << b)
            yield flipped
            yield from flips(flipped, b + 1, depth - 1)

    def pairs():
        for i, mask in enumerate(masks):
            for other in flips(mask, 0, d):
                j = index.get(other)
                if j is not None and j > i:
                    yield i, j

    return union_find(len(masks), pairs())


def _link_all_pairs(masks, d):
    """union_find groups of the solutions, linking every pair within
    distance d by vectorized popcounts."""
    arr = np.array(masks, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        popcount = np.bitwise_count
    else:  # SWAR fallback
        def popcount(x):
            x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
            x = (x & np.uint64(0x3333333333333333)) + (
                (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
            )
            x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
            return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)

    def pairs():
        for i in range(len(masks) - 1):
            near = np.nonzero(popcount(arr[i + 1 :] ^ arr[i]) <= d)[0] + (i + 1)
            yield from zip(repeat(i), near.tolist())

    return union_find(len(masks), pairs())


@dataclass(frozen=True)
class FlippabilityResult:
    all_flippable: bool
    nae_pair: tuple | None  # (sigma, complement) when an NAE witness exists
    unflippable: tuple

    def to_json(self) -> dict:
        return {
            "schema": "ksat/flippable/v1",
            "all_flippable": self.all_flippable,
            "nae_witness": (
                ["".join(map(str, a)) for a in self.nae_pair] if self.nae_pair else None
            ),
            "unflippable": list(self.unflippable),
        }


def check_flippable_all(f: Formula, cap: int = DEFAULT_ENUM_CAP) -> FlippabilityResult:
    """Search for an assignment giving every clause a true and a false
    literal; it and its complement then witness that every variable is
    flippable. Falls back to a per-variable check over all solutions."""
    if f.n > cap:
        raise CapExceededError(
            f"search over n={f.n} variables exceeds cap {cap}", size=f.n
        )
    nae = _nae_search(f)
    if nae is not None:
        comp = tuple(1 - b for b in nae)
        for a in (nae, comp):
            if not is_satisfying(f, a):
                raise AssertionError("NAE witness does not satisfy the formula")
        return FlippabilityResult(True, (nae, comp), ())
    sols = enumerate_solutions(f, cap=cap)
    unflippable = []
    for v in range(1, f.n + 1):
        values = {s[v - 1] for s in sols}
        if values != {0, 1}:
            unflippable.append(v)
    return FlippabilityResult(not unflippable, None, tuple(unflippable))


def _nae_search(f: Formula):
    """First NAE-satisfying assignment in lexicographic order, or None.
    Backtracking over variables 1..n, value 0 before 1."""
    n = f.n
    lits = [tuple((lit.var, lit.sign) for lit in c) for c in f.clauses]
    state = [None] * (n + 1)

    def clause_ok(cid):
        true_seen = false_seen = False
        unassigned = 0
        for var, sign in lits[cid]:
            val = state[var]
            if val is None:
                unassigned += 1
            elif (val == 1) == sign:
                true_seen = True
            else:
                false_seen = True
        if unassigned == 0:
            return true_seen and false_seen
        # still satisfiable as NAE if not all assigned literals same-sided
        return unassigned + (1 if true_seen else 0) + (1 if false_seen else 0) >= 2

    occ = f._var_clauses

    def backtrack(v):
        if v > n:
            return True
        for b in (0, 1):
            state[v] = b
            if all(clause_ok(c) for c in occ[v]):
                if backtrack(v + 1):
                    return True
        state[v] = None
        return False

    if backtrack(1):
        return tuple(state[1:])
    return None


def extract_two_tree(f: Formula, b, root: int, target: int):
    """Greedy 2-tree inside clause set b: repeatedly add the lowest-id
    clause of b at line-graph distance exactly 2 from the current set."""
    b = set(b)
    if root not in b:
        raise UsageError(f"root clause {root} not in the candidate set")
    parts = clause_graph_components(f, "shared-any-var", 1, vertices=b)
    if len(parts) != 1:
        raise UsageError("candidate clause set is not connected in the line graph")
    if not 1 <= target <= len(b):
        raise UsageError(f"target must lie in [1, {len(b)}], got {target}")
    widths = [len(f.clause_vars(c)) for c in b]
    degs = [f.degree(v) for c in b for v in f.clause_vars(c)]
    # up to this size the greedy provably cannot stall; beyond it, stalls
    # are a legitimate "no such 2-tree found" outcome
    guaranteed = len(b) // (max(widths) * max(degs))

    ball1, ball2 = f._clause_ball1, f._clause_ball2
    b_mask = sum(1 << c for c in b)
    tree = {root}
    # clauses within distance 1 and 2 of the tree
    near1, near2 = ball1[root], ball2[root]
    while len(tree) < target:
        candidates = b_mask & near2 & ~near1
        if not candidates:
            if len(tree) < guaranteed:
                raise AssertionError(
                    "greedy 2-tree stalled below the guaranteed size "
                    f"{guaranteed}"
                )
            raise DomainError(
                f"greedy 2-tree stalled at size {len(tree)} before the "
                f"requested {target}"
            )
        c = (candidates & -candidates).bit_length() - 1
        tree.add(c)
        near1 |= ball1[c]
        near2 |= ball2[c]
    return frozenset(tree)


def verify_two_tree(f: Formula, tree) -> bool:
    """Property check: pairwise non-adjacent in the line graph, connected
    once distance-2 pairs are joined."""
    tree = set(tree)
    if not tree:
        return False
    mask = sum(1 << t for t in tree)
    ball1 = f._clause_ball1
    if any(ball1[t] & mask != 1 << t for t in tree):
        return False
    return len(mask_groups(f._clause_ball2, mask)) == 1


def greenblue_select(vertices, edges, vertex_color, edge_color, max_green_degree):
    """The constructive sweep behind the mixed-coloring selection.

    Input: a connected graph with green/blue vertices and edges such that
    blue vertices touch only blue edges and each green vertex touches at
    most max_green_degree green edges. Output: all blue vertices plus, per
    green-edge component, a maximal independent 2-tree, stitched through
    blue edges so the whole set is connected at distance <= 2.
    """
    vertices = sorted(vertices)
    vset = set(vertices)
    adj = {v: set() for v in vertices}
    green_adj = {v: set() for v in vertices}
    for u, w in edges:
        if u not in vset or w not in vset or u == w:
            raise UsageError(f"bad edge ({u}, {w})")
        color = edge_color[frozenset((u, w))]
        adj[u].add(w)
        adj[w].add(u)
        if color == "green":
            green_adj[u].add(w)
            green_adj[w].add(u)

    greens = {v for v in vertices if vertex_color[v] == "green"}
    blues = vset - greens
    for v in blues:
        if green_adj[v]:
            raise UsageError(f"blue vertex {v} touches a green edge")
    for v in greens:
        if len(green_adj[v]) > max_green_degree:
            raise UsageError(
                f"green vertex {v} exceeds the green-degree bound {max_green_degree}"
            )
    if vertices and len(_components(vset, adj)) != 1:
        raise UsageError("input graph is not connected")

    chosen = set(blues)
    # components of the subgraph induced on green vertices (any edge color)
    for comp in _components(greens, {v: adj[v] & greens for v in greens}):
        chosen.update(_sweep_green_component(comp, adj, green_adj))
    return frozenset(chosen)


def _components(vertices, adj):
    """Components of the graph adj on vertices (adj already restricted to
    them), in order of their smallest vertex."""
    seen = set()
    out = []
    for start in sorted(vertices):
        if start not in seen:
            comp = set(bfs_distances(adj, start))
            seen |= comp
            out.append(comp)
    return out


def _sweep_green_component(comp, adj, green_adj):
    """Active-component sweep over the green-edge pieces of one component
    of the green-vertex subgraph."""
    pieces = _components(comp, {v: green_adj[v] & comp for v in comp})
    piece_of = {}
    for i, piece in enumerate(pieces):
        for v in piece:
            piece_of[v] = i
    done = [False] * len(pieces)
    chosen = set()

    first = min(range(len(pieces)), key=lambda i: min(pieces[i]))
    chosen.update(_greedy_two_tree(min(pieces[first]), pieces[first], green_adj))
    done[first] = True

    remaining = len(pieces) - 1
    while remaining:
        pick = None
        # lowest (inactive-side, active-side) blue bridge into a fresh piece
        for v in sorted(comp):
            if done[piece_of[v]]:
                for w in sorted(adj[v] & comp):
                    if w not in green_adj[v] and not done[piece_of[w]]:
                        pick = (w, piece_of[w])
                        break
            if pick:
                break
        if pick is None:
            raise AssertionError("green component sweep lost connectivity")
        anchor, idx = pick
        chosen.update(_greedy_two_tree(anchor, pieces[idx], green_adj))
        done[idx] = True
        remaining -= 1
    return chosen


def _greedy_two_tree(anchor, piece, green_adj):
    """Maximal independent 2-tree of a green-edge component, grown from the
    anchor by repeatedly adding the lowest vertex at green-distance 2."""
    piece_adj = {v: green_adj[v] & piece for v in piece}
    tree = {anchor}
    while True:
        dist = {}
        for t in tree:
            for node, d in bfs_distances(piece_adj, t, limit=2).items():
                if node not in dist or d < dist[node]:
                    dist[node] = d
        candidates = sorted(
            v for v in piece if v not in tree and dist.get(v) == 2
        )
        if not candidates:
            return tree
        tree.add(candidates[0])


def verify_dtree_membership(f: Formula, cl, tree, b: int = 2) -> bool:
    """Both defining conditions of the distance-b independent clause sets:
    no two clauses of the set share a good variable, and the set is
    connected when clauses within distance b in the clause graph are
    adjacent."""
    tree = sorted(set(tree))
    if not tree:
        return False
    for i, c1 in enumerate(tree):
        for c2 in tree[i + 1 :]:
            shared = f.clause_vars(c1) & f.clause_vars(c2) & cl.v_good
            if shared:
                return False
    if len(tree) == 1:
        return True
    parts = clause_graph_components(f, "shared-any-var", b, vertices=tree)
    return len(parts) == 1


def clause_coloring(f: Formula, cl, clause_ids):
    """Color a clause set for greenblue_select: good clauses green, bad
    blue; an edge is green when the two clauses share a good variable,
    blue when they share only bad variables."""
    clause_ids = sorted(set(clause_ids))
    vertex_color = {
        c: ("green" if c in cl.c_good else "blue") for c in clause_ids
    }
    edges = []
    edge_color = {}
    for i, a in enumerate(clause_ids):
        for c in clause_ids[i + 1 :]:
            shared = f.clause_vars(a) & f.clause_vars(c)
            if not shared:
                continue
            edges.append((a, c))
            edge_color[frozenset((a, c))] = (
                "green" if shared & cl.v_good else "blue"
            )
    return clause_ids, edges, vertex_color, edge_color
