"""Solution-space geometry: per-variable flip witnesses, the Hamming
solution graph, NAE-based flippability, and the 2-tree / green-blue
selectors with their independent verifiers.

Each formula enumerates its solutions for the solution graph once and links
each distance once: its _SolutionGraphs (kept in f.__dict__, dying with f)
holds the solution codes, the component sizes at each distance linked and
the least distance found to leave one component, which answers every
distance above it, since the components at D + 1 are unions of those at D.
A distance is linked by one of three paths, chosen by density: a flood of
the 2^n-point bitmap, which moves every point of a level at once, while
the solutions fill at least a tenth of the cube, then on what it leaves
the ball search while the radius-D ball is sparse among the solutions, and
the all-pairs flood past that."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapExceededError, DomainError, UsageError
from .formula import (
    DEFAULT_ENUM_CAP,
    Formula,
    _ball_union,
    _check_cap,
    _solution_codes,
    bit_positions,
    check_assignment,
    check_clause_ids,
    check_integer,
    check_variable,
    check_variables,
    clause_graph_components,
    is_satisfying,
    mask_groups,
    mask_to_assignment,
    satisfies_mask,
    var_mask,
)
from .marginals import DEFAULT_CAP, closest_solution
from .marking import Marking


@dataclass(frozen=True)
class FlipWitness:
    assignment: tuple
    distance: int


def certify_loose(f: Formula, m: Marking, sigma, v: int, cap: int = DEFAULT_CAP):
    """Minimum-distance witness flipping v from sigma, or None.

    The pinning holds sigma on every marked variable other than v; only the
    connected component of v in the simplified formula may change. Bad
    variables are never marked, so the same pinning rule covers both the
    good and bad cases.
    """
    ref, v = check_assignment(f, sigma, "sigma", solution=True), check_variable(f, v)
    return _flip_witness(f, check_variables(f, m.marked, "marked variable"), ref, v, cap)


def _flip_witness(f, marked: int, ref: int, v: int, cap: int):
    """certify_loose on masks: the marked variables and sigma."""
    dom = marked & ~(1 << (v - 1))
    update = closest_solution(f, dom, ref & dom, v, (ref >> (v - 1) & 1) ^ 1, ref, cap)
    if update is None:
        return None
    comp, vals = update
    witness = ref & ~comp | vals
    if not satisfies_mask(f, witness):
        raise AssertionError("component flip broke satisfaction")
    return FlipWitness(mask_to_assignment(witness, f.n), (ref ^ witness).bit_count())


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


def looseness_report(f: Formula, m: Marking, sigma, cap: int = DEFAULT_CAP) -> LoosenessReport:
    """certify_loose for every variable; failures recorded, never raised."""
    ref = check_assignment(f, sigma, "sigma", solution=True)
    marked = check_variables(f, m.marked, "marked variable")
    distances = {}
    witnesses = {}
    failures = []
    for v in range(1, f.n + 1):
        try:
            w = _flip_witness(f, marked, ref, v, cap)
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
    Hamming distance <= d.

    d >= n is one component, since two n-bit assignments differ in at most
    n bits. Below that, f's _SolutionGraphs answers a d it has linked from
    the sizes it recorded, and any d at or past the least distance found to
    leave one component as one component; other d are linked once: by the
    bitmap flood while the solutions fill at least a tenth of the 2^n
    points, and then, on the solutions it leaves, by ball search while the
    ball stays sparse and by the all-pairs flood past it."""
    if d < 0:
        raise UsageError(f"distance threshold must be >= 0, got {d}")
    _check_cap("formula", f.n, cap)
    graphs = f.__dict__.get("_solution_graphs")
    if graphs is None:
        graphs = f.__dict__["_solution_graphs"] = _SolutionGraphs(_solution_codes(f, cap=cap))
    return SolutionGraphSummary(d, graphs.sizes_at(f.n, d), graphs.count)


class _SolutionGraphs:
    """One formula's solution graphs: the ascending solution codes (dropped
    once no distance below the join is left to link), their count, the
    descending component sizes at each distance linked, and the least
    distance found to leave one component (None before). It holds no
    reference to the formula, whose __dict__ keeps it, so it dies with it."""

    __slots__ = ("codes", "count", "sizes", "joined", "__weakref__")

    def __init__(self, codes):
        self.codes, self.count, self.sizes = codes, len(codes), {}
        self.joined = 0 if self.count < 2 else None

    def sizes_at(self, n, d):
        """The descending component sizes at distance d."""
        if d >= n or (self.joined is not None and d >= self.joined):
            return (self.count,) if self.count else ()
        if not d:
            return (1,) * self.count
        if d not in self.sizes:
            self.sizes[d] = _component_sizes(n, self.codes, d)
            if len(self.sizes[d]) == 1:
                self.joined = d
            if self.joined is not None and all(w in self.sizes for w in range(1, self.joined)):
                self.codes = None
        return self.sizes[d]


def _component_sizes(n, codes, d):
    """The descending component sizes at distance d, 0 < d < n, of the
    ascending codes: the bitmap flood peels components while the codes are
    dense, and the rest go to the ball search while the ball is sparse
    among them, else to the all-pairs flood."""
    sizes = []
    if len(codes) >= _DENSE_SHARE * (1 << n):
        sizes, codes = _flood_dense(n, codes, d)
    if len(codes):
        ball = sum(math.comb(n, w) for w in range(1, d + 1))
        if ball * _SPARSE_RATIO <= len(codes):
            label = _link_by_ball_search(n, codes, d)
        else:
            label = _link_all_pairs(codes, d)
        counts = np.bincount(label)
        sizes += counts[counts > 0].tolist()
    return tuple(sorted(sizes, reverse=True))


# the bitmap flood runs while the codes fill at least this share of the 2^n
# points: over 180 random 3- to 5-CNFs at n = 12-20 and d = 1-3 (2 vCPUs) it
# took 0.04-1.03 of the crossover's time at shares of 10-15 % (the worst at
# n = 18-20), at most 0.62 of it past 15 %, and up to 7.7 times it below 5 %,
# where the ball search splits fragmented sets fastest
_DENSE_SHARE = 0.1


def _flood_dense(n, codes, d):
    """(sizes, rest): the sizes of the components peeled off the 2^n-point
    bitmap of the ascending codes, each the component of the lowest code
    left, found by a breadth-first search whose levels are the radius-d
    spread of the last level, cut to the codes not yet reached; and the
    ascending codes left once fewer codes than the bitmap's 64-bit words are
    left or the last component peeled had fewer, for the crossover to link.
    One spread step moves every point to its n neighbours at once through
    the n masks of the points with bit i clear, n x 2^n / 8 bytes in all.
    The hand-over follows direction-optimizing search, which switches
    between a sparse and a bit-parallel frontier by cost (Beamer, Asanovic
    and Patterson, SC 2012)."""
    words = max(1, (1 << n) >> 6)
    present = np.zeros(1 << n, dtype=bool)
    present[codes] = True
    left = int.from_bytes(np.packbits(present, bitorder="little").tobytes(), "little")
    steps = [(1 << i, z) for i, z in enumerate(_bit_clear_masks(n))]
    sizes = []
    while left.bit_count() >= words:
        frontier = left & -left
        left ^= frontier
        size = 0
        while frontier:
            size += frontier.bit_count()
            for _ in range(d):
                near = frontier
                for shift, clear in steps:
                    near |= (frontier & clear) << shift | (frontier >> shift) & clear
                frontier = near
            frontier &= left
            left ^= frontier
        sizes.append(size)
        if size < words:
            break
    if not left:
        return sizes, codes[:0]
    rest = np.frombuffer(left.to_bytes(max(1, (1 << n) >> 3), "little"), np.uint8)
    return sizes, np.flatnonzero(np.unpackbits(rest, bitorder="little")).astype(np.uint64)


def _bit_clear_masks(n):
    """For each bit i < n, the mask of the points of [0, 2^n) with bit i
    clear, a run of 2^i ones every 2^(i+1) bits, doubled up to 2^n bits."""
    masks = []
    for i in range(n):
        mask, period = (1 << (1 << i)) - 1, 2 << i
        while period < 1 << n:
            mask |= mask << period
            period <<= 1
        masks.append(mask)
    return masks


# the ball search runs while the ball holds at most 1/_SPARSE_RATIO of the S
# solutions handed to it: on 98 random 3- and 4-CNFs at n = 12-18 (2 vCPUs)
# it beat the all-pairs flood 1.2-34x wherever S >= 1.25 x ball, and lost by
# up to 2.5x below that. At n = 18, S = 121,016, d = 6 (3.9 x ball) it took
# 39 ms to the all-pairs flood's 17.6 s
_SPARSE_RATIO = 2
# candidate codes looked up per chunk of the ball search: 2^16 ran up to 3x
# faster than 2^18 at n = 16-18, whose 2 MB temporaries page-fault afresh
_EDGE_CHUNK = 1 << 16


def _link_by_ball_search(n, codes, d):
    """Component labels of the ascending solution codes (each the lowest
    index in its component), linking each code to every code found by
    flipping 1..d of its n bits, one weight at a time, until one component
    is left. A rank index (Jacobson, FOCS 1989) of 3 * 2^n / 16 bytes, a
    bitmap of the 2^n points and the count of codes before each 64-bit
    word, gives a candidate's row. Edges come in bounded chunks and are
    hooked into the labels as they come (Shiloach and Vishkin, J. Algorithms
    1982): labels only ever merge, so hooked edges stay joined."""
    bits = np.zeros(max(1, (1 << n) >> 6), dtype=np.uint64)
    # the codes are distinct, so adding their bits sets them
    np.add.at(bits, codes.view(np.int64) >> 6, np.uint64(1) << (codes & np.uint64(63)))
    before = np.zeros(len(bits) + 1, dtype=np.uint32)
    np.cumsum(_popcount(bits), out=before[1:])
    label = np.arange(len(codes))
    for w in range(1, min(d, n) + 1):
        weight = np.array([sum(1 << b for b in c) for c in combinations(range(n), w)], np.uint64)
        for flips in np.split(weight, range(_EDGE_CHUNK, len(weight), _EDGE_CHUNK)):
            rows = _EDGE_CHUNK // len(flips)
            for start in range(0, len(codes), rows):
                if not label.any():  # one component left
                    return label
                near = (block := codes[start : start + rows, None]) ^ flips
                word = near.view(np.int64) >> 6
                # a candidate's bit shifted to the top of its word is set when
                # the code is present, and its popcount counts the codes up to it
                top = bits[word] << (~near & np.uint64(63))
                hit = np.flatnonzero((top.view(np.int64) < 0) & (near > block))  # i < j
                j = (before[word.ravel()[hit]] + _popcount(top.ravel()[hit])).astype(np.intp) - 1
                i = hit // len(flips) + start
                while len(apart := np.flatnonzero(label[i] != label[j])):
                    i, j = i[apart], j[apart]
                    # hook the higher root of each edge to the lower, then shortcut
                    li, lj = label[i], label[j]
                    np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
                    while not np.array_equal(up := label[label], label):
                        label = up
    return label


def _link_all_pairs(codes, d):
    """Component labels as _link_by_ball_search gives them, from a mask
    flood that computes the closed neighbourhood of a row, by vectorized
    popcounts, only when it reaches that row."""
    label = np.empty(len(codes), dtype=np.int64)
    for group in mask_groups(_HammingBalls(codes, d), (1 << len(codes)) - 1):
        bits = np.frombuffer(group.to_bytes(len(codes) // 8 + 1, "little"), np.uint8)
        members = np.unpackbits(bits, count=len(codes), bitorder="little") == 1
        label[members] = (group & -group).bit_length() - 1
    return label


class _HammingBalls:
    """balls[i]: the mask of the rows of codes within distance d of row i."""

    def __init__(self, codes, d):
        self.codes, self.d = codes, d

    def __getitem__(self, i):
        near = _popcount(self.codes ^ self.codes[i]) <= self.d
        return int.from_bytes(np.packbits(near, bitorder="little"), "little")


def _popcount(x):
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    # SWAR fallback for numpy < 2
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


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
    flippable. Falls back to a per-variable check over all solutions. The
    search and the fallback each have cap evaluations: a (variable, value)
    the search tries counts as one, and the fallback needs 2^n."""
    cap = check_integer(cap, "cap")
    nae = _nae_search(f, cap)
    if nae is not None:
        comp = tuple(1 - b for b in nae)
        for a in (nae, comp):
            if not is_satisfying(f, a):
                raise AssertionError("NAE witness does not satisfy the formula")
        return FlippabilityResult(True, (nae, comp), ())
    # v flips iff its bit (n-v) is set in some solution and clear in another;
    # with no solutions the OR is 0 and no variable flips
    codes = _solution_codes(f, cap=cap)
    free = int(np.bitwise_or.reduce(codes) & ~np.bitwise_and.reduce(codes))
    unflippable = tuple(v for v in range(1, f.n + 1) if not free >> (f.n - v) & 1)
    return FlippabilityResult(not unflippable, None, unflippable)


def _nae_search(f: Formula, cap: int):
    """First NAE-satisfying assignment in lexicographic order, or None.
    Backtracking over variables 1..n, value 0 before 1; CapExceededError
    once it has tried more than cap (variable, value) pairs."""
    n = f.n
    clause_masks = f._clause_masks
    occ = [bit_positions(mask) for mask in f._var_clause_masks]

    def clause_ok(cid):
        # still NAE-satisfiable while the free literals and the assigned
        # sides number at least 2; val's bits outside dom are stale
        pos, neg = clause_masks[cid]
        ones, zeros = val & dom, dom & ~val
        free = ((pos | neg) & ~dom).bit_count()
        return free + bool(pos & ones | neg & zeros) + bool(pos & zeros | neg & ones) >= 2

    dom = val = 0
    tries = 0
    v, b = 1, 0  # the next (variable, value) to try
    while v <= n:
        if b == 2:  # both values of v failed: back up to the previous one
            dom &= ~(1 << (v - 1))
            v -= 1
            if not v:
                return None
            b = ((val >> (v - 1)) & 1) + 1
            continue
        tries += 1
        if tries > cap:
            raise CapExceededError(
                f"NAE search on {n} variables needs more than {cap} evaluations", size=n
            )
        bit = 1 << (v - 1)
        dom |= bit
        val = (val | bit) if b else (val & ~bit)
        if all(clause_ok(c) for c in occ[v]):
            v, b = v + 1, 0
        else:
            b += 1
    return mask_to_assignment(val, n)


def extract_two_tree(f: Formula, b, root: int, target: int):
    """Greedy 2-tree inside clause set b: repeatedly add the lowest-id
    clause of b at line-graph distance exactly 2 from the current set."""
    b = set(b)
    allowed = check_clause_ids(f, b)
    if root not in b:
        raise UsageError(f"root clause {root} not in the candidate set")
    if len(mask_groups(f._clause_ball1, allowed)) != 1:
        raise UsageError("candidate clause set is not connected in the line graph")
    if not 1 <= target <= len(b):
        raise UsageError(f"target must lie in [1, {len(b)}], got {target}")
    width = max(f._clause_var_masks[c].bit_count() for c in b)
    deg = max(f.degree(i + 1) for i in bit_positions(_ball_union(f._clause_var_masks, allowed)))
    # up to this size the greedy provably cannot stall; beyond it, stalls
    # are a legitimate "no such 2-tree found" outcome
    guaranteed = len(b) // (width * deg)

    tree = _grow_two_tree(f._clause_ball1, allowed, root, target)
    size = tree.bit_count()
    if size < target:
        if size < guaranteed:
            raise AssertionError(
                f"greedy 2-tree stalled below the guaranteed size {guaranteed}"
            )
        raise DomainError(
            f"greedy 2-tree stalled at size {size} before the requested {target}"
        )
    return frozenset(bit_positions(tree))


def _grow_two_tree(ball1, allowed: int, root: int, limit=None) -> int:
    """Greedy 2-tree under the closed neighbourhoods ball1 (masks): from
    root, repeatedly add the lowest id of the mask allowed at distance
    exactly 2 from the tree, until none is left or the tree holds limit
    ids. Returns the tree as a mask."""
    tree = 1 << root
    # ids within distance 1 and 2 of the tree
    near1 = ball1[root]
    near2 = _ball_union(ball1, near1)
    while limit is None or tree.bit_count() < limit:
        candidates = allowed & near2 & ~near1
        if not candidates:
            break
        low = candidates & -candidates
        tree |= low
        fresh = ball1[low.bit_length() - 1] & ~near1
        near1 |= fresh
        near2 |= _ball_union(ball1, fresh)
    return tree


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
    vertices = sorted(set(vertices))
    vset = set(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    # closed neighbourhoods as masks over the indices into vertices
    adj = [1 << i for i in range(len(vertices))]
    green_adj = list(adj)
    for u, w in edges:
        if u not in vset or w not in vset or u == w:
            raise UsageError(f"bad edge ({u}, {w})")
        color = edge_color[frozenset((u, w))]
        i, j = index[u], index[w]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        if color == "green":
            green_adj[i] |= 1 << j
            green_adj[j] |= 1 << i

    greens = {v for v in vertices if vertex_color[v] == "green"}
    blues = vset - greens
    for v in blues:
        if green_adj[index[v]] != 1 << index[v]:
            raise UsageError(f"blue vertex {v} touches a green edge")
    for v in greens:
        if green_adj[index[v]].bit_count() - 1 > max_green_degree:
            raise UsageError(
                f"green vertex {v} exceeds the green-degree bound {max_green_degree}"
            )
    if vertices and len(mask_groups(adj, (1 << len(vertices)) - 1)) != 1:
        raise UsageError("input graph is not connected")

    chosen = set(blues)
    # components of the subgraph induced on green vertices (any edge color)
    for comp in mask_groups(adj, sum(1 << index[v] for v in greens)):
        picked = _sweep_green_component(comp, adj, green_adj)
        chosen.update(vertices[i] for i in bit_positions(picked))
    return frozenset(chosen)


def _sweep_green_component(comp: int, adj, green_adj) -> int:
    """Active-component sweep over the green-edge pieces of one component
    (a mask) of the green-vertex subgraph; returns the chosen mask."""
    pieces = mask_groups(green_adj, comp)
    done = pieces[0]
    chosen = _grow_two_tree(green_adj, done, (done & -done).bit_length() - 1)
    while done != comp:
        # lowest (inactive-side, active-side) blue bridge into a fresh piece
        for v in bit_positions(done):
            fresh = adj[v] & comp & ~green_adj[v] & ~done
            if fresh:
                break
        else:
            raise AssertionError("green component sweep lost connectivity")
        anchor = (fresh & -fresh).bit_length() - 1
        piece = next(p for p in pieces if p >> anchor & 1)
        chosen |= _grow_two_tree(green_adj, piece, anchor)
        done |= piece
    return chosen


def verify_dtree_membership(f: Formula, cl, tree, b: int = 2) -> bool:
    """Both defining conditions of the distance-b independent clause sets:
    no two clauses of the set share a good variable, and the set is
    connected when clauses within distance b in the clause graph are
    adjacent."""
    ids = check_clause_ids(f, tree)
    if not ids:
        return False
    good = var_mask(cl.v_good)
    seen = 0
    for c in bit_positions(ids):
        mine = f._clause_var_masks[c] & good
        if mine & seen:
            return False
        seen |= mine
    return ids.bit_count() == 1 or len(clause_graph_components(
        f, "shared-any-var", b, vertices=bit_positions(ids))) == 1


def clause_coloring(f: Formula, cl, clause_ids):
    """Color a clause set for greenblue_select: good clauses green, bad
    blue; an edge is green when the two clauses share a good variable,
    blue when they share only bad variables."""
    clause_ids = sorted(set(clause_ids))
    vertex_color = {
        c: ("green" if c in cl.c_good else "blue") for c in clause_ids
    }
    masks = f._clause_var_masks
    good = var_mask(cl.v_good)
    edges = []
    edge_color = {}
    for i, a in enumerate(clause_ids):
        for c in clause_ids[i + 1 :]:
            shared = masks[a] & masks[c]
            if not shared:
                continue
            edges.append((a, c))
            edge_color[frozenset((a, c))] = "green" if shared & good else "blue"
    return clause_ids, edges, vertex_color, edge_color
