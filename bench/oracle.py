"""Reference computations the benchmark checks `ksat` against.

Nothing here imports `ksat`: formulas are lists of signed-int clauses,
assignments are tuples of 0/1 (variable v at index v-1) or int bitmasks
(variable v at bit v-1). Every check in the benchmark compares a program
output with a value computed here.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np


def _below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) by rejection on the minimal bit width."""
    if n == 1:
        return 0
    width = (n - 1).bit_length()
    while True:
        r = rng.getrandbits(width)
        if r < n:
            return r


def gen_kcnf(n: int, m: int, k: int, seed: int) -> list:
    """The documented random k-CNF law: per clause, k distinct variables by a
    partial Fisher-Yates shuffle, sorted, then one fair sign bit each. Same
    seed, same clauses as `ksat gen`."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        pool = list(range(1, n + 1))
        for i in range(k):
            j = i + _below(rng, n - i)
            pool[i], pool[j] = pool[j], pool[i]
        clauses.append([v if rng.getrandbits(1) else -v for v in sorted(pool[:k])])
    return clauses


def clause_masks(clauses) -> list:
    """(positive mask, negative mask) per clause, variable v at bit v-1."""
    out = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        out.append((pos, neg))
    return out


def to_mask(assignment) -> int:
    mask = 0
    for i, bit in enumerate(assignment):
        if bit:
            mask |= 1 << i
    return mask


def satisfies(clauses, assignment) -> bool:
    """Clause-by-clause evaluation of a 0/1 tuple."""
    for clause in clauses:
        if not any((assignment[abs(lit) - 1] == 1) == (lit > 0) for lit in clause):
            return False
    return True


def solution_masks(n: int, clauses) -> np.ndarray:
    """Every satisfying bitmask, ascending, by evaluating all 2^n points."""
    points = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(len(points), dtype=bool)
    for pos, neg in clause_masks(clauses):
        ok &= ((points & pos) != 0) | ((~points & neg) != 0)
    return points[ok]


def tv_quantile_bound(n_support: int, draws: int, sims: int, allowance: float, seed: int) -> float:
    """Largest total-variation distance from uniform seen over `sims`
    simulated runs of `draws` exact uniform draws on `n_support` points,
    plus `allowance` for the sampler's own distance from uniform."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for start in range(0, sims, 1000):
        counts = rng.multinomial(draws, [1.0 / n_support] * n_support, size=min(1000, sims - start))
        tv = 0.5 * np.abs(counts / draws - 1.0 / n_support).sum(axis=1)
        worst = max(worst, float(tv.max()))
    return worst + allowance


def empirical_tv(counts: dict, support, draws: int) -> float:
    """TV distance of the empirical law in `counts` from uniform on `support`;
    mass outside the support counts in full."""
    support = set(support)
    p = 1.0 / len(support)
    tv = 0.5 * sum(abs(counts.get(s, 0) / draws - p) for s in support)
    return tv + 0.5 * sum(c for s, c in counts.items() if s not in support) / draws


def hamming_partitions(masks: np.ndarray, n: int, distances) -> dict:
    """Component sizes, descending, of the graph joining solutions at
    Hamming distance <= d, for each d, by breadth-first search over a dense
    distance matrix built in row blocks."""
    count = len(masks)
    dist = np.empty((count, count), dtype=np.uint8)
    for lo in range(0, count, 256):
        dist[lo : lo + 256] = np.bitwise_count(masks[lo : lo + 256, None] ^ masks[None, :])
    out = {}
    for d in distances:
        near = dist <= d
        label = np.zeros(count, dtype=bool)
        sizes = []
        for start in range(count):
            if label[start]:
                continue
            label[start] = True
            frontier = np.array([start])
            size = 1
            while frontier.size:
                fresh = np.nonzero(near[frontier].any(axis=0) & ~label)[0]
                label[fresh] = True
                size += fresh.size
                frontier = fresh
            sizes.append(size)
        out[d] = sorted(sizes, reverse=True)
    return out


def default_t_max(theta: float, n: int) -> int:
    """Step budget the CLI uses when none is given."""
    return math.ceil((1.0 / theta) ** 2 * math.log(max(n, 2)) * 50)


def _component(clauses, free: int, v: int) -> tuple:
    """Variables (mask) and clauses joined to v through clauses that still
    have free variables; clauses given as (pos, neg) restricted to free."""
    comp_vars = 1 << (v - 1)
    members = []
    pending = list(range(len(clauses)))
    grown = True
    while grown:
        grown = False
        rest = []
        for i in pending:
            pos, neg = clauses[i]
            if (pos | neg) & comp_vars:
                comp_vars |= pos | neg
                members.append(clauses[i])
                grown = True
            else:
                rest.append(i)
        pending = rest
    return comp_vars & free, members


def flip_distance(n: int, clauses, marked, sigma, v: int):
    """Smallest Hamming distance from sigma to a solution that flips v and
    changes only v's component of the formula left by pinning sigma on the
    marked variables other than v; None when no such solution exists."""
    smask = to_mask(sigma)
    pinned = 0
    for u in marked:
        if u != v:
            pinned |= 1 << (u - 1)
    free = ((1 << n) - 1) & ~pinned
    residual = []
    for pos, neg in clause_masks(clauses):
        if (pos & pinned & smask) or (neg & pinned & ~smask):
            continue
        residual.append((pos & free, neg & free))
    comp_vars, members = _component(residual, free, v)
    vbit = 1 << (v - 1)
    others = [1 << i for i in range(n) if (comp_vars >> i) & 1 and (1 << i) != vbit]

    def ok(mask):
        return all((mask & pos) or (~mask & neg) for pos, neg in members)

    base = smask ^ vbit
    if not _satisfiable(members, comp_vars & ~vbit, base):
        return None
    for extra in range(len(others) + 1):
        for combo in itertools.combinations(others, extra):
            flipped = base
            for bit in combo:
                flipped ^= bit
            if ok(flipped):
                return extra + 1
    return None


def _satisfiable(members, open_vars: int, fixed: int) -> bool:
    """Whether the clauses `members` have a solution that agrees with `fixed`
    outside `open_vars`, by splitting on the lowest open variable."""
    undecided = []
    for pos, neg in members:
        if (pos & ~open_vars & fixed) or (neg & ~open_vars & ~fixed):
            continue
        if not (pos | neg) & open_vars:
            return False
        undecided.append((pos, neg))
    if not undecided:
        return True
    pos, neg = undecided[0]
    low = (pos | neg) & open_vars
    low &= -low
    rest = open_vars & ~low
    return _satisfiable(undecided, rest, fixed | low) or _satisfiable(undecided, rest, fixed & ~low)
