"""Exact conditional marginals, exact conditional sampling and closest
solutions.

Everything here reduces to one primitive: simplify the formula under a
pinning, split the residual, the clauses it leaves open cut to its free
variables, into connected components (``decompose``, on clause bitmasks),
and enumerate each component's satisfying assignments.

Every exact conditional quantity is read off one draw schedule on that
residual (``build_exec``): ``sample_conditional``, the sampler's block
steps and the coupling's extension draw from it (``draw_exec``), while
``marginal_counts``, behind the coupling's reveal and the influence
matrix, and ``closest_solution``, behind paths and looseness, read v's
component off the schedule of every free variable. So one loop applies
the error rule: a falsified clause first, then the components by
ascending lowest variable, the first over the cap or without solutions.
Both of those take the pinning as masks (dom, val), and closest_solution
answers in masks too, v's component and its new values, so a caller steps
with ``cur & ~comp | vals``. Every caller reads the formula's stores of its
component solutions (``solution_store``) and its schedules (``open_store``,
keyed by the clauses a pinning leaves open: ``schedule`` finds them for a
pinned read, the sampler's block step for itself), both made by
``_formula_store``, so the module holds no mutable state.
``plan_for`` is an uncached, read-only view over ``decompose`` for the bench
scripts and the acceptance filters; nothing in the package calls it.

Determinism contract of a draw: components meeting the targets are
consumed in ascending order of their minimum variable (one uniform index
draw each), then target variables outside every residual clause get one
fair bit each, in ascending variable order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Mapping, NamedTuple

import numpy as np

from .errors import InfeasiblePinningError, UsageError
from .formula import (
    Formula, _ball_union, _check_cap, _enumerate_local, bit_positions, check_clause_ids,
    check_pinning, check_variable, check_variables, mask_groups, open_clauses,
)
from .rng import as_rng, rand_below, rand_bit

DEFAULT_CAP = 1 << 22  # candidates an enumeration of one component may cover

_STORE_ENTRIES = 1 << 14  # entries per store of a formula


class _Component(NamedTuple):
    """One connected component of a simplified formula: its free variables
    as a bitmask and its residual clauses as (free_pos, free_neg) masks."""

    mask: int
    clauses: list

    @property
    def vars(self) -> tuple:
        return tuple(b + 1 for b in bit_positions(self.mask))

    def solutions(self, cap: int) -> np.ndarray:
        """Satisfying local masks, ascending, enumerated uncached."""
        _check_cap("component", self.mask.bit_count(), cap)
        return _enumerate_local(*component_key(self.mask, self.clauses))


def decompose(clause_masks, open_ids: int, free: int) -> tuple:
    """The clauses of the id mask open_ids, from a formula's (pos, neg)
    clause masks, cut to the variables of the mask free and split into
    components: the residual of a pinning that leaves those clauses open
    and those variables free.

    Returns (falsified, groups): the lowest id cut to nothing and no
    groups, or None and one (vars_mask, clauses) pair per connected
    component, its variables as a bitmask and, per clause, its
    (free_pos, free_neg) masks. Groups come in ascending order of their
    lowest variable, the order every caller draws or walks them in; their
    clauses come in no fixed order.
    """
    groups = []
    for cid in bit_positions(open_ids):
        pos, neg = clause_masks[cid]
        fpos = pos & free
        fneg = neg & free
        mask = fpos | fneg
        if not mask:
            return cid, []
        clauses = [(fpos, fneg)]
        # groups are disjoint, so each one that meets this clause joins it
        for i in range(len(groups) - 1, -1, -1):
            gmask, gclauses = groups[i]
            if gmask & mask:
                mask |= gmask
                clauses += gclauses
                del groups[i]
        groups.append((mask, clauses))
    groups.sort(key=lambda g: g[0] & -g[0])
    return None, groups


def component_key(vars_mask: int, clauses) -> tuple:
    """Canonical form of a component: its variable count and its distinct
    clauses in local bits, sorted. Local bit i is the i-th lowest variable
    of vars_mask, found by counting the mask's bits below each literal."""
    local = set()
    for fpos, fneg in clauses:
        lpos = lneg = 0
        while fpos:
            low = fpos & -fpos
            lpos |= 1 << (vars_mask & (low - 1)).bit_count()
            fpos ^= low
        while fneg:
            low = fneg & -fneg
            lneg |= 1 << (vars_mask & (low - 1)).bit_count()
            fneg ^= low
        local.add((lpos, lneg))
    return vars_mask.bit_count(), tuple(sorted(local))


class _Plan(NamedTuple):
    """Residual decomposition of a formula under a pinning. falsified_clause
    is the first clause the pinning falsifies (then comps is empty), or
    None; comps come in ascending order of their lowest variable."""

    falsified_clause: int | None
    comps: tuple

    @property
    def ok(self) -> bool:
        return self.falsified_clause is None

    @property
    def max_comp_vars(self) -> int:
        return max((c.mask.bit_count() for c in self.comps), default=0)


def plan_for(f: Formula, dom_mask: int, val_mask: int) -> _Plan:
    """Residual decomposition of f under the pinning (dom, val), uncached."""
    open_ids = open_clauses(f, dom_mask, val_mask & dom_mask)
    falsified, groups = decompose(f._clause_masks, open_ids, ~dom_mask)
    return _Plan(falsified, tuple(_Component(*g) for g in groups))


def exact_marginal(f: Formula, x: Mapping, v: int, cap: int = DEFAULT_CAP) -> Fraction:
    """mu_v(1 | x), exactly, as the solution-count ratio of v's component.

    The conditional only exists when x has a satisfying extension, so every
    residual component is checked for solutions; InfeasiblePinningError
    covers falsified clauses and empty components alike, CapExceededError a
    component too large to enumerate.
    """
    dom, val = check_pinning(f, x)
    v = check_variable(f, v)
    if dom >> (v - 1) & 1:
        raise UsageError(f"variable {v} is pinned by the conditioning")
    return Fraction(*marginal_counts(f, dom, val, v, cap))


def marginal_counts(f: Formula, dom: int, val: int, v: int, cap: int = DEFAULT_CAP) -> tuple:
    """exact_marginal on the pinning (dom, val) as an unreduced ratio: the
    numbers of solutions of v's component with v = 1 and in all, or (1, 2)
    when v is in no residual clause. The arguments are not checked; v must
    be a free variable."""
    hit = _free_draw(f, dom, val, v, cap)
    if hit is None:
        return 1, 2
    (sols, count, _, _), local = hit
    return int(np.count_nonzero(sols & np.uint64(1 << local))), count


def closest_solution(f: Formula, dom: int, val: int, v: int, want: int, ref: int, cap: int):
    """The component of v in f under the pinning (dom, val) and its new
    values, as (component mask, values mask): the component solution with
    v = want nearest to the assignment mask ref in Hamming distance, ties to
    the smallest local mask. (v's bit, want on it) when v is in no residual
    clause; None when no component solution has v = want. The arguments are
    not checked; it raises as exact_marginal does."""
    hit = _free_draw(f, dom, val, v, cap)
    if hit is None:
        return 1 << (v - 1), want << (v - 1)
    (sols, _, _, pairs), vlocal = hit
    ref_local = sum(1 << lb for lb, gb in pairs if ref & gb)
    best = min(
        (((s ^ ref_local).bit_count(), s) for s in map(int, sols) if (s >> vlocal) & 1 == want),
        default=None,
    )
    if best is None:
        return None
    return sum(gb for _, gb in pairs), sum(gb for lb, gb in pairs if (best[1] >> lb) & 1)


def _free_draw(f: Formula, dom: int, val: int, v: int, cap: int):
    """v's draw in the schedule of every free variable under the pinning
    (dom, val), with v's local bit in it, or None when v is in no residual
    clause. One build per set of open clauses serves every v, and the
    pinning is checked as build_exec checks it."""
    vbit = 1 << (v - 1)
    for draw in schedule(f, dom, val, ((1 << f.n) - 1) & ~dom, cap).draws:
        for local, gb in draw[3]:
            if gb == vbit:
                return draw, local
    return None


class ExecPlan(NamedTuple):
    """Pre-decoded draw schedule for one (open clauses, targets, free) key.

    draws: per component intersecting the targets (ascending min variable),
    (solutions array, count, rejection bit width, (local bit, global bit)
    decode pairs). free_bits: global bit per target in no residual clause,
    ascending. max_comp_vars: the largest component of the whole residual.
    """

    draws: tuple
    free_bits: tuple
    max_comp_vars: int


def build_exec(clause_masks, solutions, open_ids, targets, free, cap) -> ExecPlan:
    """Draw schedule for the targets on decompose's residual (open_ids,
    free) of a formula's (pos, neg) clause masks, whose component solutions
    `solutions(component_key)` returns.

    Only the components meeting the targets are enumerated, in ascending
    order of their lowest variable, each checked against the cap first.
    InfeasiblePinningError when a clause is cut to nothing (decompose's
    falsified id) or, first in that order, a component has no solutions.
    """
    falsified, groups = decompose(clause_masks, open_ids, free)
    if falsified is not None:
        raise InfeasiblePinningError(f"pinning falsifies clause {falsified}")
    clause_vars_mask = 0
    max_comp_vars = 0
    draws = []
    for mask, clauses in groups:
        clause_vars_mask |= mask
        max_comp_vars = max(max_comp_vars, mask.bit_count())
        if not mask & targets:
            continue
        _check_cap("component", mask.bit_count(), cap)
        sols = solutions(component_key(mask, clauses))
        count = len(sols)
        if count == 0:
            raise InfeasiblePinningError(
                f"component containing variable {(mask & -mask).bit_length()} is "
                "unsatisfiable under the pinning"
            )
        pairs = []
        rest = mask & targets
        while rest:
            gb = rest & -rest
            pairs.append(((mask & (gb - 1)).bit_count(), gb))
            rest ^= gb
        draws.append((sols, count, (count - 1).bit_length(), tuple(pairs)))
    free_bits = []
    rest = targets & ~clause_vars_mask
    while rest:
        gb = rest & -rest
        free_bits.append(gb)
        rest ^= gb
    return ExecPlan(tuple(draws), tuple(free_bits), max_comp_vars)


def _formula_store(f: Formula, name: str, func):
    """f's store `name`: an lru_cache of _STORE_ENTRIES entries over func, kept in
    f.__dict__ as cached_property keeps f._clause_masks. func holds no reference to
    f, so the store is bounded however many keys it meets, and dies with f."""
    store = f.__dict__.get(name)
    if store is None:
        store = f.__dict__[name] = lru_cache(maxsize=_STORE_ENTRIES)(func)
    return store


def solution_store(f: Formula):
    """f's store of component solutions, store(component_key): the
    satisfying local masks in ascending order, from _enumerate_local, which
    it calls as a module global."""
    return _formula_store(f, "_solution_store", _component_solutions)


def _component_solutions(key):
    return _enumerate_local(*key)


def open_store(f: Formula):
    """f's store of draw schedules, store(open_ids, targets, free, cap):
    build_exec on f's clauses."""
    build = partial(build_exec, f._clause_masks, solution_store(f))
    return _formula_store(f, "_open_store", build)


def schedule(f: Formula, dom: int, val: int, targets: int, cap: int) -> ExecPlan:
    """build_exec's schedule for the targets under the pinning (dom, val),
    read from open_store by the clauses the pinning leaves open."""
    return open_store(f)(open_clauses(f, dom, val), targets, ~dom, cap)


def draw_exec(e: ExecPlan, rng, bits: int) -> int:
    """bits with every target of the schedule e redrawn: one uniform
    solution index per component (rejection sampling on the minimal bit
    width, as rng.rand_below), then one fair bit per free target."""
    grb = rng.getrandbits
    for sols, count, width, pairs in e.draws:
        if count == 1:
            idx = 0
        else:
            while True:
                idx = grb(width)
                if idx < count:
                    break
        mask = int(sols[idx])
        for lb, gb in pairs:
            if (mask >> lb) & 1:
                bits |= gb
            else:
                bits &= ~gb
    for gb in e.free_bits:
        if grb(1):
            bits |= gb
        else:
            bits &= ~gb
    return bits


def sample_conditional(f: Formula, x: Mapping, targets, seed, cap: int = DEFAULT_CAP):
    """Exact sample from mu_targets(. | x) as a dict on targets.

    Per component of the simplified formula that meets the targets, one
    uniform component solution is drawn and projected onto the targets;
    target variables in no residual clause get independent fair bits.
    """
    dom, val = check_pinning(f, x)
    rng = as_rng(seed)
    targets = check_variables(f, targets, "target variable")
    if pinned := bit_positions(targets & dom):
        raise UsageError(f"target variable {pinned[0] + 1} is pinned by the conditioning")
    bits = draw_exec(schedule(f, dom, val, targets, cap), rng, 0)
    return {b + 1: (bits >> b) & 1 for b in bit_positions(targets)}


@dataclass(frozen=True)
class UniformityReport:
    """Worst exact conditional marginal seen against the (1/2)e^(1/s) bound."""

    s: float
    worst: Fraction
    bound: float
    violations: tuple
    trials: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_local_uniformity(
    f: Formula,
    marking,
    s: float,
    trials: int,
    seed,
    cap: int = DEFAULT_CAP,
) -> UniformityReport:
    """Probe random marked pinnings for violations of local uniformity.

    Each trial: a uniform subset S of marked variables, an exact conditional
    sample X on S (hence a feasible pinning), a uniform variable v outside S;
    the exact marginal of v given X is compared against (1/2)e^(1/s).
    """
    if s <= 0:
        raise UsageError(f"uniformity parameter s must be positive, got {s}")
    if trials < 1:
        raise UsageError("trials must be >= 1")
    marked = [b + 1 for b in bit_positions(check_variables(f, marking.marked, "marked variable"))]
    rng = as_rng(seed)
    bound = 0.5 * math.exp(1.0 / s)
    worst = Fraction(0)
    violations = []
    for _ in range(trials):
        sub = [v for v in marked if rand_bit(rng)]
        x = sample_conditional(f, {}, sub, rng, cap=cap) if sub else {}
        candidates = [v for v in range(1, f.n + 1) if v not in x]
        if not candidates:
            continue
        v = candidates[rand_below(rng, len(candidates))]
        p = exact_marginal(f, x, v, cap=cap)
        w = max(p, 1 - p)
        if w > worst:
            worst = w
        if float(w) > bound:
            violations.append((v, dict(x), p))
    return UniformityReport(
        s=s, worst=worst, bound=bound, violations=tuple(violations), trials=trials
    )


def tree_excess(f: Formula, clause_ids) -> int:
    """Edges - vertices + components of the incidence graph of the given
    clauses and their variables. Zero means the component is a hypertree."""
    ids = check_clause_ids(f, clause_ids)
    edges = sum(len(f.clauses[cid]) for cid in bit_positions(ids))
    nodes = ids.bit_count() + _ball_union(f._clause_var_masks, ids).bit_count()
    # every variable node hangs off a clause, so the components are the
    # groups of the clauses joined through shared variables
    return edges - nodes + len(mask_groups(f._clause_ball1, ids))
