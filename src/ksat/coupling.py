"""The disagreement-propagation coupling and pairwise influence matrices.

``run_coupling`` reveals good variables adjacent to the current
disagreement set one at a time, coupling each through a shared uniform
r-value against the two exact conditional marginals. Clauses that collect
k_c revealed unpinned variables while still unsatisfied fail their
remaining variables; clauses whose good variables are exhausted fail their
bad variables; bad components touching a failed variable fail wholesale.
The final extension draws the coupled region once with shared randomness
and the failed regions independently, so each output is an exact
conditional sample.

A run's course up to the extension is fixed by its reveal outcomes, so
runs walk a reveal tree, kept in a third bounded per-formula store beside
open_store and keyed by (classification, marking, the pinning's domain and
value masks, v0, k_c, cap), so the pinning's key order does not matter. The
reveal and failure rules build each node the first time a run reaches it:
the variable it reveals with both marginals as integer thresholds, or a
leaf with the final sets, the trace's frozensets and the extension's
schedules, checked once against the path's guarantees. A run
draws ``getrandbits(53)`` per node, makes the extension's draws at its
leaf, and checks only its own outputs.

``exact_influence_matrix`` reads entry (u, v) off ``marginal_counts``, the
reveal's conditional marginals, under the pinning with u = 0 and u = 1, so
one cap, in assignment evaluations per residual component, bounds both.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import marginals
from .classify import Classification
from .errors import InfeasiblePinningError, RegimeError, UsageError
from .formula import (
    Formula,
    _ball_union,
    assignment_to_mask,
    bit_positions,
    check_integer,
    check_pinning,
    check_variables,
    mask_groups,
    mask_to_assignment,
    open_clauses,
    satisfies_mask,
    var_mask,
)
from .marginals import DEFAULT_CAP, draw_exec, marginal_counts, schedule
from .marking import Marking
from .rng import as_rng, make_rng, spawn_seed


def default_k_c(k_u: int, zeta: float) -> int:
    """Reveal cutoff ceil(4 / (4(1 - 12*zeta) + 5) * k_u)."""
    denom = 4 * (1 - 12 * zeta) + 5
    if denom <= 0:
        raise UsageError(f"zeta = {zeta} leaves no valid cutoff denominator")
    return max(1, math.ceil(4 / denom * k_u))


@dataclass(frozen=True)
class CouplingTrace:
    v_set: frozenset
    v_failed: frozenset
    v_coupled: frozenset
    e_failed: frozenset
    e_failed_dagger: frozenset
    e_failed_ddagger: frozenset
    x: tuple
    y: tuple
    r_records: tuple  # (variable, r, X value, Y value) per coupled reveal
    v0: int

    @property
    def disagreements(self) -> frozenset:
        return frozenset(
            v + 1 for v in range(len(self.x)) if self.x[v] != self.y[v]
        )


def _check_marking(f: Formula, m: Marking, dom: int) -> int:
    """The marked mask of m, whose variables must be f's and hold dom."""
    marked = check_variables(f, m.marked, "marked variable")
    if dom & ~marked:
        raise UsageError("pinning domain must be a subset of the marked set")
    return marked


def _bad_clause_components(f: Formula, cl: Classification) -> list:
    """(variable mask, clause-id mask) of each component of the bad clauses
    joined through shared variables. Bad clauses hold only bad variables, so
    each such component spans one of cl.bad_components; bad components with
    no bad clause are left out."""
    if not cl.c_bad:
        return []
    groups = mask_groups(f._clause_ball1, sum(1 << cid for cid in cl.c_bad))
    return [(_ball_union(f._clause_var_masks, cids), cids) for cids in groups]


class _Tree:
    """A reveal tree: its root, None until a run plants it, the marking
    that planted it, and the masks, bad-clause components and parameters
    its node builds read."""

    __slots__ = ("root", "m", "good", "bad", "bad_comps", "lam", "v0", "k_c", "cap")

    def __init__(self, *key):  # the store's key; the tree keeps only its marking, in m
        self.root = None


# A reveal of u, picked by clause cid: X_u = 1 iff rbits * x_total < x_ones
# (X's count of solutions with u = 1, shifted left by 53), and likewise for
# Y. kids[X_u + Y_u] is the subtree after that outcome, None until a run
# takes it; state is the walk before the reveal, as _grow unpacks it, seven
# masks (dom, xval, yval, v_failed, e_failed, e_dagger, e_ddagger): variable
# v at bit v-1 and clause cid at bit cid, so scanning a clause mask from its
# lowest bit visits clauses in ascending id order, and X's and Y's values
# over their shared domain dom, the revealed set V, from which _unsat gives
# the unsatisfied clauses.
_Node = namedtuple("_Node", "u cid x_ones x_total y_ones y_total kids state")
# The end of a reveal path: the revealed values, the coupled region, the
# extension's schedules (None where nothing is drawn) and the trace's sets.
_Leaf = namedtuple("_Leaf", "xval yval v_coupled shared x_failed y_failed sets")


def _reveal_store(f: Formula):
    """f's store of reveal trees, store(cl, m, lam, lam_val, v0, k_c, cap)
    with the pinning as its checked (domain, value) masks, so two orderings
    of one pinning share a tree; each an empty tree that runs fill; a
    marginals._formula_store."""
    return marginals._formula_store(f, "_reveal_store", _Tree)


def run_coupling(
    f: Formula,
    cl: Classification,
    m: Marking,
    lambda_pin,
    v0: int,
    k_c: int,
    seed=0,
    cap: int = DEFAULT_CAP,
) -> CouplingTrace:
    """One run of the coupling under the pinning, with X(v0)=0, Y(v0)=1.

    The run walks its reveal tree, planting it first if it is new: one
    53-bit draw per node, then the extension's draws at the leaf, the
    shared one and then X's and Y's on the failed region. The pinning, v0,
    k_c and cap are checked per run, before they key the tree, the marking
    unless it is the one that planted the tree, the rest when it is planted.
    """
    lam, lam_val = check_pinning(f, lambda_pin)
    v0, k_c, cap = check_integer(v0, "v0"), check_integer(k_c, "k_c"), check_integer(cap, "cap")
    tree = _reveal_store(f)(cl, m, lam, lam_val, v0, k_c, cap)
    if tree.root is not None and tree.m is not m:  # an equal marking may hold 1.0 for 1
        _check_marking(f, m, lam)
    node = tree.root or _plant(f, cl, m, lam, lam_val, tree, v0, k_c, cap)
    rng = as_rng(seed)
    grb = rng.getrandbits
    records = []
    while type(node) is _Node:
        # rand_float's draw, compared as an integer: r < ones/total exactly,
        # so P(X_u = 1) = ceil(p 2^53) / 2^53, exact at p = 0 and p = 1
        rbits = grb(53)
        xu = 1 if rbits * node.x_total < node.x_ones else 0
        yu = 1 if rbits * node.y_total < node.y_ones else 0
        records.append((node.u, rbits / 9007199254740992.0, xu, yu))
        node = node.kids[xu + yu] or _grow(f, tree, node, xu, yu)

    shared = draw_exec(node.shared, rng, 0) if node.shared else 0
    x = node.xval | shared
    y = node.yval | shared
    if node.x_failed:
        x |= draw_exec(node.x_failed, rng, 0)
        y |= draw_exec(node.y_failed, rng, 0)
    _verify_outputs(f, node.v_coupled, x, y)
    return CouplingTrace(
        *node.sets, mask_to_assignment(x, f.n), mask_to_assignment(y, f.n), tuple(records), v0
    )


def _plant(f, cl, m, lam, lam_val, tree, v0, k_c, cap):
    """Check the run's start under the pinning (lam, lam_val); build the root."""
    _check_marking(f, m, lam)
    if v0 not in m.marked:
        raise UsageError(f"v0={v0} is not a marked variable")
    bit0 = 1 << (v0 - 1)
    if lam & bit0:
        raise UsageError(f"v0={v0} is pinned")
    if k_c < 1:
        raise UsageError(f"k_c must be >= 1, got {k_c}")
    ones, total = marginal_counts(f, lam, lam_val, v0, cap)  # raises if pinning infeasible
    if ones in (0, total):
        raise InfeasiblePinningError(
            f"pinning forces variable {v0}; both branches must be feasible"
        )
    dom = lam | bit0
    e_unsat = _unsat(f, dom, lam_val, lam_val | bit0)
    # the reveal starts at v0's unsatisfied clauses; with no open good
    # variable in any of them and an open bad one left, no failure rule runs
    # and that bad variable would end up coupled across unequal residuals
    good = var_mask(cl.v_good)
    open_at_v0 = [
        f._clause_var_masks[cid] & ~dom
        for cid in bit_positions(e_unsat & f._var_clause_masks[v0])
    ]
    if any(open_at_v0) and not any(vs & good for vs in open_at_v0):
        raise RegimeError(
            f"no open good variable in the unsatisfied clauses of variable {v0}"
        )
    tree.m, tree.good, tree.bad, tree.lam = m, good, var_mask(cl.v_bad), lam
    tree.bad_comps, tree.v0, tree.k_c, tree.cap = _bad_clause_components(f, cl), v0, k_c, cap
    tree.root = _advance(f, tree, (dom, lam_val, lam_val | bit0, bit0, 0, 0, 0), e_unsat)
    return tree.root


def _unsat(f, dom, xval, yval):
    """Id mask of the clauses that X's or Y's values on dom leave unsatisfied."""
    return open_clauses(f, dom, xval) | open_clauses(f, dom, yval)


def _grow(f, tree, node, xu, yu):
    """Build and attach node's child for the outcome (xu, yu): record the
    reveal, then apply the failure rules, iterated to fixpoint since each
    rule can enable the next."""
    dom, xval, yval, v_failed, e_failed, e_dagger, e_ddagger = node.state
    clause_vars = f._clause_var_masks
    bit = 1 << (node.u - 1)
    dom |= bit
    xval |= bit * xu
    yval |= bit * yu
    if xu != yu:
        v_failed |= bit
        e_failed |= 1 << node.cid
    e_unsat = _unsat(f, dom, xval, yval)
    unsat = bit_positions(e_unsat)
    # unsatisfied clause with k_c revealed unpinned variables: the rest fail
    # (">=" rather than "==" so k_c = 1 cannot be skipped); this rule reads
    # only V and the unsatisfied set, so one pass serves the whole fixpoint
    revealed = dom & ~tree.lam
    for cid in unsat:
        vs = clause_vars[cid]
        if (vs & revealed).bit_count() >= tree.k_c:
            v_failed |= vs & ~dom
            e_failed |= 1 << cid
    good, bad = tree.good, tree.bad
    while True:
        grown = v_failed
        # unsatisfied clause touching the failure set with no good variable
        # left to couple but undetermined bad variables
        for cid in unsat:
            vs = clause_vars[cid]
            if vs & v_failed and vs & bad & ~v_failed and not vs & good & ~dom & ~v_failed:
                v_failed |= vs & bad
                e_dagger |= 1 << cid
        # bad components touching a failed variable fail wholesale; one that
        # has failed already adds nothing
        for comp_vars, comp_clauses in tree.bad_comps:
            if comp_vars & v_failed:
                v_failed |= comp_vars
                e_ddagger |= comp_clauses
        if v_failed == grown:
            break
    state = (dom, xval, yval, v_failed, e_failed, e_dagger, e_ddagger)
    child = node.kids[xu + yu] = _advance(f, tree, state, e_unsat)
    return child


def _advance(f, tree, state, e_unsat):
    """The node revealing the lowest open good variable of the first
    clause of e_unsat, in ascending id order, that touches the failure
    set, or the leaf when there is none."""
    dom, xval, yval, v_failed, e_failed, e_dagger, e_ddagger = state
    for cid in bit_positions(e_unsat):
        vs = f._clause_var_masks[cid]
        pick = vs & tree.good & ~dom & ~v_failed if vs & v_failed else 0
        if pick:
            u = (pick & -pick).bit_length()
            x_ones, x_total = marginal_counts(f, dom, xval, u, tree.cap)
            y_ones, y_total = marginal_counts(f, dom, yval, u, tree.cap)
            return _Node(u, cid, x_ones << 53, x_total, y_ones << 53, y_total, [None] * 3, state)

    v_coupled = ((1 << f.n) - 1) & ~v_failed
    _assert_same_coupled_residual(f, dom, xval, yval, v_failed)
    _verify_path(
        f, tree.good, dom, xval, yval, v_failed, v_coupled, e_failed, e_dagger, e_ddagger, tree.v0
    )
    # extension: one shared draw on the coupled region, then independent
    # draws on the failed region
    coupled_open = v_coupled & ~dom
    failed_open = v_failed & ~dom
    sets = tuple(
        frozenset(b + 1 for b in bit_positions(vs)) for vs in (dom, v_failed, v_coupled)
    ) + tuple(frozenset(bit_positions(cids)) for cids in (e_failed, e_dagger, e_ddagger))
    return _Leaf(
        xval, yval, v_coupled,
        schedule(f, dom, xval, coupled_open, tree.cap) if coupled_open else None,
        schedule(f, dom, xval, failed_open, tree.cap) if failed_open else None,
        schedule(f, dom, yval, failed_open, tree.cap) if failed_open else None,
        sets,
    )


def _assert_same_coupled_residual(f, dom, xval, yval, v_failed):
    """The residual clauses living entirely on coupled variables must agree
    under the X and Y pinnings (dom, xval) and (dom, yval), so one shared
    draw serves both."""
    for cid in bit_positions(open_clauses(f, dom, xval) ^ open_clauses(f, dom, yval)):
        if not f._clause_var_masks[cid] & v_failed:
            raise AssertionError(
                f"coupled-region clause {cid} differs between the two copies"
            )


def verify_coupling_trace(f: Formula, cl: Classification, trace: CouplingTrace) -> None:
    """Runtime validation of the coupling's structural guarantees: those of
    its reveal path, which run_coupling checks once per leaf, then those of
    its outputs, which it checks on every run."""
    v_set = var_mask(trace.v_set)
    v_coupled = var_mask(trace.v_coupled)
    x = assignment_to_mask(trace.x)
    y = assignment_to_mask(trace.y)
    e_failed, e_dagger, e_ddagger = (
        sum(1 << cid for cid in cids)
        for cids in (trace.e_failed, trace.e_failed_dagger, trace.e_failed_ddagger)
    )
    _verify_path(
        f, var_mask(cl.v_good), v_set, x & v_set, y & v_set, var_mask(trace.v_failed),
        v_coupled, e_failed, e_dagger, e_ddagger, trace.v0,
    )
    _verify_outputs(f, v_coupled, x, y)


def _verify_path(
    f, good, v_set, xs, ys, v_failed, v_coupled, e_failed, e_dagger, e_ddagger, v0
):
    """The guarantees fixed by the reveal path, on masks: the revealed set
    and its X and Y values, the failed and coupled variables and the three
    failed clause sets."""
    unsat = [(cid, f._clause_var_masks[cid]) for cid in bit_positions(_unsat(f, v_set, xs, ys))]

    # reveal exit condition: no unsatisfied clause has both a failed variable
    # and an uncoupled good variable left
    for cid, vs in unsat:
        if vs & v_failed and vs & good & ~v_set & ~v_failed:
            raise AssertionError(f"exit condition violated at clause {cid}")

    # clause trichotomy
    for cid, vs in unsat:
        if vs & ~(v_set | v_coupled) and vs & ~(v_set | v_failed):
            raise AssertionError(f"clause {cid} split between coupled and failed")

    # every failed variable (except the seeded v0) sits in a failed clause;
    # failed good variables sit in a primary failed clause
    primary = _ball_union(f._clause_var_masks, e_failed)
    covered = primary | _ball_union(f._clause_var_masks, e_dagger | e_ddagger)
    rest = v_failed & ~(1 << (v0 - 1))
    stray = rest & ~covered | rest & good & ~primary
    if stray:
        low = stray & -stray
        if low & ~covered:
            raise AssertionError(f"failed variable {low.bit_length()} in no failed clause")
        raise AssertionError(f"failed good variable {low.bit_length()} not explained")

    # failed clause connectivity at distance <= 2 in the full clause graph
    near = e_failed | e_ddagger
    if near & (near - 1) and len(mask_groups(f._clause_ball2, near)) > 1:
        raise AssertionError("primary failed clauses not 2-step connected")


def _verify_outputs(f, v_coupled, x, y):
    """A run's own guarantees: X and Y, as masks, agree on the coupled
    region and both satisfy f."""
    differ = (x ^ y) & v_coupled
    if differ:
        raise AssertionError(f"coupled variable {(differ & -differ).bit_length()} disagrees")
    if not (satisfies_mask(f, x) and satisfies_mask(f, y)):
        raise AssertionError("coupling output does not satisfy the formula")


def r_window_violations(trace: CouplingTrace, s: float):
    """Reveals with r outside [1/2 - 1/s, 1/2 + 1/s] whose copies still
    disagreed. Empty whenever the local-uniformity precondition
    2^(k_u - k_c) >= 2*e*Delta*s holds for the instance."""
    lo, hi = 0.5 - 1.0 / s, 0.5 + 1.0 / s
    return [
        (u, r) for (u, r, xu, yu) in trace.r_records if (r < lo or r > hi) and xu != yu
    ]


@dataclass(frozen=True)
class InfluenceMatrix:
    pinning: tuple  # sorted (var, value) pairs
    order: tuple  # row/column variable of each index
    exact: tuple  # tuple of tuples of Fractions
    matrix: np.ndarray
    max_eigenvalue: float
    flagged: tuple  # rows zeroed because one branch was infeasible

    def entry(self, u: int, v: int) -> Fraction:
        return self.exact[self.order.index(u)][self.order.index(v)]

    def to_json(self) -> dict:
        return {
            "schema": "ksat/influence/v1",
            "pinning": {str(v): b for v, b in self.pinning},
            "order": list(self.order),
            "matrix": [[float(e) for e in row] for row in self.exact],
            "max_eigenvalue": self.max_eigenvalue,
            "flagged": list(self.flagged),
        }


def exact_influence_matrix(
    f: Formula, m: Marking, lambda_pin, cap: int = DEFAULT_CAP
) -> InfluenceMatrix:
    """Pairwise influences between free marked variables, exactly.

    Entry (u, v) is mu(v=1 | u=0, pin) - mu(v=1 | u=1, pin), both terms
    marginal_counts ratios, so only residual components are enumerated, at
    most cap evaluations each. Rows whose conditioning is one-sided (u
    frozen under the pinning) are zeroed and flagged. The maximum
    eigenvalue comes from a dense eigensolver.
    """
    dom, val = check_pinning(f, lambda_pin)
    marked = _check_marking(f, m, dom)
    # an infeasible pinning raises here, also when no marked variable is free;
    # the schedule stays in the store for the first row's marginal_counts
    schedule(f, dom, val, ((1 << f.n) - 1) & ~dom, cap)
    order = tuple(b + 1 for b in bit_positions(marked & ~dom))
    exact = [[Fraction(0)] * len(order) for _ in order]
    flagged = []
    for i, u in enumerate(order):
        ones, total = marginal_counts(f, dom, val, u, cap)
        if ones in (0, total):
            flagged.append(u)
            continue
        bit = 1 << (u - 1)
        for j, v in enumerate(order):
            if v != u:
                p0 = Fraction(*marginal_counts(f, dom | bit, val, v, cap))
                p1 = Fraction(*marginal_counts(f, dom | bit, val | bit, v, cap))
                exact[i][j] = p0 - p1
    matrix = np.array([[float(e) for e in row] for row in exact], dtype=float)
    return InfluenceMatrix(
        tuple(sorted(lambda_pin.items())), order, tuple(tuple(row) for row in exact), matrix,
        _max_eigenvalue(matrix), tuple(flagged),
    )


def _max_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue. The influence matrix is -D^-1 (C - D) for a
    covariance matrix C and its diagonal D, similar to a symmetric matrix,
    so its spectrum is real."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.eigvals(mat).real.max())


@dataclass(frozen=True)
class CouplingEstimate:
    v0: int
    trials: int
    rates: dict  # marked variable -> estimated disagreement probability
    rate_stderr: dict
    total: float  # mean disagreement count over marked variables != v0
    total_stderr: float
    e_failed_mean: float
    e_failed_stderr: float


def coupling_influence_bound(
    f: Formula,
    cl: Classification,
    m: Marking,
    lambda_pin,
    v0: int,
    k_c: int,
    trials: int,
    seed=0,
    cap: int = DEFAULT_CAP,
) -> CouplingEstimate:
    """Monte Carlo disagreement rates of the coupling, which upper-bound the
    row sums of the influence matrix."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    master = as_rng(seed)
    check_pinning(f, lambda_pin)  # before set() and {v0} need them well typed
    targets = sorted(m.marked - set(lambda_pin) - {check_integer(v0, "v0")})
    diff_counts = Counter(dict.fromkeys(targets, 0))
    totals = []
    e_sizes = []
    for _ in range(trials):
        trace = run_coupling(
            f, cl, m, lambda_pin, v0, k_c, seed=make_rng(spawn_seed(master)), cap=cap
        )
        differ = [v for v in targets if trace.x[v - 1] != trace.y[v - 1]]
        diff_counts.update(differ)
        totals.append(len(differ))
        e_sizes.append(len(trace.e_failed))
    rates = {v: c / trials for v, c in diff_counts.items()}
    stderr = {v: math.sqrt(max(r * (1 - r), 1e-12) / trials) for v, r in rates.items()}
    return CouplingEstimate(
        v0, trials, rates, stderr, _mean(totals), _sem(totals), _mean(e_sizes), _sem(e_sizes)
    )


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _sem(xs) -> float:
    n = len(xs)
    if n < 2:
        return 0.0
    mu = _mean(xs)
    var = sum((v - mu) ** 2 for v in xs) / (n - 1)
    return math.sqrt(var / n)
