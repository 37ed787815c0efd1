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

``exact_influence_matrix`` reads entry (u, v) off ``marginal_counts``, the
reveal's conditional marginals, under the pinning with u = 0 and u = 1, so
one cap, in assignment evaluations per residual component, bounds both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classify import Classification
from .errors import InfeasiblePinningError, RegimeError, UsageError
from .formula import (
    Formula,
    _ball_union,
    _check_partial,
    assignment_to_mask,
    bit_positions,
    is_satisfying,
    mask_groups,
    mask_to_assignment,
    var_mask,
)
from .marginals import (
    DEFAULT_CAP,
    draw_exec,
    exact_marginal,
    exec_store,
    marginal_counts,
    pin_masks,
)
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


def _var_set(mask: int) -> frozenset:
    return frozenset(b + 1 for b in bit_positions(mask))


def _bad_clause_components(f: Formula, cl: Classification) -> list:
    """(variable mask, clause-id mask) of each component of the bad clauses
    joined through shared variables. Bad clauses hold only bad variables, so
    each such component spans one of cl.bad_components; bad components with
    no bad clause are left out."""
    if not cl.c_bad:
        return []
    groups = mask_groups(f._clause_ball1, sum(1 << cid for cid in cl.c_bad))
    return [(_ball_union(f._clause_var_masks, cids), cids) for cids in groups]


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

    Variable sets are int masks with variable v at bit v-1 and clause sets
    masks with clause cid at bit cid; scanning a clause mask from its lowest
    bit visits the clauses in ascending id order. X and Y are value masks
    over their shared domain `dom`, the revealed set V.
    """
    if v0 not in m.marked:
        raise UsageError(f"v0={v0} is not a marked variable")
    if v0 in lambda_pin:
        raise UsageError(f"v0={v0} is pinned")
    if not set(lambda_pin) <= m.marked:
        raise UsageError("pinning domain must be a subset of the marked set")
    if k_c < 1:
        raise UsageError(f"k_c must be >= 1, got {k_c}")
    p0 = exact_marginal(f, lambda_pin, v0, cap=cap)  # raises if pinning infeasible
    if p0 == 0 or p0 == 1:
        raise InfeasiblePinningError(
            f"pinning forces variable {v0}; both branches must be feasible"
        )
    rng = as_rng(seed)
    clause_masks = f._clause_masks
    clause_vars = f._clause_var_masks
    good = var_mask(cl.v_good)
    bad = var_mask(cl.v_bad)

    lam, lam_val = pin_masks(lambda_pin)
    bit0 = 1 << (v0 - 1)
    dom = lam | bit0
    xval = lam_val
    yval = lam_val | bit0
    v_failed = bit0
    e_failed = e_dagger = e_ddagger = 0
    records = []
    bad_comps = _bad_clause_components(f, cl)

    e_unsat = 0
    for cid, (pos, neg) in enumerate(clause_masks):
        if not (pos & xval or neg & dom & ~xval) or not (pos & yval or neg & dom & ~yval):
            e_unsat |= 1 << cid
    # the reveal loop starts at v0's unsatisfied clauses; with no open good
    # variable in any of them and an open bad one left, no failure rule runs
    # and that bad variable would end up coupled across unequal residuals
    open_at_v0 = [
        clause_vars[cid] & ~dom for cid in bit_positions(e_unsat & f._var_clause_masks[v0])
    ]
    if any(open_at_v0) and not any(vs & good for vs in open_at_v0):
        raise RegimeError(
            f"no open good variable in the unsatisfied clauses of variable {v0}"
        )

    def apply_failure_rules():
        # iterated to fixpoint: each rule can enable the next
        nonlocal v_failed, e_failed, e_dagger, e_ddagger, bad_comps
        unsat = bit_positions(e_unsat)
        # unsatisfied clause with k_c revealed unpinned variables: the rest
        # fail (">=" rather than "==" so k_c = 1 cannot be skipped); this
        # rule reads only V and the unsatisfied set, so one pass serves the
        # whole fixpoint
        revealed = dom & ~lam
        for cid in unsat:
            vs = clause_vars[cid]
            if (vs & revealed).bit_count() >= k_c:
                v_failed |= vs & ~dom
                e_failed |= 1 << cid
        while True:
            grown = v_failed
            # unsatisfied clause touching the failure set with no good
            # variable left to couple but undetermined bad variables
            for cid in unsat:
                vs = clause_vars[cid]
                if (
                    vs & v_failed
                    and vs & bad & ~v_failed
                    and not vs & good & ~dom & ~v_failed
                ):
                    v_failed |= vs & bad
                    e_dagger |= 1 << cid
            # bad components touching a failed variable fail wholesale
            if bad_comps:
                for comp_vars, comp_clauses in bad_comps:
                    if comp_vars & v_failed:
                        v_failed |= comp_vars
                        e_ddagger |= comp_clauses
                bad_comps = [c for c in bad_comps if not c[0] & v_failed]
            if v_failed == grown:
                return

    while True:
        pick = 0
        for cid in bit_positions(e_unsat):
            vs = clause_vars[cid]
            if vs & v_failed:
                pick = vs & good & ~dom & ~v_failed
                if pick:
                    break
        if not pick:
            break
        bit = pick & -pick
        u = bit.bit_length()
        # rand_float's draw, compared as an integer: r < ones/total exactly,
        # so P(X_u = 1) = ceil(p 2^53) / 2^53, exact at p = 0 and p = 1
        rbits = rng.getrandbits(53)
        ones, total = marginal_counts(f, dom, xval, u, cap)
        xu = 1 if rbits * total < ones << 53 else 0
        ones, total = marginal_counts(f, dom, yval, u, cap)
        yu = 1 if rbits * total < ones << 53 else 0
        dom |= bit
        if xu:
            xval |= bit
        if yu:
            yval |= bit
        records.append((u, rbits / 9007199254740992.0, xu, yu))
        if xu != yu:
            v_failed |= bit
            e_failed |= 1 << cid
        for c2 in bit_positions(f._var_clause_masks[u] & e_unsat):
            pos, neg = clause_masks[c2]
            if (pos & xval or neg & dom & ~xval) and (pos & yval or neg & dom & ~yval):
                e_unsat ^= 1 << c2
        apply_failure_rules()

    v_coupled = ((1 << f.n) - 1) & ~v_failed

    # extension: one shared draw on the coupled region
    store = exec_store(f)
    coupled_open = v_coupled & ~dom
    shared = 0
    if coupled_open:
        shared = draw_exec(store(dom, xval, coupled_open, cap), rng, 0)
    _assert_same_coupled_residual(f, dom, xval, yval, v_failed)
    x = xval | shared
    y = yval | shared
    # independent draws on the failed regions
    failed_open = v_failed & ~dom
    if failed_open:
        x |= draw_exec(store(dom, xval, failed_open, cap), rng, 0)
        y |= draw_exec(store(dom, yval, failed_open, cap), rng, 0)

    trace = CouplingTrace(
        v_set=_var_set(dom),
        v_failed=_var_set(v_failed),
        v_coupled=_var_set(v_coupled),
        e_failed=frozenset(bit_positions(e_failed)),
        e_failed_dagger=frozenset(bit_positions(e_dagger)),
        e_failed_ddagger=frozenset(bit_positions(e_ddagger)),
        x=mask_to_assignment(x, f.n),
        y=mask_to_assignment(y, f.n),
        r_records=tuple(records),
        v0=v0,
    )
    verify_coupling_trace(f, cl, trace, k_c, frozenset(lambda_pin))
    return trace


def _assert_same_coupled_residual(f, dom, xval, yval, v_failed):
    """The residual clauses living entirely on coupled variables must agree
    under the X and Y pinnings (dom, xval) and (dom, yval), so one shared
    draw serves both."""
    for cid, (pos, neg) in enumerate(f._clause_masks):
        if (pos | neg) & v_failed:
            continue
        if bool(pos & xval or neg & dom & ~xval) != bool(pos & yval or neg & dom & ~yval):
            raise AssertionError(
                f"coupled-region clause {cid} differs between the two copies"
            )


def verify_coupling_trace(
    f: Formula, cl: Classification, trace: CouplingTrace, k_c: int, lam_dom
) -> None:
    """Runtime validation of the coupling's structural guarantees."""
    v_set = var_mask(trace.v_set)
    v_failed = var_mask(trace.v_failed)
    v_coupled = var_mask(trace.v_coupled)
    good = var_mask(cl.v_good)
    x = assignment_to_mask(trace.x)
    y = assignment_to_mask(trace.y)
    xs, ys = x & v_set, y & v_set
    unsat = [
        (cid, pos | neg)
        for cid, (pos, neg) in enumerate(f._clause_masks)
        if not (pos & xs or neg & v_set & ~xs) or not (pos & ys or neg & v_set & ~ys)
    ]

    # loop exit condition: no unsatisfied clause has both a failed variable
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
    clause_vars = f._clause_var_masks
    covered = primary = 0
    for cid in trace.e_failed:
        primary |= clause_vars[cid]
    for cid in trace.e_failed_dagger | trace.e_failed_ddagger:
        covered |= clause_vars[cid]
    covered |= primary
    rest = v_failed & ~(1 << (trace.v0 - 1))
    stray = rest & ~covered | rest & good & ~primary
    if stray:
        low = stray & -stray
        if low & ~covered:
            raise AssertionError(f"failed variable {low.bit_length()} in no failed clause")
        raise AssertionError(f"failed good variable {low.bit_length()} not explained")

    # failed clause connectivity at distance <= 2 in the full clause graph
    near = sum(1 << cid for cid in trace.e_failed | trace.e_failed_ddagger)
    if near & (near - 1) and len(mask_groups(f._clause_ball2, near)) > 1:
        raise AssertionError("primary failed clauses not 2-step connected")

    # agreement on the coupled region
    differ = (x ^ y) & v_coupled
    if differ:
        raise AssertionError(f"coupled variable {(differ & -differ).bit_length()} disagrees")

    for out in (trace.x, trace.y):
        if not is_satisfying(f, out):
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
    if not set(lambda_pin) <= m.marked:
        raise UsageError("pinning domain must be a subset of the marked set")
    _check_partial(f, lambda_pin)
    dom, val = pin_masks(lambda_pin)
    # an infeasible pinning raises here, also when no marked variable is free;
    # the schedule stays in the store for the first row's marginal_counts
    exec_store(f)(dom, val, ((1 << f.n) - 1) & ~dom, cap)
    order = tuple(sorted(m.marked - set(lambda_pin)))
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
        pinning=tuple(sorted(lambda_pin.items())),
        order=order,
        exact=tuple(tuple(row) for row in exact),
        matrix=matrix,
        max_eigenvalue=_max_eigenvalue(matrix),
        flagged=tuple(flagged),
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
    targets = sorted(m.marked - set(lambda_pin) - {v0})
    diff_counts = {v: 0 for v in targets}
    totals = []
    e_sizes = []
    for _ in range(trials):
        trace = run_coupling(
            f, cl, m, lambda_pin, v0, k_c, seed=make_rng(spawn_seed(master)), cap=cap
        )
        t = 0
        for v in targets:
            if trace.x[v - 1] != trace.y[v - 1]:
                diff_counts[v] += 1
                t += 1
        totals.append(t)
        e_sizes.append(len(trace.e_failed))
    rates = {v: c / trials for v, c in diff_counts.items()}
    stderr = {
        v: math.sqrt(max(r * (1 - r), 1e-12) / trials) for v, r in rates.items()
    }
    return CouplingEstimate(
        v0=v0,
        trials=trials,
        rates=rates,
        rate_stderr=stderr,
        total=_mean(totals),
        total_stderr=_sem(totals),
        e_failed_mean=_mean(e_sizes),
        e_failed_stderr=_sem(e_sizes),
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
