"""The set-based disagreement coupling as it stood before the coupling moved
to clause and variable bitmasks, kept unchanged as a test-only reference.

tests/test_coupling_differential.py runs it against ksat.coupling.run_coupling
and requires every field of the two traces to be equal.
"""

from __future__ import annotations

from ksat.classify import Classification
from ksat.coupling import CouplingTrace
from ksat.errors import InfeasiblePinningError, UsageError
from ksat.formula import Formula, clause_graph_components, is_satisfying
from ksat.marginals import DEFAULT_CAP, exact_marginal, sample_conditional
from ksat.marking import Marking
from ksat.rng import as_rng, rand_float


def _satisfied_by(f: Formula, values: dict, cid: int) -> bool:
    for lit in f.clauses[cid]:
        val = values.get(lit.var)
        if val is not None and (val == 1) == lit.sign:
            return True
    return False


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
    """One run of the coupling under the pinning, with X(v0)=0, Y(v0)=1."""
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
    lam_dom = set(lambda_pin)

    x = dict(lambda_pin)
    y = dict(lambda_pin)
    x[v0] = 0
    y[v0] = 1
    v_set = set(lam_dom) | {v0}
    v_failed = {v0}
    e_failed: set = set()
    e_dagger: set = set()
    e_ddagger: set = set()
    records = []

    bad_comps = clause_graph_components(f, "shared-bad-var", 1, cl)
    bad_comp_vars = [
        frozenset(v for c in comp for v in f.clause_vars(c)) for comp in bad_comps
    ]
    absorbed = [False] * len(bad_comps)

    e_unsat = {
        cid
        for cid in range(f.m)
        if not (_satisfied_by(f, x, cid) and _satisfied_by(f, y, cid))
    }

    def apply_failure_rules():
        # iterated to fixpoint: each rule can enable the next
        while True:
            grown = len(v_failed)
            # unsatisfied clause with k_c revealed unpinned variables: the
            # rest fail (">=" rather than "==" so k_c = 1 cannot be skipped)
            for cid in sorted(e_unsat):
                vs = f.clause_vars(cid)
                if len(vs & (v_set - lam_dom)) >= k_c:
                    v_failed.update(vs - v_set)
                    e_failed.add(cid)
            # unsatisfied clause touching the failure set with no good
            # variable left to couple but undetermined bad variables
            for cid in sorted(e_unsat):
                vs = f.clause_vars(cid)
                if not vs & v_failed:
                    continue
                good_open = (vs & cl.v_good) - v_set - v_failed
                bad_open = (vs & cl.v_bad) - v_failed
                if not good_open and bad_open:
                    v_failed.update(vs & cl.v_bad)
                    e_dagger.add(cid)
            # bad components touching a failed variable fail wholesale
            for i, comp_vars in enumerate(bad_comp_vars):
                if not absorbed[i] and comp_vars & v_failed:
                    absorbed[i] = True
                    v_failed.update(comp_vars)
                    e_ddagger.update(bad_comps[i])
            if len(v_failed) == grown:
                return

    while True:
        pick = None
        for cid in sorted(e_unsat):
            vs = f.clause_vars(cid)
            if not vs & v_failed:
                continue
            open_good = sorted((vs & cl.v_good) - v_set - v_failed)
            if open_good:
                pick = (cid, open_good[0])
                break
        if pick is None:
            break
        cid, u = pick
        r = rand_float(rng)
        px = exact_marginal(f, x, u, cap=cap)
        py = exact_marginal(f, y, u, cap=cap)
        x[u] = 1 if r <= px else 0
        y[u] = 1 if r <= py else 0
        v_set.add(u)
        records.append((u, r, x[u], y[u]))
        if x[u] != y[u]:
            v_failed.add(u)
            e_failed.add(cid)
        for c2 in [c for c, _ in f.occ[u]]:
            if c2 in e_unsat and _satisfied_by(f, x, c2) and _satisfied_by(f, y, c2):
                e_unsat.discard(c2)
        apply_failure_rules()

    all_vars = set(range(1, f.n + 1))
    v_coupled = all_vars - v_failed

    # extension: one shared draw on the coupled region
    coupled_open = sorted(v_coupled - v_set)
    shared = sample_conditional(f, x, coupled_open, rng, cap=cap) if coupled_open else {}
    _assert_same_coupled_residual(f, x, y, v_failed)
    x.update(shared)
    y.update(shared)
    # independent draws on the failed regions
    failed_open = sorted(v_failed - v_set)
    if failed_open:
        x_pin = {v: b for v, b in x.items() if v in v_set}
        y_pin = {v: b for v, b in y.items() if v in v_set}
        x.update(sample_conditional(f, x_pin, failed_open, rng, cap=cap))
        y.update(sample_conditional(f, y_pin, failed_open, rng, cap=cap))

    x_full = tuple(x[v] for v in range(1, f.n + 1))
    y_full = tuple(y[v] for v in range(1, f.n + 1))
    trace = CouplingTrace(
        v_set=frozenset(v_set),
        v_failed=frozenset(v_failed),
        v_coupled=frozenset(v_coupled),
        e_failed=frozenset(e_failed),
        e_failed_dagger=frozenset(e_dagger),
        e_failed_ddagger=frozenset(e_ddagger),
        x=x_full,
        y=y_full,
        r_records=tuple(records),
        v0=v0,
    )
    verify_coupling_trace(f, cl, trace, k_c, frozenset(lam_dom))
    return trace


def _assert_same_coupled_residual(f, x, y, v_failed):
    """The residual clauses living entirely on coupled variables must agree
    under the X and Y pinnings, so one shared draw serves both."""
    for cid in range(f.m):
        vs = f.clause_vars(cid)
        if vs & v_failed:
            continue
        if _satisfied_by(f, x, cid) != _satisfied_by(f, y, cid):
            raise AssertionError(
                f"coupled-region clause {cid} differs between the two copies"
            )


def verify_coupling_trace(
    f: Formula, cl: Classification, trace: CouplingTrace, k_c: int, lam_dom
) -> None:
    """Runtime validation of the coupling's structural guarantees."""
    x_set = {v: trace.x[v - 1] for v in trace.v_set}
    y_set = {v: trace.y[v - 1] for v in trace.v_set}

    # loop exit condition: no unsatisfied clause has both a failed variable
    # and an uncoupled good variable left
    for cid in range(f.m):
        if _satisfied_by(f, x_set, cid) and _satisfied_by(f, y_set, cid):
            continue
        vs = f.clause_vars(cid)
        if vs & trace.v_failed:
            open_good = (vs & cl.v_good) - trace.v_set - trace.v_failed
            if open_good:
                raise AssertionError(f"exit condition violated at clause {cid}")

    # clause trichotomy
    for cid in range(f.m):
        if _satisfied_by(f, x_set, cid) and _satisfied_by(f, y_set, cid):
            continue
        vs = f.clause_vars(cid)
        in_coupled = vs <= trace.v_set | trace.v_coupled
        in_failed = vs <= trace.v_set | trace.v_failed
        if not (in_coupled or in_failed):
            raise AssertionError(f"clause {cid} split between coupled and failed")

    # every failed variable (except the seeded v0) sits in a failed clause;
    # failed good variables sit in a primary failed clause
    e_all = trace.e_failed | trace.e_failed_dagger | trace.e_failed_ddagger
    covered = {v for c in e_all for v in f.clause_vars(c)}
    covered_primary = {v for c in trace.e_failed for v in f.clause_vars(c)}
    for v in trace.v_failed - {trace.v0}:
        if v not in covered:
            raise AssertionError(f"failed variable {v} in no failed clause")
        if v in cl.v_good and v not in covered_primary:
            raise AssertionError(f"failed good variable {v} not explained")

    # failed clause connectivity at distance <= 2 in the full clause graph
    near = trace.e_failed | trace.e_failed_ddagger
    if len(near) > 1:
        parts = clause_graph_components(f, "shared-any-var", 2, vertices=near)
        if len(parts) != 1:
            raise AssertionError("primary failed clauses not 2-step connected")

    # agreement on the coupled region
    for v in trace.v_coupled:
        if trace.x[v - 1] != trace.y[v - 1]:
            raise AssertionError(f"coupled variable {v} disagrees")

    for out in (trace.x, trace.y):
        if not is_satisfying(f, out):
            raise AssertionError("coupling output does not satisfy the formula")
