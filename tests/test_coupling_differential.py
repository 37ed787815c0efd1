"""run_coupling against the set-based reference it replaced: every field of
the trace, or the error raised, must be the same on n <= 9 formulas. The
one exception is the out-of-regime start the reference did not detect (no
open good variable in v0's unsatisfied clauses, an open variable left in
them), where run_coupling raises RegimeError."""

import random
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import coupling_reference
from ksat import Formula, KsatError, enumerate_solutions
from ksat.classify import classify
from ksat.coupling import CouplingTrace, run_coupling
from ksat.marking import Marking


@st.composite
def coupling_cases(draw, with_bad, pinned):
    """(formula, classification, marking, pinning, v0) with the marked set
    inside the good variables. with_bad asks for at least one bad clause
    (a small degree threshold); otherwise every clause is good."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, 2 * n))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    clauses = []
    for _ in range(m):
        vs = rnd.sample(range(1, n + 1), rnd.randint(2, min(n, 4)))
        clauses.append([v if rnd.getrandbits(1) else -v for v in vs])
    f = Formula.from_ints(n, clauses)
    top = max(f.degree(v) for v in range(1, n + 1))
    delta = draw(st.integers(2, max(2, top))) if with_bad else top + 1
    # nominal width 4 puts the bad-clause threshold at 2 bad variables, so
    # good clauses can carry one bad variable each
    cl = classify(f, delta=delta, zeta=0.3, k=4)
    assume(bool(cl.c_bad) == with_bad and len(cl.v_good) > pinned)
    good = sorted(cl.v_good)
    marked = draw(st.lists(st.sampled_from(good), min_size=1 + pinned, unique=True))
    v0 = marked[0]
    pin = {}
    if pinned:
        others = draw(st.lists(st.sampled_from(marked[1:]), min_size=1, unique=True))
        pin = {v: draw(st.integers(0, 1)) for v in others}
    return f, cl, Marking(frozenset(marked), 1, 1, certified=True), pin, v0


def _stranded_v0(case):
    """Both values of v0 extend the pinning to a solution, and v0's clauses
    unsatisfied under X (v0 = 0) or Y (v0 = 1) hold an open variable but no
    open good one."""
    f, cl, m, pin, v0 = case
    sols = [s for s in enumerate_solutions(f) if all(s[v - 1] == b for v, b in pin.items())]
    if {s[v0 - 1] for s in sols} != {0, 1}:
        return False
    open_vars = set()
    for clause in f.clauses:
        if all(lit.var != v0 for lit in clause):
            continue
        for side in (0, 1):
            values = {**pin, v0: side}
            if not any(values.get(lit.var) == lit.sign for lit in clause):
                open_vars |= {lit.var for lit in clause} - set(values)
    return bool(open_vars) and not open_vars & cl.v_good


def _outcome(run, case, k_c, seed):
    f, cl, m, pin, v0 = case
    try:
        return run(f, cl, m, dict(pin), v0, k_c, seed=seed)
    except (KsatError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("with_bad", [False, True], ids=["all-good", "bad-clauses"])
@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
def test_run_coupling_matches_set_reference(with_bad, pinned):
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(coupling_cases(with_bad, pinned), st.integers(1, 3), st.integers(0, 2**32))
    def check(case, k_c, seed):
        got = _outcome(run_coupling, case, k_c, seed)
        if _stranded_v0(case):
            assert isinstance(got, tuple) and got[0] == "RegimeError"
            return
        want = _outcome(coupling_reference.run_coupling, case, k_c, seed)
        if isinstance(want, CouplingTrace) and isinstance(got, CouplingTrace):
            for fld in fields(CouplingTrace):
                assert getattr(got, fld.name) == getattr(want, fld.name), fld.name
        else:
            assert got == want

    check()
