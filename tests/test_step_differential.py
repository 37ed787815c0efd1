"""The block step keyed by its open clauses against the step it replaced.

A step redraws the block S of the marked set M given X(M \\ S). Its law
depends only on the clauses U that X(M \\ S) leaves unsatisfied: the
chain reads the schedule of S & V(U) on U from the formula's schedule
store, then draws one fair bit per variable of S \\ V(U). Here that
schedule, with those bits appended, must be the one the reference
``pinned_build_exec`` below gives under the whole pinning, as must
``_Chain.step``'s and the lockstep chain's step row source, and
``_run_full`` must give what the whole-pinning step loop gave, on n <= 40
formulas with k = 3-6. ``plan_for``'s residual split, on the clauses a
pinning leaves open, must be the one ``pinned_decompose`` finds by
scanning every clause under the pinning."""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import (
    CapExceededError, DomainError, InfeasiblePinningError, KsatError, generate_random_kcnf,
)
from ksat.formula import _check_cap, bit_positions, mask_to_assignment, satisfies_mask, var_mask
from ksat.marginals import ExecPlan, component_key, draw_exec, plan_for, solution_store
from ksat.marking import Marking
from ksat.rng import make_rng, subsample
from ksat.sampler import ChainTrace, SamplerConfig, _Chain, _init_marked, _Lockstep, _run_full


def pinned_decompose(clause_masks, dom, val):
    """The residual of the pinning (dom, val), val inside dom, found by
    scanning every clause: (falsified, groups) as marginals.decompose
    returns them, the first clause with every literal pinned false named."""
    groups = []
    false_lits = dom & ~val
    free = ~dom
    for cid, (pos, neg) in enumerate(clause_masks):
        if pos & val or neg & false_lits:
            continue
        fpos = pos & free
        fneg = neg & free
        mask = fpos | fneg
        if not mask:
            return cid, []
        clauses = [(fpos, fneg)]
        for i in range(len(groups) - 1, -1, -1):
            gmask, gclauses = groups[i]
            if gmask & mask:
                mask |= gmask
                clauses += gclauses
                del groups[i]
        groups.append((mask, clauses))
    groups.sort(key=lambda g: g[0] & -g[0])
    return None, groups


def pinned_build_exec(clause_masks, solutions, dom, val, targets_mask, cap):
    """The draw schedule for the targets under the whole pinning (dom, val),
    built from pinned_decompose's residual."""
    falsified, groups = pinned_decompose(clause_masks, dom, val)
    if falsified is not None:
        raise InfeasiblePinningError(f"pinning falsifies clause {falsified}")
    clause_vars_mask = 0
    max_comp_vars = 0
    draws = []
    for mask, clauses in groups:
        clause_vars_mask |= mask
        max_comp_vars = max(max_comp_vars, mask.bit_count())
        if not mask & targets_mask:
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
        rest = mask & targets_mask
        while rest:
            gb = rest & -rest
            pairs.append(((mask & (gb - 1)).bit_count(), gb))
            rest ^= gb
        draws.append((sols, count, (count - 1).bit_length(), tuple(pairs)))
    free_bits = tuple(1 << b for b in bit_positions(targets_mask & ~clause_vars_mask))
    return ExecPlan(tuple(draws), free_bits, max_comp_vars)


@st.composite
def marked_formulas(draw, caps):
    """(formula, certified marking, cap): a random k-CNF on n <= 40
    variables, k = 3-6, a random nonempty marked set and a cap from caps."""
    k = draw(st.integers(3, 6))
    n = draw(st.integers(k, 40))
    m = draw(st.integers(n // 4, 2 * n))
    f = generate_random_kcnf(n, m, k, seed=draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    rnd = make_rng(draw(st.integers(0, 2**32)))
    marked = [v for v in range(1, n + 1) if rnd.random() < density] or [n]
    return f, Marking(frozenset(marked), 1, 1, certified=True), draw(st.sampled_from(caps))


def _outcome(call):
    """call()'s result, or its error's type and message: both paths name a
    falsified clause by its id."""
    try:
        return call()
    except KsatError as exc:
        return type(exc).__name__, str(exc)


def _as_tuple(e, extra_free=()):
    draws = tuple((sols.tolist(), count, width, pairs) for sols, count, width, pairs in e.draws)
    return draws, e.free_bits + tuple(extra_free), e.max_comp_vars


@settings(max_examples=300, deadline=None)
@given(marked_formulas([1 << 4, 1 << 8, 1 << 12]), st.data())
def test_keyed_step_schedule_matches_the_whole_pinning(case, data):
    f, m, cap = case
    chain = _Chain(f, m, SamplerConfig(theta=1.0, t_max=0, seed=0, cap=cap))
    marked = chain.marked_mask
    s_mask = data.draw(st.integers(1, marked)) & marked or marked & -marked
    xbits = data.draw(st.integers(0, marked)) & marked
    dom = marked & ~s_mask
    # U and V(U), straight from the clauses' literals
    open_ids = vars_u = 0
    for cid, clause in enumerate(f.clauses):
        if not any(dom >> (lit.var - 1) & 1 and (xbits >> (lit.var - 1) & 1) == lit.sign
                   for lit in clause):
            open_ids |= 1 << cid
            vars_u |= var_mask(lit.var for lit in clause)
    targets = s_mask & vars_u
    free = chain.unmarked_mask | targets
    appended = tuple(1 << b for b in bit_positions(s_mask & ~targets))

    whole = _outcome(lambda: _as_tuple(
        pinned_build_exec(f._clause_masks, solution_store(f), dom, xbits & dom, s_mask, cap)
    ))
    keyed = _outcome(lambda: _as_tuple(chain.steps(open_ids, targets, free, cap), appended))
    assert keyed == whole
    if not isinstance(keyed[0], str):
        assert keyed[1] == appended  # the keyed schedule has no free target itself

    def step():
        e, rest = chain.step(s_mask, xbits)
        return _as_tuple(e, (1 << b for b in bit_positions(rest)))

    assert _outcome(step) == whole
    lock = _Lockstep(chain)
    assert _outcome(lambda: _as_tuple(lock._step_plan(s_mask << f.n | xbits & dom))) == whole


def _whole_pinning_run(chain, rng):
    """_run_full as it was when each step read the schedule of its whole
    pinning (dom, X(dom), S), here built uncached by pinned_build_exec."""
    f = chain.f
    trace = ChainTrace()
    xbits = _init_marked(chain, rng, trace)
    hist = trace.step_component_hist = [0] * (f.n + 1)
    for _ in range(chain.cfg.t_max):
        s_mask = var_mask(subsample(rng, chain.marked, chain.block))
        dom = chain.marked_mask & ~s_mask
        e = pinned_build_exec(
            f._clause_masks, solution_store(f), dom, xbits & dom, s_mask, chain.cfg.cap
        )
        xbits = draw_exec(e, rng, xbits)
        hist[e.max_comp_vars] += 1
        trace.steps += 1
    ext = pinned_build_exec(
        f._clause_masks, solution_store(f), chain.marked_mask, xbits, chain.unmarked_mask,
        chain.cfg.cap,
    )
    trace.extension_max_component = ext.max_comp_vars
    bits = draw_exec(ext, rng, xbits)
    assert satisfies_mask(f, bits)
    return mask_to_assignment(bits, f.n), trace


@settings(max_examples=200, deadline=None)
@given(
    marked_formulas([1 << 12, 1 << 16]),
    st.sampled_from([0.1, 0.3, 0.5, 1.0]),
    st.integers(1, 20),
    st.integers(0, 2**32),
)
def test_run_full_matches_the_whole_pinning_step_loop(case, theta, t_max, seed):
    f, m, cap = case
    chain = _Chain(f, m, SamplerConfig(theta=theta, t_max=t_max, seed=seed, cap=cap))

    def outcome(run):
        try:
            a, trace = run(chain, make_rng(seed))
        except (CapExceededError, DomainError) as exc:
            return type(exc).__name__, str(exc)
        return a, asdict(trace)

    assert outcome(_run_full) == outcome(_whole_pinning_run)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 3 * n), st.integers(1, min(n, 5)), st.integers(0, 2**32),
        st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
    ))
)
def test_plan_for_matches_the_pinned_decomposition(case):
    """Under a random pinning, plan_for's groups (masks, clauses and their
    order) and falsified clause id are pinned_decompose's."""
    n, m, k, seed, dom, val = case
    f = generate_random_kcnf(n, m, k, seed=seed)
    plan = plan_for(f, dom, val)
    falsified, groups = pinned_decompose(f._clause_masks, dom, val & dom)
    assert plan.falsified_clause == falsified
    assert [(c.mask, c.clauses) for c in plan.comps] == groups
