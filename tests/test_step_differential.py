"""The block step keyed by its open clauses against the step it replaced.

A step redraws the block S of the marked set M given X(M \\ S). Its law
depends only on the clauses U that X(M \\ S) leaves unsatisfied: the
chain reads the schedule of S & V(U) on U from the formula's schedule
store, then draws one fair bit per variable of S \\ V(U). Here that
schedule, with those bits appended, must be the one ``build_exec`` gives
under the whole pinning, as must ``_Chain.step``'s and the lockstep
chain's step row source, and ``_run_full`` must give what the
whole-pinning step loop gave, on n <= 40 formulas with k = 3-6."""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import CapExceededError, DomainError, KsatError, generate_random_kcnf
from ksat.formula import bit_positions, mask_to_assignment, satisfies_mask, var_mask
from ksat.marginals import build_exec, draw_exec, solution_store
from ksat.marking import Marking
from ksat.rng import make_rng, subsample
from ksat.sampler import ChainTrace, SamplerConfig, _Chain, _init_marked, _Lockstep, _run_full


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
        build_exec(f._clause_masks, solution_store(f), dom, xbits & dom, s_mask, cap)
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
    pinning (dom, X(dom), S), here built uncached by build_exec."""
    f = chain.f
    trace = ChainTrace()
    xbits = _init_marked(chain, rng, trace)
    hist = trace.step_component_hist = [0] * (f.n + 1)
    for _ in range(chain.cfg.t_max):
        s_mask = var_mask(subsample(rng, chain.marked, chain.block))
        dom = chain.marked_mask & ~s_mask
        e = build_exec(f._clause_masks, solution_store(f), dom, xbits & dom, s_mask, chain.cfg.cap)
        xbits = draw_exec(e, rng, xbits)
        hist[e.max_comp_vars] += 1
        trace.steps += 1
    ext = build_exec(
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
