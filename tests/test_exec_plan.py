"""The block step's draw schedule against plan_for and the enumeration oracle,
the bound on the solution cache, and the contract of each formula's
schedule store."""

import gc
import weakref
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksat import CapExceededError, Formula, InfeasiblePinningError
from ksat import enumerate_solutions, generate_random_kcnf
from ksat import marginals
from ksat.classify import classify, default_delta, good_induced_formula
from ksat.marginals import DEFAULT_CAP, draw_exec, exact_marginal, exec_store, plan_for
from ksat.marking import Marking, default_quotas, find_marking
from ksat.rng import as_rng, make_rng
from ksat.sampler import SamplerConfig, _Chain, _run_full, run_block_dynamics


@st.composite
def chain_cases(draw):
    """(formula, marked set, dom, val) with dom inside the marked set, as
    every block step and the final extension pin it."""
    n = draw(st.integers(1, 12))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 4), unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    f = Formula.from_ints(n, draw(st.lists(clause, max_size=14)))
    marked = draw(st.integers(1, (1 << n) - 1))
    dom = draw(st.integers(0, (1 << n) - 1)) & marked
    val = draw(st.integers(0, (1 << n) - 1)) & dom
    return f, marked, dom, val


def reference_exec(f, dom, val, targets, cap):
    """The draw schedule assembled from plan_for's components, or None when
    the pinning is infeasible."""
    plan = plan_for(f, dom, val)
    if not plan.ok:
        return None
    draws = []
    for comp in plan.comps:
        pairs = tuple(
            (comp.vars.index(v), 1 << (v - 1)) for v in comp.vars if (targets >> (v - 1)) & 1
        )
        if not pairs:
            continue
        sols = comp.solutions(cap)
        if len(sols) == 0:
            return None
        draws.append((sols.tolist(), len(sols), (len(sols) - 1).bit_length(), pairs))
    free = tuple(
        1 << b for b in range(f.n) if (targets >> b) & 1 and plan.component_of(b + 1) is None
    )
    return tuple(draws), free, plan.max_comp_vars


def as_tuple(e):
    draws = tuple((sols.tolist(), count, width, pairs) for sols, count, width, pairs in e.draws)
    return draws, e.free_bits, e.max_comp_vars


@settings(max_examples=300, deadline=None)
@given(chain_cases(), st.integers(0, 2**32))
def test_exec_plan_matches_plan_for_and_oracle(case, seed):
    f, marked, dom, val = case
    m = Marking(frozenset(v for v in range(1, f.n + 1) if (marked >> (v - 1)) & 1), 0, 0, True)
    chain = _Chain(f, m, SamplerConfig(theta=1.0, t_max=1, seed=0))
    targets = marked & ~dom or chain.unmarked_mask
    try:
        e = chain.store(dom, val, targets, DEFAULT_CAP)
    except InfeasiblePinningError:
        e = None
    want = reference_exec(f, dom, val, targets, DEFAULT_CAP)
    if want is not None:
        assert as_tuple(e) == want
    else:
        assert e is None

    # every completion the schedule draws extends to a solution under the
    # pinning; when one exists, the schedule is feasible
    fixed = dom | targets
    conditional = set()
    for s in enumerate_solutions(f):
        bits = sum(b << i for i, b in enumerate(s))
        if bits & dom == val:
            conditional.add(bits & fixed)
    if conditional:
        assert e is not None
    if e is not None:
        rng = make_rng(seed)
        for _ in range(4):
            bits = draw_exec(e, rng, val)
            assert bits & ~fixed == 0
            assert bits & dom == val
            if conditional:
                assert bits in conditional


def test_solution_cache_evicts_oldest_within_budget(monkeypatch):
    """A budget too small for one component's solutions leaves it uncached;
    one that holds two entries keeps the newest two."""
    monkeypatch.setattr(marginals, "_SOL_CACHE", OrderedDict())
    monkeypatch.setattr(marginals, "_sol_cache_bytes", 0)
    keys = [(3, ((1 << i, 0),)) for i in range(3)]  # x_i: 4 solutions each
    cost = marginals._sol_entry_bytes(keys[0], marginals.component_solutions(keys[0], 8))
    assert marginals._sol_cache_bytes == cost
    monkeypatch.setattr(marginals, "_SOL_CACHE_BYTES", 2 * cost)
    for key in keys[1:]:
        marginals.component_solutions(key, 8)
    assert list(marginals._SOL_CACHE) == keys[1:]
    assert marginals._sol_cache_bytes == 2 * cost
    monkeypatch.setattr(marginals, "_SOL_CACHE_BYTES", cost - 1)
    sols = marginals.component_solutions((3, ((7, 0),)), 8)
    assert len(sols) == 7
    assert (3, ((7, 0),)) not in marginals._SOL_CACHE


def test_store_keys_on_cap():
    """A schedule stored under the default cap does not answer a call with
    a cap too small for the component."""
    wide = generate_random_kcnf(12, 14, 3, seed=3)
    p = exact_marginal(wide, {}, 1)
    hits = exec_store(wide).cache_info().hits
    assert exact_marginal(wide, {}, 1) == p
    assert exec_store(wide).cache_info().hits == hits + 1
    with pytest.raises(CapExceededError):
        exact_marginal(wide, {}, 1, cap=4)


def test_store_does_not_keep_errors():
    falsified = Formula.from_ints(2, [[1], [1, 2]])
    empty = Formula.from_ints(2, [[1], [-1]])  # component {1} has no solution
    for f, x in ((falsified, {1: 0}), (empty, {})):
        for _ in range(2):
            misses = exec_store(f).cache_info().misses
            with pytest.raises(InfeasiblePinningError):
                exact_marginal(f, x, 2)
            info = exec_store(f).cache_info()
            assert info.misses == misses + 1 and info.currsize == 0


def test_store_is_bounded_and_dies_with_its_formula(monkeypatch):
    """A store keeps at most _EXEC_CACHE_ENTRIES schedules, and with the
    cycle collector off, dropping the formula frees the formula and its
    store: nothing but the formula holds the store, and the store holds no
    reference back."""
    monkeypatch.setattr(marginals, "_EXEC_CACHE_ENTRIES", 5)
    f = Formula.from_ints(6, [[1, 2, 3], [-3, 4], [4, -5, 6]])
    store = exec_store(f)
    assert exec_store(f) is store
    for dom in range(1 << 6):
        for v in range(1, 7):
            if not (dom >> (v - 1)) & 1:
                try:
                    marginals.marginal_counts(f, dom, 0, v)
                except InfeasiblePinningError:
                    pass
    info = store.cache_info()
    assert info.maxsize == 5 and info.currsize == 5
    refs = weakref.ref(f), weakref.ref(store)
    del f, store
    gc.disable()
    try:
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def _n40_instance():
    f = generate_random_kcnf(40, 8, 5, seed=0)
    cl = classify(f, delta=default_delta(5, 8 / 40), zeta=0.3, k=5)
    good = good_induced_formula(f, cl, force=True)
    m = find_marking(good, *default_quotas(5, 0.3), seed=499911826, eligible=cl.v_good)
    assert m.certified
    return f, m


def _chains(f, m, seeds):
    """Run one chain per seed, and per chain take the exact marginal of each
    marked variable under its final marked pinning with that variable
    freed, as looseness checks do. Returns the outputs, the marginals, and
    the largest solution-cache charge and store size seen."""
    marked = sorted(m.marked)
    outputs, probs = [], []
    most_bytes = most_execs = 0
    for seed in seeds:
        chain = _Chain(f, m, SamplerConfig(theta=0.3, t_max=2050, seed=seed))
        a, _ = _run_full(chain, as_rng(seed))
        outputs.append(a)
        for v in marked:
            probs.append(exact_marginal(f, {u: a[u - 1] for u in marked if u != v}, v))
        sols = marginals._SOL_CACHE
        assert marginals._sol_cache_bytes == sum(
            marginals._sol_entry_bytes(k, s) for k, s in sols.items()
        )
        execs = chain.store.cache_info()
        assert execs.currsize <= execs.maxsize
        most_bytes = max(most_bytes, marginals._sol_cache_bytes)
        most_execs = max(most_execs, execs.currsize)
    return outputs, probs, most_bytes, most_execs


def test_caches_stay_bounded_over_many_chains(monkeypatch):
    """60 chains at n=40, m=8, k=5, theta=0.3, under bounds small enough
    that the solution cache and the formula's schedule store evict: they
    stay inside their bounds, and the outputs are those under the default
    bounds."""
    f, m = _n40_instance()
    monkeypatch.setattr(marginals, "_SOL_CACHE", OrderedDict())
    monkeypatch.setattr(marginals, "_sol_cache_bytes", 0)
    monkeypatch.setattr(marginals, "_SOL_CACHE_BYTES", 1 << 16)
    monkeypatch.setattr(marginals, "_EXEC_CACHE_ENTRIES", 200)
    outputs, probs, most_bytes, most_execs = _chains(f, m, range(60))
    assert (1 << 16) - 4096 < most_bytes <= 1 << 16  # filled up to the budget
    assert most_execs == 200  # filled up to the bound

    monkeypatch.undo()
    f = Formula(f.n, f.clauses)  # an equal formula with a default-bound store
    assert exec_store(f).cache_info().maxsize == marginals._EXEC_CACHE_ENTRIES
    assert run_block_dynamics(f, m, SamplerConfig(theta=0.3, t_max=2050, seed=0))[0] == outputs[0]
    assert _chains(f, m, range(3))[:2] == (outputs[:3], probs[: 3 * len(m.marked)])
