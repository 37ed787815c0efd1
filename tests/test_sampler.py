import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ksat import Formula, UsageError, enumerate_solutions, generate_random_kcnf, is_satisfying
from ksat.errors import DomainError
from ksat.marginals import exec_store, sample_conditional
from ksat.marking import Marking, find_marking
from ksat.rng import make_rng
from ksat.sampler import (
    ChainTrace,
    SamplerConfig,
    _Chain,
    _run_full,
    _run_marked_chain,
    check_chain_uniformity,
    default_t_max,
    estimate_tv,
    run_block_dynamics,
)


def trivial_marking(marked, k_m=0, k_u=0):
    return Marking(frozenset(marked), k_m, k_u, certified=True)


def full_block_cfg(n_marked, seed, t_max=1):
    return SamplerConfig(theta=1.0, t_max=t_max, seed=seed)


def test_unique_solution_formula():
    f = Formula.from_ints(2, [[1], [-2]])
    m = trivial_marking({1})
    for seed in range(5):
        a, trace = run_block_dynamics(f, m, SamplerConfig(theta=1.0, t_max=3, seed=seed))
        assert a == (1, 0)


def test_repeated_run_reads_every_schedule_from_the_store():
    """A second run_block_dynamics call on the same (f, m, cfg) builds no
    schedule: each chain reads the formula's store, so the first call's
    schedules serve every step of the second, and the output repeats."""
    f = generate_random_kcnf(12, 12, 4, seed=4)
    m = find_marking(f, 1, 1, seed=3)
    assert m.certified
    cfg = SamplerConfig(theta=0.3, t_max=100, seed=9)
    first = run_block_dynamics(f, m, cfg)
    misses = exec_store(f).cache_info().misses
    assert misses > 1
    assert run_block_dynamics(f, m, cfg) == first
    assert exec_store(f).cache_info().misses == misses


def test_empty_formula_uniform_output():
    f = Formula(3, ())
    m = trivial_marking({1, 2})
    counts = Counter()
    runs = 20_000
    master = make_rng(8)
    for _ in range(runs):
        a, _ = run_block_dynamics(
            f, m, SamplerConfig(theta=0.5, t_max=2, seed=master.getrandbits(63))
        )
        counts[a] += 1
    for cell, c in counts.items():
        assert abs(c / runs - 1 / 8) < 0.02


def test_every_output_satisfies():
    rng = make_rng(91)
    for _ in range(5):
        f = generate_random_kcnf(9, 9, 4, seed=rng)
        m = find_marking(f, 1, 1, seed=1)
        if not m.certified:
            continue
        cfg = SamplerConfig(theta=0.4, t_max=10, seed=5)
        a, trace = run_block_dynamics(f, m, cfg)
        assert is_satisfying(f, a)
        assert trace.steps == 10


def test_reproducible():
    f = generate_random_kcnf(9, 8, 4, seed=12)
    m = find_marking(f, 1, 1, seed=1)
    assert m.certified
    cfg = SamplerConfig(theta=0.3, t_max=25, seed=777)
    a1, t1 = run_block_dynamics(f, m, cfg)
    a2, t2 = run_block_dynamics(f, m, cfg)
    assert a1 == a2
    assert t1.step_component_hist == t2.step_component_hist


def test_full_block_single_step_is_exact():
    # one full heat-bath step from any start is an exact mu sample;
    # |Omega| = 90 here, so the 30k-run noise floor is ~0.022
    f = generate_random_kcnf(8, 14, 4, seed=11)
    m = find_marking(f, 1, 1, seed=2)
    assert m.certified
    cfg = SamplerConfig(theta=1.0, t_max=1, seed=4242)
    est = estimate_tv(f, m, cfg, runs=30_000)
    assert est.tv <= 0.03


def test_partial_block_converges():
    f = generate_random_kcnf(8, 14, 4, seed=11)
    m = find_marking(f, 1, 1, seed=2)
    cfg = SamplerConfig(theta=0.3, t_max=60, seed=99)
    est = estimate_tv(f, m, cfg, runs=30_000)
    assert est.tv <= 0.05


def test_no_steps_plus_extension_has_visible_bias():
    # (x1 v x2) with only x1 marked: uniform bits on x1 give P(x1=1)=1/2,
    # while mu(x1=1)=2/3; the full output law has TV 1/6 from uniform.
    f = Formula.from_ints(2, [[1, 2]])
    m = trivial_marking({1}, 1, 1)
    cfg = SamplerConfig(theta=1.0, t_max=0, seed=3)
    est = estimate_tv(f, m, cfg, runs=30_000)
    assert abs(est.tv - 1 / 6) < 0.02


def test_chain_matches_manual_sample_conditional_composition():
    # the fast path must consume randomness exactly like sample_conditional
    f = generate_random_kcnf(8, 8, 3, seed=71)
    m = find_marking(f, 1, 1, seed=5)
    assert m.certified
    cfg = SamplerConfig(theta=0.4, t_max=7, seed=2024)
    a, _ = run_block_dynamics(f, m, cfg)

    # manual replay with the same portable stream
    from ksat.rng import rand_bit, subsample

    marked = sorted(m.marked)
    rng = make_rng(2024)
    while True:
        x = {v: rand_bit(rng) for v in marked}
        try:
            sample_conditional(f, x, [v for v in range(1, f.n + 1) if v not in x], make_rng(0))
        except Exception:
            continue
        break
    block = math.ceil(cfg.theta * len(marked))
    for _ in range(cfg.t_max):
        s = sorted(subsample(rng, marked, block))
        pin = {v: x[v] for v in marked if v not in s}
        upd = sample_conditional(f, pin, s, rng)
        x.update(upd)
    ext = sample_conditional(f, x, [v for v in range(1, f.n + 1) if v not in x], rng)
    manual = tuple((x | ext)[v] for v in range(1, f.n + 1))
    assert manual == a


def test_stationarity_of_one_block_step():
    # starting from an exact marked sample, one step preserves the marked law
    scipy_stats = pytest.importorskip("scipy.stats")
    f = generate_random_kcnf(7, 6, 3, seed=55)
    m = find_marking(f, 1, 1, seed=3)
    assert m.certified
    marked = sorted(m.marked)
    sols = enumerate_solutions(f)
    mu_m = Counter(tuple(s[v - 1] for v in marked) for s in sols)
    total = sum(mu_m.values())

    runs = 10**5
    master = make_rng(1001)
    counts = Counter()
    cfg = SamplerConfig(theta=0.34, t_max=1, seed=0)
    for _ in range(runs):
        rng = make_rng(master.getrandbits(63))
        start = sample_conditional(f, {}, marked, rng)
        chain = _Chain(f, m, SamplerConfig(theta=0.34, t_max=1, seed=0, init=start))
        xbits = _run_marked_chain(chain, rng, ChainTrace())
        counts[tuple((xbits >> (v - 1)) & 1 for v in marked)] += 1

    patterns = sorted(mu_m)
    observed = [counts.get(p, 0) for p in patterns]
    expected = [runs * mu_m[p] / total for p in patterns]
    assert sum(counts.values()) == runs
    assert set(counts) <= set(patterns)
    chi2, pvalue = scipy_stats.chisquare(observed, expected)
    assert pvalue > 1e-3


def test_chain_uniformity_t0_uniform_product():
    f = Formula(4, ())
    m = trivial_marking({1, 2, 3, 4})
    cfg = SamplerConfig(theta=0.5, t_max=0, seed=6)
    rep = check_chain_uniformity(f, m, cfg, trials=4000, n_subsets=10, s=4)
    assert rep.ok
    singles = [c for c in rep.cells if len(c.subset) == 1]
    for c in singles:
        assert abs(c.frequency - 0.5) < 0.05


def test_chain_uniformity_pairs_on_independent_vars():
    f = Formula(4, ())
    m = trivial_marking({1, 2, 3, 4})
    cfg = SamplerConfig(theta=0.5, t_max=3, seed=7)
    rep = check_chain_uniformity(
        f, m, cfg, trials=4000, n_subsets=8, subset_sizes=(2,), s=4
    )
    assert rep.ok
    for c in rep.cells:
        assert abs(c.frequency - 0.25) < 0.05


def test_invalid_configs_rejected():
    f = Formula.from_ints(2, [[1, 2]])
    m = trivial_marking({1})
    with pytest.raises(UsageError):
        run_block_dynamics(f, m, SamplerConfig(theta=0.0, t_max=1, seed=1))
    with pytest.raises(UsageError):
        run_block_dynamics(f, m, SamplerConfig(theta=0.5, t_max=-1, seed=1))
    uncertified = Marking(frozenset({1}), 1, 1, certified=False)
    with pytest.raises(UsageError):
        run_block_dynamics(f, uncertified, SamplerConfig(theta=1.0, t_max=1, seed=1))


@pytest.mark.parametrize("runs", [0, -3])
def test_estimate_tv_rejects_runs_below_one(runs):
    f = Formula.from_ints(2, [[1, 2]])
    cfg = SamplerConfig(theta=0.5, t_max=1, seed=1)
    with pytest.raises(UsageError, match="runs must be >= 1"):
        estimate_tv(f, trivial_marking({1, 2}), cfg, runs=runs)


@pytest.mark.parametrize("trials", [0, -3])
def test_chain_uniformity_rejects_trials_below_one(trials):
    f = Formula.from_ints(2, [[1, 2]])
    cfg = SamplerConfig(theta=0.5, t_max=1, seed=1)
    with pytest.raises(UsageError, match="trials must be >= 1"):
        check_chain_uniformity(f, trivial_marking({1, 2}), cfg, trials=trials)


def test_default_t_max_positive():
    assert default_t_max(0.3, 20) >= 1


def test_per_step_component_sizes_logged_and_bounded():
    # every step's conditioning components are recorded; at this density the
    # max stays within a small multiple of log n (the paper-regime shape)
    f = generate_random_kcnf(30, 9, 4, seed=21)
    m = find_marking(f, 1, 1, seed=2)
    assert m.certified
    cfg = SamplerConfig(theta=0.3, t_max=40, seed=12)
    _, trace = run_block_dynamics(f, m, cfg)
    assert sum(trace.step_component_hist) == 40
    bound = 8 * math.log(f.n)
    assert trace.max_step_component <= bound


@st.composite
def certified_chains(draw):
    """(random k-CNF on n <= 12 variables with 2 <= k <= 4, a certified
    (1, 1) marking of it). Dense draws make unsatisfiable formulas common."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, min(n, 4)))
    f = generate_random_kcnf(n, draw(st.integers(0, 4 * n)), k, seed=draw(st.integers(0, 2**32)))
    m = find_marking(f, 1, 1, seed=draw(st.integers(0, 2**32)))
    assume(m.certified and m.marked)
    return f, m


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    certified_chains(),
    st.sampled_from([0.2, 0.5, 1.0]),
    st.booleans(),
    st.integers(0, 30),
    st.integers(0, 2**32),
)
def test_step_and_extension_plans_are_always_feasible(chain_case, theta, with_init, t_max, seed):
    """A chain state X(M) always has a satisfying extension: the accepted
    initial assignment has one and every draw is exact. So once the init
    is accepted, the plan of every step and of the final extension is
    feasible, and each step asks for exactly one plan."""
    f, m = chain_case
    init = None
    if with_init:
        sols = enumerate_solutions(f)
        assume(sols)
        sol = sols[seed % len(sols)]
        init = {v: sol[v - 1] for v in m.marked}
    chain = _Chain(f, m, SamplerConfig(theta=theta, t_max=t_max, seed=seed, init=init))
    plans = []  # each schedule asked for, None where the pinning was infeasible
    inner = chain.store

    def recording_store(dom, val, targets, cap):
        plans.append(None)
        plans[-1] = inner(dom, val, targets, cap)
        return plans[-1]

    chain.store = recording_store
    try:
        _run_full(chain, make_rng(seed))
    except DomainError:
        # only a random init gives up, on finding no feasible draw
        assert init is None and all(p is None for p in plans)
        return
    accepted = next(i for i, p in enumerate(plans) if p is not None)
    assert all(p is not None for p in plans[accepted:])
    assert len(plans) - accepted == t_max + 2
