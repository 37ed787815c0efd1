import math
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ksat import Formula, UsageError, enumerate_solutions, generate_random_kcnf, is_satisfying
from ksat import sampler
from ksat.errors import DomainError
from ksat.formula import mask_to_assignment
from ksat.marginals import DEFAULT_CAP, open_store, sample_conditional
from ksat.marking import Marking, find_marking
from ksat.rng import make_rng, spawn_seed
from ksat.sampler import (
    _MAX_REJECTS,
    ChainTrace,
    SamplerConfig,
    TvEstimate,
    _Chain,
    _Lockstep,
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
    schedule: each chain reads the formula's stores, so the first call's
    schedules serve every step of the second, and the output repeats."""
    f = generate_random_kcnf(12, 12, 4, seed=4)
    m = find_marking(f, 1, 1, seed=3)
    assert m.certified
    cfg = SamplerConfig(theta=0.3, t_max=100, seed=9)
    first = run_block_dynamics(f, m, cfg)
    misses = open_store(f).cache_info().misses
    assert misses > 1
    assert run_block_dynamics(f, m, cfg) == first
    assert open_store(f).cache_info().misses == misses


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


def test_chain_uniformity_flags_a_forced_marked_variable():
    # x1 = 1 in every solution and x2 is free: the cell x1 = 1 has
    # frequency 1 > (1/2) e^(1/4) + 3 sigma, every x2 cell about 1/2
    f = Formula.from_ints(2, [[1]])
    cfg = SamplerConfig(theta=0.5, t_max=5, seed=3)
    trials, z = 200, 3.0
    rep = check_chain_uniformity(
        f, trivial_marking({1, 2}), cfg, trials=trials, n_subsets=6, subset_sizes=(1,), s=4, z=z
    )
    assert {(c.subset, c.pattern) for c in rep.violations} == {((1,), (1,))}
    assert {c.subset for c in rep.cells} == {(1,), (2,)}
    for c in rep.cells:
        sigma = math.sqrt(max(c.frequency * (1 - c.frequency), 1e-12) / trials)
        assert c.bound == 0.5 * math.exp(1 / 4)
        assert c.slack == pytest.approx(c.bound + z * sigma - c.frequency, abs=1e-12)
    assert not rep.ok


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


def test_estimate_tv_halfwidth_is_the_binomial_95_percent_interval():
    # two solutions with frequencies 1/2 +- tv: the widest cell's
    # half-width is 1.96 sqrt((1/4 - tv^2) / runs)
    runs = 400
    est = estimate_tv(Formula(1, ()), trivial_marking({1}), SamplerConfig(1.0, 1, seed=4), runs)
    assert 0 < est.tv < 0.1
    expected = 1.96 * math.sqrt((0.25 - est.tv**2) / runs)
    assert est.max_cell_halfwidth == pytest.approx(expected, rel=1e-9)


def test_estimate_tv_rejects_an_unsatisfiable_formula():
    f = Formula.from_ints(2, [[1], [-1, 2], [-2]])
    cfg = SamplerConfig(theta=0.5, t_max=1, seed=1)
    with pytest.raises(DomainError, match="no solutions to compare against"):
        estimate_tv(f, trivial_marking({1, 2}), cfg, runs=5)


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


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"s": 0}, "s must be positive"),
        ({"s": -1}, "s must be positive"),
        ({"subset_sizes": ()}, "subset_sizes must be non-empty"),
        ({"subset_sizes": (1, -1)}, "subset_sizes must be non-empty and >= 0"),
    ],
)
def test_chain_uniformity_rejects_bad_parameters(kwargs, match):
    """s must be positive and subset_sizes a non-empty list of sizes >= 0."""
    f = Formula.from_ints(3, [[1, 2, 3]])
    cfg = SamplerConfig(theta=0.5, t_max=1, seed=1)
    with pytest.raises(UsageError, match=match):
        check_chain_uniformity(f, trivial_marking({1, 2}), cfg, trials=5, **kwargs)


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
    feasible, and each step asks its store for exactly one plan."""
    f, m = chain_case
    init = None
    if with_init:
        sols = enumerate_solutions(f)
        assume(sols)
        sol = sols[seed % len(sols)]
        init = {v: sol[v - 1] for v in m.marked}
    chain = _Chain(f, m, SamplerConfig(theta=theta, t_max=t_max, seed=seed, init=init))
    plans = []  # each schedule asked for, None where the pinning was infeasible

    def recording(inner):
        def store(*key):
            plans.append(None)
            plans[-1] = inner(*key)
            return plans[-1]

        return store

    # the extension reads the schedule store by its pinning, each step by its
    # open clauses
    chain.extension = recording(chain.extension)
    chain.steps = recording(chain.steps)
    try:
        _run_full(chain, make_rng(seed))
    except DomainError:
        # only a random init gives up, on finding no feasible draw
        assert init is None and all(p is None for p in plans)
        return
    accepted = next(i for i, p in enumerate(plans) if p is not None)
    assert all(p is not None for p in plans[accepted:])
    assert len(plans) - accepted == t_max + 2


# ---------------------------------------------- lockstep estimate_tv


def scalar_estimate_tv(f, m, cfg, runs):
    """estimate_tv as a loop of scalar chains: the reference the lockstep
    chains must match. Returns (TvEstimate, each run's final assignment)."""
    sols = enumerate_solutions(f)
    if not sols:
        raise DomainError("formula has no solutions to compare against")
    chain = _Chain(f, m, cfg)
    master = make_rng(cfg.seed)
    counts = Counter()
    finals = []
    max_comp = 0
    for _ in range(runs):
        a, trace = _run_full(chain, make_rng(spawn_seed(master)))
        counts[a] += 1
        finals.append(a)
        max_comp = max(max_comp, trace.max_component)
    p = 1.0 / len(sols)
    tv = 0.5 * sum(abs(counts.get(s, 0) / runs - p) for s in sols)
    halfwidth = max(
        1.96 * math.sqrt(max(c / runs * (1 - c / runs), 0.0) / runs) for c in counts.values()
    )
    return TvEstimate(tv, runs, len(sols), halfwidth, max_comp), finals


def lockstep_finals(f, m, cfg, runs):
    """Each run's final assignment from the lockstep chains, or None when
    some run fails."""
    master = make_rng(cfg.seed)
    seeds = [spawn_seed(master) for _ in range(runs)]
    final = _Lockstep(_Chain(f, m, cfg)).run(seeds)
    return None if final is None else [mask_to_assignment(x, f.n) for x in final.tolist()]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, UsageError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    certified_chains(),
    st.sampled_from([1.0, 0.5, 0.3]),
    st.sampled_from([None, "solution", "bits"]),
    st.integers(0, 25),
    st.integers(1, 40),
    st.sampled_from([4, 16, DEFAULT_CAP]),
    st.integers(0, 2**32),
)
def test_lockstep_estimate_tv_matches_scalar_chains(chain_case, theta, init_from, t_max, runs, cap, seed):
    """The lockstep chains give every run's final assignment, the
    TvEstimate and any error of a loop of scalar chains, without init, from
    a solution's marked values, or from arbitrary bits, which may be
    infeasible. Small caps make CapExceededError common."""
    f, m = chain_case
    sols = enumerate_solutions(f)
    init = None
    if init_from == "solution" and sols:
        sol = sols[seed % len(sols)]
        init = {v: sol[v - 1] for v in m.marked}
    elif init_from == "bits":
        init = {v: seed >> i & 1 for i, v in enumerate(sorted(m.marked))}
    cfg = SamplerConfig(theta=theta, t_max=t_max, seed=seed, cap=cap, init=init)
    want = outcome(scalar_estimate_tv, f, m, cfg, runs)
    got = outcome(estimate_tv, f, m, cfg, runs)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    est, finals = want
    assert got == est
    assert lockstep_finals(f, m, cfg, runs) == finals


@pytest.mark.parametrize("knobs", [{}, {"_WINDOW": 1}, {"_TABLE_ENTRIES": 0}])
def test_lockstep_chunks_match_scalar_chains(monkeypatch, knobs):
    """Runs split over chunks of 7 give the scalar loop's estimate, field by
    field, and every run's final assignment. So do chains whose rejected
    draws all go on word by word (a one-word look-ahead window) and chains
    whose tables start over at every new key."""
    monkeypatch.setattr(sampler, "_CHUNK_RUNS", 7)
    for name, value in knobs.items():
        monkeypatch.setattr(sampler, name, value)
    f = generate_random_kcnf(9, 9, 4, seed=12)
    m = find_marking(f, 1, 1, seed=1)
    assert m.certified and len(m.marked) >= 3
    for theta, t_max in [(0.3, 40), (1.0, 1)]:
        cfg = SamplerConfig(theta=theta, t_max=t_max, seed=31)
        want, finals = scalar_estimate_tv(f, m, cfg, 30)
        got = estimate_tv(f, m, cfg, 30)
        for name in ("tv", "runs", "n_solutions", "max_cell_halfwidth", "max_component"):
            assert getattr(got, name) == getattr(want, name), name
        assert lockstep_finals(f, m, cfg, 30) == finals


def test_estimate_tv_spawns_each_chunks_seeds_when_it_starts(monkeypatch):
    """Seeds are drawn chunk by chunk, so memory is bounded in runs: while
    chunk c runs, at most 7 (c + 1) seeds have been drawn, and the estimate
    is the scalar loop's."""
    monkeypatch.setattr(sampler, "_CHUNK_RUNS", 7)
    drawn = []
    seen = []

    def counting_spawn_seed(master):
        drawn.append(None)
        return spawn_seed(master)

    def recording_run(self, seeds):
        seen.append(len(drawn))
        return run(self, seeds)

    run = _Lockstep.run
    monkeypatch.setattr(sampler, "spawn_seed", counting_spawn_seed)
    monkeypatch.setattr(_Lockstep, "run", recording_run)
    f = generate_random_kcnf(9, 9, 4, seed=12)
    m = find_marking(f, 1, 1, seed=1)
    cfg = SamplerConfig(theta=0.3, t_max=5, seed=31)
    assert estimate_tv(f, m, cfg, 30) == scalar_estimate_tv(f, m, cfg, 30)[0]
    assert seen == [7, 14, 21, 28, 30]


@pytest.mark.parametrize("hook", ["profile", "trace"])
def test_estimate_tv_under_a_profile_or_trace_hook(hook):
    """cProfile, debuggers and coverage tools run code under sys.setprofile
    or sys.settrace, where ndarray.resize's reference check fails, so the
    lockstep tables must grow without it. Under either hook the estimate is
    the untraced one, and the hook set before is restored."""
    get, set_hook = getattr(sys, f"get{hook}"), getattr(sys, f"set{hook}")
    f = generate_random_kcnf(9, 9, 4, seed=12)
    m = find_marking(f, 1, 1, seed=1)
    cfg = SamplerConfig(theta=0.3, t_max=40, seed=31)
    want = estimate_tv(f, m, cfg, 30)
    calls = []

    def record(frame, event, arg):
        calls.append(event)
        return record

    before = get()
    set_hook(record)
    try:
        got = estimate_tv(f, m, cfg, 30)
    finally:
        set_hook(before)
    assert get() is before
    assert calls
    assert got == want


def test_lockstep_refills_the_rows_of_a_long_chain():
    """A chain reading more words than a row holds refills it in stream
    order: t_max far past _MAX_WORDS words still matches the scalar chain."""
    f = generate_random_kcnf(8, 8, 3, seed=71)
    m = find_marking(f, 1, 1, seed=5)
    assert m.certified
    cfg = SamplerConfig(theta=0.4, t_max=3000, seed=8)
    want, finals = scalar_estimate_tv(f, m, cfg, 5)
    assert estimate_tv(f, m, cfg, 5) == want
    assert lockstep_finals(f, m, cfg, 5) == finals


def init_attempts(seed, n_marked, limit):
    """Fair-bit attempts the random init of a chain seeded with seed makes
    when only the all-ones marked assignment is feasible, or None past
    limit."""
    rng = make_rng(seed)
    for attempt in range(1, limit + 1):
        if all([rng.getrandbits(1) for _ in range(n_marked)]):
            return attempt
    return None


def test_random_init_gives_up_after_max_rejects_plus_one_attempts():
    """Only the all-ones assignment of the 6 marked variables is feasible,
    so an init succeeds with probability 1/64 per attempt. A first run seed
    whose first feasible draw is attempt 101 = _MAX_REJECTS + 1 succeeds,
    with 100 retries; one that needs more raises DomainError. The lockstep
    estimate_tv agrees with the scalar chains on both."""
    f = Formula.from_ints(8, [[1], [2], [3], [4], [5], [6], [7, 8], [-7, -8]])
    m = trivial_marking(range(1, 7))
    found = {}
    master = 0
    while len(found) < 2:
        seed = make_rng(master).getrandbits(63)  # spawn_seed of the first run
        attempts = init_attempts(seed, 6, _MAX_REJECTS + 1)
        if attempts == _MAX_REJECTS + 1:
            found.setdefault("last", (master, seed))
        elif attempts is None:
            found.setdefault("over", (master, seed))
        master += 1
    master, seed = found["last"]
    a, trace = run_block_dynamics(f, m, SamplerConfig(theta=0.5, t_max=3, seed=seed))
    assert trace.init_retries == _MAX_REJECTS
    assert is_satisfying(f, a)
    cfg = SamplerConfig(theta=0.5, t_max=3, seed=master)
    assert estimate_tv(f, m, cfg, 3) == scalar_estimate_tv(f, m, cfg, 3)[0]

    master, seed = found["over"]
    with pytest.raises(DomainError, match="no feasible initial marked assignment"):
        run_block_dynamics(f, m, SamplerConfig(theta=0.5, t_max=3, seed=seed))
    cfg = SamplerConfig(theta=0.5, t_max=3, seed=master)
    assert outcome(estimate_tv, f, m, cfg, 3) == outcome(scalar_estimate_tv, f, m, cfg, 3)
    assert outcome(estimate_tv, f, m, cfg, 3)[0] is DomainError


@pytest.mark.parametrize("value", ["0", "1", 2, -1, None, 0.5])
def test_init_values_other_than_bits_are_rejected(value):
    """init values are read as bits: anything but 0, 1, False or True is a
    UsageError in both chains, rather than a pin to 1 by truthiness."""
    f = Formula.from_ints(3, [[1, 2, 3]])
    m = trivial_marking({1, 2})
    cfg = SamplerConfig(theta=1.0, t_max=2, seed=1, init={1: value, 2: 0})
    with pytest.raises(UsageError, match="init value for 1 must be 0/1"):
        run_block_dynamics(f, m, cfg)
    with pytest.raises(UsageError, match="init value for 1 must be 0/1"):
        estimate_tv(f, m, cfg, 10)
    for ok in (0, 1, False, True):
        a, _ = run_block_dynamics(f, m, SamplerConfig(1.0, 0, seed=1, init={1: ok, 2: 1}))
        assert a[:2] == (int(ok), 1)
