"""Golden seeds for the block dynamics sampler.

The README promises bit reproducibility from seeds. These tests pin exact
outputs, so a change that reorders or adds a random draw, or changes which
component solution an index picks, fails here even when the output law is
still right.
"""

import pytest

from ksat import CapExceededError, generate_random_kcnf
from ksat.classify import classify, default_delta, good_induced_formula
from ksat.marginals import sample_conditional
from ksat.marking import default_quotas, find_marking
from ksat.sampler import SamplerConfig, default_t_max, estimate_tv, run_block_dynamics


def _criterion2_instance():
    """k=4, n=m=9 with a (1, 1) marking, as in criterion 2; its first
    marked draw is infeasible, so init_retries is 1."""
    f = generate_random_kcnf(9, 9, 4, seed=48)
    return f, find_marking(f, 1, 1, seed=3)


def _regime_instance(n, m, k, seed, mark_seed):
    """A random formula with the good-formula marking `ksat pipeline` uses."""
    f = generate_random_kcnf(n, m, k, seed=seed)
    zeta = 0.3
    cl = classify(f, delta=default_delta(k, m / n), zeta=zeta, k=k)
    good = good_induced_formula(f, cl, force=True)
    km, ku = default_quotas(k, zeta)
    return f, find_marking(good, km, ku, seed=mark_seed, eligible=cl.v_good)


INSTANCES = {
    "crit2": _criterion2_instance,
    "crit4": lambda: _regime_instance(28, 8, 4, 1, 11),
    "n40": lambda: _regime_instance(40, 8, 5, 0, 499911826),
    "n40-small-open": lambda: _regime_instance(40, 8, 5, 16, 16),
}

# (instance, theta) -> (assignment, steps, max_component, init_retries, step_retries)
GOLDEN = {
    ("crit2", 1.0): ("101010111", 110, 9, 1, 0),
    ("crit2", 0.3): ("111110001", 1221, 7, 1, 0),
    ("crit4", 1.0): ("1110010101001100110001000001", 167, 15, 0, 0),
    ("crit4", 0.3): ("1110010100011011100101000011", 1852, 13, 0, 0),
    ("n40", 0.3): ("0001001111000111000110110101101101111100", 2050, 17, 0, 0),
    ("n40-small-open", 1.0): ("0001011110000011100011100001010100011000", 185, 22, 0, 0),
    ("n40-small-open", 0.3): ("1110011111111110011110101101000111010111", 2050, 16, 0, 0),
}


@pytest.fixture(scope="module")
def instances():
    return {name: build() for name, build in INSTANCES.items()}


@pytest.mark.parametrize("name, theta", sorted(GOLDEN))
def test_block_dynamics_golden(instances, name, theta):
    f, m = instances[name]
    assert m.certified
    cfg = SamplerConfig(theta=theta, t_max=default_t_max(theta, f.n), seed=7)
    a, trace = run_block_dynamics(f, m, cfg)
    got = (
        "".join(map(str, a)),
        trace.steps,
        trace.max_component,
        trace.init_retries,
        trace.step_retries,
    )
    assert got == GOLDEN[(name, theta)]


def test_block_dynamics_golden_cap_exceeded(instances):
    """theta=1 on n=40 seed 0 pins nothing: its 29-variable component is
    refused before any enumeration."""
    f, m = instances["n40"]
    cfg = SamplerConfig(theta=1.0, t_max=default_t_max(1.0, f.n), seed=7)
    with pytest.raises(CapExceededError) as info:
        run_block_dynamics(f, m, cfg)
    assert info.value.size == 29


def test_estimate_tv_golden(instances):
    f, m = instances["crit2"]
    est = estimate_tv(f, m, SamplerConfig(theta=0.3, t_max=200, seed=2000), runs=300)
    assert est.tv == 0.3697747747747767
    assert (est.n_solutions, est.max_component) == (296, 7)


def test_sample_conditional_golden(instances):
    f, _ = instances["crit2"]
    out = sample_conditional(f, {1: 0, 4: 1}, [2, 3, 5, 6, 7, 8, 9], 12345)
    assert out == {2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 0}
