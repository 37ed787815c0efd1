import pytest

from ksat import Formula, UsageError, generate_random_kcnf
from ksat.classify import classify, good_induced_formula
from ksat.marking import Marking, default_quotas, find_marking, verify_marking
from ksat.rng import make_rng


def test_single_clause_quota():
    f = Formula.from_ints(3, [[1, 2, 3]])
    m = find_marking(f, k_m=2, k_u=1, seed=4)
    assert m.certified
    assert verify_marking(f, m) == []
    assert len(m.marked & {1, 2, 3}) >= 2


def test_infeasible_width():
    f = Formula.from_ints(2, [[1, 2]])
    with pytest.raises(UsageError):
        find_marking(f, k_m=2, k_u=1, seed=0)


def test_negative_resample_budget_is_rejected():
    """A negative budget is a usage error, not a budget of 0 that returns an
    uncertified marking; a budget of 0 is still accepted."""
    f = Formula.from_ints(3, [[1, 2, 3]])
    with pytest.raises(UsageError, match="max_resamples must be >= 0, got -5"):
        find_marking(f, k_m=2, k_u=1, seed=4, max_resamples=-5)
    find_marking(f, k_m=2, k_u=1, seed=4, max_resamples=0)


def test_empty_formula_trivially_certified():
    f = Formula(4, ())
    m = find_marking(f, k_m=1, k_u=1, seed=7)
    assert m.certified and verify_marking(f, m) == []


def test_verify_marking_counts_violations():
    f = Formula.from_ints(4, [[1, 2], [3, 4]])
    none_marked = Marking(frozenset(), 1, 1, certified=False)
    assert verify_marking(f, none_marked) == [0, 1]

    broken = Marking(frozenset({1, 3, 4}), 1, 1, certified=False)
    assert verify_marking(f, broken) == [1]


def test_certified_implies_clean_verify_on_random_instances():
    rng = make_rng(55)
    for _ in range(25):
        f = generate_random_kcnf(20, 15, 4, seed=rng)
        m = find_marking(f, k_m=1, k_u=1, seed=rng.getrandbits(32))
        if m.certified:
            assert verify_marking(f, m) == []


def test_termination_rate_in_low_degree_regime():
    # low-degree instances: success in >= 99/100 seeded runs
    ok = 0
    for seed in range(100):
        f = generate_random_kcnf(24, 12, 4, seed=seed)
        m = find_marking(f, k_m=2, k_u=1, seed=seed, max_resamples=10_000)
        ok += m.certified
    assert ok >= 99


def test_marking_restricted_to_good_variables():
    rng = make_rng(66)
    for _ in range(10):
        f = generate_random_kcnf(24, 30, 4, seed=rng)
        cl = classify(f, delta=4, zeta=0.3, k=4)
        if not cl.v_bad:
            continue
        good = good_induced_formula(f, cl, force=True)
        k_m, k_u = default_quotas(4, 0.3)
        widths_ok = all(len(good.clause_vars(c)) >= k_m + k_u for c in range(good.m))
        if not widths_ok:
            continue
        m = find_marking(good, k_m, k_u, seed=1, eligible=cl.v_good)
        assert m.marked <= cl.v_good
        if m.certified:
            assert verify_marking(good, m) == []


def test_default_quotas():
    assert default_quotas(4, 0.3) == (1, 1)
    assert default_quotas(8, 0.0) == (3, 2)


@pytest.mark.parametrize("zeta", [-0.1, 0.5, float("nan"), float("inf")])
def test_default_quotas_rejects_zeta_outside_range(zeta):
    with pytest.raises(UsageError):
        default_quotas(4, zeta)


def test_deterministic_given_seed():
    f = generate_random_kcnf(15, 10, 4, seed=2)
    a = find_marking(f, 1, 1, seed=42)
    b = find_marking(f, 1, 1, seed=42)
    assert a == b
