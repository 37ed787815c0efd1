import pytest

from ksat import (
    Formula,
    UsageError,
    enumerate_solutions,
    generate_random_kcnf,
    is_satisfying,
)
from ksat.classify import classify
from ksat.marking import Marking, find_marking
from ksat.paths import (
    SolutionPath,
    find_path_bounded,
    find_path_random,
    validate_path,
)
from ksat.rng import make_rng


def marking_for(f, seed=1):
    m = find_marking(f, 1, 1, seed=seed)
    assert m.certified
    return m


def pick_solution_pairs(f, count, seed):
    sols = enumerate_solutions(f)
    rng = make_rng(seed)
    pairs = []
    for _ in range(count):
        a = sols[rng.getrandbits(40) % len(sols)]
        b = sols[rng.getrandbits(40) % len(sols)]
        pairs.append((a, b))
    return pairs


def test_identical_endpoints():
    f = Formula.from_ints(2, [[1, 2]])
    m = Marking(frozenset({1}), 1, 1, certified=True)
    p = find_path_bounded(f, m, (1, 0), (1, 0))
    assert p.entries == ((1, 0),)
    assert p.step_distances == ()


def test_or_clause_single_flip():
    # M = {x1}, sigma=10, sigma'=01: the component {x1, x2} re-solves to 01
    f = Formula.from_ints(2, [[1, 2]])
    m = Marking(frozenset({1}), 1, 1, certified=True)
    p = find_path_bounded(f, m, (1, 0), (0, 1))
    assert p.entries == ((1, 0), (0, 1))
    assert p.step_distances == (2,)
    assert p.stages == ("marked-update",)


def test_rejects_non_solution_input():
    f = Formula.from_ints(2, [[1, 2]])
    m = Marking(frozenset({1}), 1, 1, certified=True)
    with pytest.raises(UsageError):
        find_path_bounded(f, m, (0, 0), (1, 1))


def test_path_endpoints_and_validity_random_suite():
    rng = make_rng(5150)
    checked = 0
    for _ in range(12):
        f = generate_random_kcnf(10, 9, 4, seed=rng)
        sols = enumerate_solutions(f)
        if len(sols) < 2:
            continue
        m = marking_for(f)
        for a, b in pick_solution_pairs(f, 4, seed=rng.getrandbits(32)):
            p = find_path_bounded(f, m, a, b)
            rep = validate_path(f, p, d_bound=f.n, sigma=a, sigma_prime=b)
            assert rep.ok, rep
            checked += 1
    assert checked >= 20


def test_stage1_reaches_marked_destination_then_stage2_unmarked_only():
    rng = make_rng(88)
    for _ in range(6):
        f = generate_random_kcnf(9, 8, 3, seed=rng)
        sols = enumerate_solutions(f)
        if len(sols) < 2:
            continue
        m = marking_for(f)
        marked = sorted(m.marked)
        (a, b), = pick_solution_pairs(f, 1, seed=3)
        p = find_path_bounded(f, m, a, b)
        seen_unmarked_stage = False
        for i, stage in enumerate(p.stages):
            before, after = p.entries[i], p.entries[i + 1]
            if stage == "unmarked-component":
                seen_unmarked_stage = True
                for v in marked:
                    assert before[v - 1] == after[v - 1]
            else:
                assert not seen_unmarked_stage  # stage 1 precedes stage 2


def test_each_stage1_step_changes_single_component():
    f = Formula.from_ints(6, [[1, 2, 3], [4, 5, 6]])
    m = Marking(frozenset({1, 4}), 1, 1, certified=True)
    a = (1, 0, 0, 1, 0, 0)
    b = (0, 1, 0, 0, 1, 0)
    p = find_path_bounded(f, m, a, b)
    rep = validate_path(f, p, d_bound=3, sigma=a, sigma_prime=b)
    assert rep.ok
    for i, stage in enumerate(p.stages):
        if stage != "marked-update":
            continue
        changed = {
            v + 1
            for v in range(6)
            if p.entries[i][v] != p.entries[i + 1][v]
        }
        assert changed <= {1, 2, 3} or changed <= {4, 5, 6}


def test_validate_path_flags_corruption():
    f = Formula.from_ints(2, [[1, 2]])
    good = SolutionPath(((1, 0), (0, 1)), (2,), ("marked-update",))
    assert validate_path(f, good, d_bound=2).ok

    corrupted = SolutionPath(((1, 0), (0, 0)), (1,), ("marked-update",))
    rep = validate_path(f, corrupted, d_bound=2)
    assert rep.non_satisfying == (1,)

    tight = validate_path(f, good, d_bound=0)
    assert tight.oversize_steps == ((0, 2),)

    wrong_d = SolutionPath(((1, 0), (0, 1)), (1,), ("marked-update",))
    assert validate_path(f, wrong_d, d_bound=2).distance_mismatches == ((0, 1, 2),)

    rep = validate_path(f, good, d_bound=2, sigma=(1, 1))
    assert rep.endpoint_mismatch == ("start",)


def test_validate_path_rejects_a_wrong_end():
    f = Formula.from_ints(2, [[1, 2]])
    p = SolutionPath(((1, 0), (1, 1)), (1,), ("marked-update",))
    assert validate_path(f, p, d_bound=1, sigma=(1, 0), sigma_prime=(1, 1)).ok
    rep = validate_path(f, p, d_bound=1, sigma=(1, 0), sigma_prime=(0, 1))
    assert rep.endpoint_mismatch == ("end",)
    assert not rep.ok


def test_validate_path_rejects_a_step_one_over_the_bound():
    f = Formula.from_ints(3, [[1, 2, 3]])
    p = SolutionPath(((1, 0, 0), (0, 1, 1)), (3,), ("marked-update",))
    assert validate_path(f, p, d_bound=3).ok
    rep = validate_path(f, p, d_bound=2)
    assert rep.oversize_steps == ((0, 3),)
    assert not rep.ok


def test_random_path_no_bad_vars_reduces_to_bounded_shape():
    f = generate_random_kcnf(9, 7, 4, seed=77)
    sols = enumerate_solutions(f)
    assert len(sols) >= 2
    cl = classify(f, delta=100, zeta=0.3, k=4)
    assert not cl.v_bad
    m = marking_for(f)
    a, b = sols[0], sols[-1]
    p = find_path_random(f, cl, m, a, b, seed=4)
    rep = validate_path(f, p, d_bound=f.n, sigma=a, sigma_prime=b)
    assert rep.ok
    assert set(p.stages) <= {"lift"}


def test_random_path_with_bad_variables():
    # sparse n=40 instances where delta=2 marks a contained bad set; seeds
    # verified to give nonempty c_bad and a certified good-CNF marking
    from ksat.classify import good_induced_formula
    from ksat.sampler import SamplerConfig, run_block_dynamics

    for seed in (0, 3, 4):
        f = generate_random_kcnf(40, 8, 4, seed=seed)
        cl = classify(f, delta=2, zeta=0.3, k=4)
        assert cl.v_bad and cl.c_bad
        good = good_induced_formula(f, cl, force=True)
        m = find_marking(good, 1, 1, seed=9, eligible=cl.v_good)
        assert m.certified and m.marked
        a, _ = run_block_dynamics(f, m, SamplerConfig(theta=1.0, t_max=1, seed=77))
        b, _ = run_block_dynamics(f, m, SamplerConfig(theta=1.0, t_max=1, seed=78))
        p = find_path_random(f, cl, m, a, b, seed=11)
        rep = validate_path(f, p, d_bound=22 * 4 + 1, sigma=a, sigma_prime=b)
        assert rep.ok, rep
        assert "bad-component" in p.stages


def test_random_path_reads_the_formulas_own_store():
    """Both lifted legs walk f itself, so a call on a fresh formula fills
    f's schedule store; a marking that breaks a quota of the good CNF is
    refused before any draw."""
    from ksat.classify import good_induced_formula
    from ksat.marginals import open_store
    from ksat.sampler import SamplerConfig, run_block_dynamics

    f = generate_random_kcnf(40, 8, 4, seed=0)
    cl = classify(f, delta=2, zeta=0.3, k=4)
    good = good_induced_formula(f, cl, force=True)
    m = find_marking(good, 1, 1, seed=9, eligible=cl.v_good)
    a, _ = run_block_dynamics(f, m, SamplerConfig(theta=1.0, t_max=1, seed=77))
    b, _ = run_block_dynamics(f, m, SamplerConfig(theta=1.0, t_max=1, seed=78))
    fresh = Formula(f.n, f.clauses)
    p = find_path_random(fresh, cl, m, a, b, seed=11)
    assert p == find_path_random(f, cl, m, a, b, seed=11)
    info = open_store(fresh).cache_info()
    assert info.hits + info.misses > 0

    unmarked = Marking(frozenset(), 1, 1, certified=True)
    rng = make_rng(11)
    state = rng.getstate()
    with pytest.raises(UsageError, match="violates its quotas"):
        find_path_random(f, cl, unmarked, a, b, seed=rng)
    assert rng.getstate() == state


def test_random_path_agreeing_bad_assignments_have_no_bad_stage():
    # endpoints agreeing on every bad variable: all middle switches are
    # trivial, and trivial steps are dropped from the path
    from ksat.classify import good_induced_formula
    from ksat.marginals import sample_conditional
    from ksat.sampler import SamplerConfig, run_block_dynamics

    f = generate_random_kcnf(40, 8, 4, seed=3)
    cl = classify(f, delta=2, zeta=0.3, k=4)
    assert cl.v_bad
    good = good_induced_formula(f, cl, force=True)
    m = find_marking(good, 1, 1, seed=9, eligible=cl.v_good)
    assert m.certified
    a, _ = run_block_dynamics(f, m, SamplerConfig(theta=1.0, t_max=1, seed=77))
    bad_pin = {v: a[v - 1] for v in cl.v_bad}
    rest = [v for v in range(1, 41) if v not in bad_pin]
    drawn = sample_conditional(f, bad_pin, rest, seed=5)
    b = tuple((bad_pin | drawn)[v] for v in range(1, 41))
    assert is_satisfying(f, b)
    p = find_path_random(f, cl, m, a, b, seed=3)
    rep = validate_path(f, p, d_bound=f.n, sigma=a, sigma_prime=b)
    assert rep.ok
    assert "bad-component" not in p.stages


def test_lift_preserves_satisfaction_exhaustively_small():
    # dense pocket on {1,2,3,4} becomes bad, the sparse remainder stays
    # good; every lifted entry must satisfy the full formula
    from ksat.classify import good_induced_formula

    clauses = [[1, 2, 3, 4]] * 3 + [
        [-1, 5, 6, 7],
        [5, 8, 9, -10],
        [7, 10, 11, 12],
        [-6, 9, 11, -12],
    ]
    f = Formula.from_ints(12, clauses)
    cl = classify(f, delta=3, zeta=0.3, k=4)
    assert cl.v_bad == frozenset({1, 2, 3, 4})
    assert len(cl.c_bad) == 3
    good = good_induced_formula(f, cl, force=True)
    m = find_marking(good, 1, 1, seed=2, eligible=cl.v_good)
    assert m.certified and m.marked
    sols = enumerate_solutions(f)
    picks = [(sols[0], sols[-1]), (sols[1], sols[len(sols) // 2])]
    for a, b in picks:
        p = find_path_random(f, cl, m, a, b, seed=8)
        for entry in p.entries:
            assert is_satisfying(f, entry)
        rep = validate_path(f, p, d_bound=f.n, sigma=a, sigma_prime=b)
        assert rep.ok
