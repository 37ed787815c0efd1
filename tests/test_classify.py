import math

import pytest

from ksat import Formula, RegimeError, generate_random_kcnf
from ksat.classify import (
    Classification,
    bad_components,
    classify,
    default_delta,
    good_induced_formula,
    high_degree_vars,
)
from ksat.rng import make_rng


def rerun_one_iteration(f, cl):
    """One more contamination round on the claimed fixed point."""
    thresh = cl.threshold
    c_bad = {
        cid
        for cid in range(f.m)
        if len(f.clause_vars(cid) & cl.v_bad) >= thresh
    }
    v_bad = set(cl.v_bad)
    for cid in c_bad:
        v_bad.update(f.clause_vars(cid))
    return frozenset(v_bad), frozenset(c_bad)


def test_high_degree_examples():
    f = Formula.from_ints(3, [[1, 2, 3]])
    assert high_degree_vars(f, 2) == set()

    g = Formula.from_ints(4, [[1, 2], [1, 3], [1, 4]])
    assert high_degree_vars(g, 3) == {1}
    assert high_degree_vars(g, 1) == {1, 2, 3, 4}


def test_classify_no_high_degree():
    f = Formula.from_ints(4, [[1, 2, 3, 4]])
    cl = classify(f, delta=2, zeta=0.4, k=4)
    assert cl.v_bad == frozenset() and cl.c_bad == frozenset()
    assert cl.v_good == frozenset(range(1, 5))


def test_classify_contamination_cascade():
    # Hand-run of the iteration with k=4 and threshold ceil(zeta*k) = 2:
    # variables 1 and 2 are high degree, so clause {1,2,3,4} is bad and pulls
    # in 3 and 4; then clause {3,4,5,6} has two bad variables and pulls in
    # 5 and 6. Clause {7,8,9,10} stays good.
    clauses = [
        [1, 2, 3, 4],
        [3, 4, 5, 6],
        [7, 8, 9, 10],
        # degree padding so 1 and 2 reach degree 3
        [1, 2, 7, 8],
        [1, 2, 9, 10],
    ]
    f = Formula.from_ints(10, clauses)
    cl = classify(f, delta=3, zeta=0.49, k=4)
    assert high_degree_vars(f, 3) == {1, 2}
    assert cl.v_bad == frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
    # every clause ends up with >= 2 bad variables
    assert cl.c_bad == frozenset(range(5))


def test_classify_everything_high_degree():
    f = Formula.from_ints(2, [[1, 2], [1, 2], [-1, -2]])
    cl = classify(f, delta=1, zeta=0.4, k=2)
    assert cl.v_bad == frozenset({1, 2})
    assert cl.c_bad == frozenset({0, 1, 2})


def test_fixed_point_and_structure_on_random_instances():
    rng = make_rng(303)
    for _ in range(40):
        f = generate_random_kcnf(30, 45, 4, seed=rng)
        cl = classify(f, delta=4, zeta=0.3, k=4)
        v2, c2 = rerun_one_iteration(f, cl)
        assert v2 == cl.v_bad and c2 == cl.c_bad
        for cid in cl.c_good:
            assert len(f.clause_vars(cid) & cl.v_bad) < cl.threshold
        for cid in cl.c_bad:
            assert f.clause_vars(cid) <= cl.v_bad


def test_raising_delta_never_enlarges_v_bad():
    rng = make_rng(77)
    for _ in range(15):
        f = generate_random_kcnf(25, 40, 4, seed=rng)
        sizes = []
        for delta in (3, 4, 6, 9):
            cl = classify(f, delta=delta, zeta=0.3, k=4)
            sizes.append(cl.v_bad)
        for small, big in zip(sizes[1:], sizes[:-1]):
            assert small <= big


def test_good_induced_formula_examples():
    f = Formula.from_ints(4, [[1, 2, 3, 4]])
    cl = classify(f, delta=2, zeta=0.4, k=4)
    assert good_induced_formula(f, cl) == f

    # one bad variable inside a good clause gets its literal dropped
    clauses = [[1, 2, 3, 4], [1, 5], [1, 6], [1, 7]]
    f2 = Formula.from_ints(7, clauses)
    cl2 = classify(f2, delta=3, zeta=0.4, k=4)
    assert cl2.v_bad == frozenset({1})
    assert 0 in cl2.c_good
    good = good_induced_formula(f2, cl2, force=True)
    widths = {tuple(l.var for l in c) for c in good.clauses}
    assert (2, 3, 4) in widths


def test_good_induced_formula_drops_fully_bad_clause():
    clauses = [[1, 2], [1, 2], [1, 2], [3, 4]]
    f = Formula.from_ints(4, clauses)
    cl = classify(f, delta=3, zeta=0.4, k=2)
    assert cl.c_bad == frozenset({0, 1, 2})
    good = good_induced_formula(f, cl)
    assert good.m == 1


def test_good_induced_formula_regime_diagnostics():
    # k=4, zeta=0.3: a residual width of 1 is far below (1-zeta)k = 2.8
    clauses = [[1, 2, 3, 4], [1, 2], [1, 3], [2, 4], [1, 2, 3]]
    f = Formula.from_ints(4, clauses)
    cl = classify(f, delta=3, zeta=0.3, k=4)
    if cl.v_bad and cl.c_good:
        with pytest.raises(RegimeError):
            good_induced_formula(f, cl)
        good_induced_formula(f, cl, force=True)


def test_bad_components():
    # two bad clauses sharing variable 2 form one component over {1,2,3}
    clauses = [[1, 2], [2, 3]] + [[v, 5] for v in (1, 2, 3)] * 2
    f = Formula.from_ints(5, clauses)
    cl = classify(f, delta=10, zeta=0.4, k=2)
    manual = Classification(
        delta=10,
        zeta=0.4,
        k=2,
        v_bad=frozenset({1, 2, 3, 4}),
        v_good=frozenset({5}),
        c_bad=frozenset({0, 1}),
        c_good=frozenset(range(2, f.m)),
        bad_components=(),
    )
    comps = bad_components(manual, f)
    assert comps == (frozenset({1, 2, 3}), frozenset({4}))


def test_bad_components_refine_bad_subformula_components():
    rng = make_rng(11)
    for _ in range(10):
        f = generate_random_kcnf(20, 40, 4, seed=rng)
        cl = classify(f, delta=4, zeta=0.3, k=4)
        if not cl.c_bad:
            continue
        sub = Formula(f.n, tuple(f.clauses[c] for c in sorted(cl.c_bad)))
        from ksat import connected_component

        for comp in cl.bad_components:
            v = min(comp)
            vars_in_sub, _ = connected_component(sub, v)
            if len(comp) == 1:
                assert vars_in_sub == comp or vars_in_sub == {v}
            else:
                assert comp == vars_in_sub


def test_default_delta():
    assert default_delta(4, 1.0) == 256
    assert default_delta(4, 0.01) == math.ceil(256 * 0.01)


def test_report_schema_fields():
    f = Formula.from_ints(4, [[1, 2], [1, 3], [1, 4]])
    cl = classify(f, delta=3, zeta=0.4, k=2)
    rep = cl.report()
    assert rep["n_bad_vars"] == len(cl.v_bad)
    assert rep["component_sizes"] == sorted(
        (len(c) for c in cl.bad_components), reverse=True
    )


def test_bad_component_sizes_within_log_bound():
    # empirical form of the whp bound: max bad component <= (7/zeta)*k*ln(n)
    rng = make_rng(808)
    seen_nontrivial = False
    for _ in range(25):
        f = generate_random_kcnf(40, 8, 4, seed=rng)
        cl = classify(f, delta=2, zeta=0.3, k=4)
        if not cl.bad_components:
            continue
        seen_nontrivial = True
        bound = (7 / cl.zeta) * cl.k * math.log(f.n)
        assert max(len(c) for c in cl.bad_components) <= bound
    assert seen_nontrivial
