"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria
use 10^5-run Monte Carlo estimates; the whole module takes on the order of
ten minutes.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest

from ksat import (
    Formula,
    InfeasiblePinningError,
    clause_graph_components,
    enumerate_solutions,
    generate_random_kcnf,
)
from ksat.classify import classify, default_delta, good_induced_formula, high_degree_vars
from ksat.coupling import coupling_influence_bound, exact_influence_matrix, run_coupling
from ksat.geometry import (
    check_flippable_all,
    clause_coloring,
    extract_two_tree,
    greenblue_select,
    looseness_report,
    solution_graph,
    verify_dtree_membership,
    verify_two_tree,
)
from ksat.marginals import check_local_uniformity, exact_marginal, plan_for, sample_conditional
from ksat.marking import Marking, default_quotas, find_marking, verify_marking
from ksat.paths import find_path_bounded, find_path_random, validate_path
from ksat.rng import make_rng, rand_bit, spawn_seed
from ksat.sampler import SamplerConfig, estimate_tv, run_block_dynamics

RUNS = 10**5
CAP = 1 << 22
CAP_VARS = 22  # log2 of the evaluation cap: component variable budget

pytestmark = pytest.mark.acceptance


def _verdict(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def _open_satisfiable(f, max_comp=20):
    """True when every unpinned component fits the cap and is satisfiable."""
    plan = plan_for(f, 0, 0)
    if plan.max_comp_vars > max_comp:
        return False
    return all(len(c.solutions(CAP)) > 0 for c in plan.comps)


def _solution_count(f):
    plan = plan_for(f, 0, 0)
    covered = set()
    total = 1
    for c in plan.comps:
        covered.update(c.vars)
        total *= len(c.solutions(CAP))
    return total * 2 ** (f.n - len(covered))


# --------------------------------------------------------------- suites


@pytest.fixture(scope="module")
def c1_suite():
    """>= 10 random k=4 instances, n <= 10, alpha <= 1.0, 2 <= |Omega|,
    with certified markings; solution counts kept moderate so the Monte
    Carlo noise floor sits well under the 0.02 budget."""
    rng = make_rng(0xC1)
    out = []
    tried = 0
    while len(out) < 10:
        tried += 1
        assert tried < 1000, "criterion-1 suite generation stalled"
        n = 8 + tried % 3
        f = generate_random_kcnf(n, n, 4, seed=rng.getrandbits(40))
        sols = enumerate_solutions(f)
        if not 2 <= len(sols) <= 150:
            continue
        m = find_marking(f, 1, 1, seed=3)
        if not m.certified:
            continue
        out.append((f, m))
    return out


@pytest.fixture(scope="module")
def c4_results():
    """100 path instances (k in 4..6, n <= 40, low density), solution pairs
    drawn with the exact full-block sampler, both path constructions
    validated. Returns per-instance data plus the observed max step."""
    params = (
        [(16, 5, 4)] * 8
        + [(20, 6, 4)] * 8
        + [(24, 7, 4)] * 8
        + [(28, 8, 4)] * 8
        + [(32, 9, 4)] * 8
        + [(30, 5, 5)] * 15
        + [(35, 6, 5)] * 15
        + [(30, 4, 6)] * 15
        + [(36, 5, 6)] * 15
    )
    rng = make_rng(0xC4)
    instances = []
    for n, m_cl, k in params:
        tried = 0
        while True:
            tried += 1
            assert tried < 2000, f"suite generation stalled at {(n, m_cl, k)}"
            f = generate_random_kcnf(n, m_cl, k, seed=rng.getrandbits(40))
            if not _open_satisfiable(f):
                continue
            if _solution_count(f) < 2:
                continue
            zeta = 0.3
            km, ku = default_quotas(k, zeta)
            cl = classify(f, default_delta(k, m_cl / n), zeta, k)
            good = good_induced_formula(f, cl, force=True)
            try:
                marking = find_marking(good, km, ku, seed=11, eligible=cl.v_good)
            except Exception:
                continue
            if not marking.certified or not marking.marked:
                continue
            instances.append((f, cl, marking, k))
            break
    assert len(instances) == 100

    max_step = 0
    violations = 0
    pair_rng = make_rng(0xC4C4)
    for f, cl, marking, k in instances:
        a, _ = run_block_dynamics(
            f, marking, SamplerConfig(theta=1.0, t_max=1, seed=spawn_seed(pair_rng))
        )
        b, _ = run_block_dynamics(
            f, marking, SamplerConfig(theta=1.0, t_max=1, seed=spawn_seed(pair_rng))
        )
        bound = CAP_VARS * k + 1
        p1 = find_path_bounded(f, marking, a, b, cap=CAP)
        rep1 = validate_path(f, p1, d_bound=bound, sigma=a, sigma_prime=b)
        p2 = find_path_random(f, cl, marking, a, b, seed=spawn_seed(pair_rng), cap=CAP)
        rep2 = validate_path(f, p2, d_bound=bound, sigma=a, sigma_prime=b)
        if not rep1.ok or not rep2.ok:
            violations += 1
        max_step = max(max_step, p1.max_step, p2.max_step)
    return {"instances": instances, "max_step": max_step, "violations": violations}


@pytest.fixture(scope="module")
def c8_suite():
    """5 small instances with certified markings and a two-sided-feasible
    distinguished variable; the last one carries a nonempty pinning."""
    rng = make_rng(0xC8)
    out = []
    tried = 0
    while len(out) < 5:
        tried += 1
        assert tried < 1000
        n = 7 + tried % 2
        f = generate_random_kcnf(n, n + 1, 3, seed=rng.getrandbits(40))
        sols = enumerate_solutions(f)
        if not 8 <= len(sols) <= 120:
            continue
        m = find_marking(f, 1, 1, seed=5)
        if not m.certified or len(m.marked) < 3:
            continue
        marked = sorted(m.marked)
        v0 = marked[0]
        pin = {}
        if len(out) == 4:  # exercise a nonempty pinning once
            pin = {marked[1]: 0}
        try:
            p = exact_marginal(f, pin, v0)
        except InfeasiblePinningError:
            continue
        if p == 0 or p == 1:
            continue
        cl = classify(f, delta=max(f.degree(v) for v in range(1, n + 1)) + 1, zeta=0.3, k=3)
        out.append((f, cl, m, pin, v0, sols))
    return out


# ------------------------------------------------------------- criteria


def test_criterion_01_sampler_exactness_full_block(c1_suite):
    start = time.time()
    worst = 0.0
    for i, (f, m) in enumerate(c1_suite):
        cfg = SamplerConfig(theta=1.0, t_max=1, seed=1000 + i)
        est = estimate_tv(f, m, cfg, runs=RUNS)
        worst = max(worst, est.tv)
        assert est.tv <= 0.02, f"instance {i}: TV {est.tv:.4f} > 0.02"
    elapsed = time.time() - start
    assert elapsed <= 300, f"criterion 1 took {elapsed:.0f}s > 5 min"
    _verdict(
        1,
        f"full-block TV <= 0.02 on {len(c1_suite)} instances at {RUNS} runs "
        f"(worst {worst:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_02_sampler_convergence_partial_blocks(c1_suite):
    worst = 0.0
    for i, (f, m) in enumerate(c1_suite):
        cfg = SamplerConfig(theta=0.3, t_max=200, seed=2000 + i)
        est = estimate_tv(f, m, cfg, runs=RUNS)
        worst = max(worst, est.tv)
        assert est.tv <= 0.05, f"instance {i}: TV {est.tv:.4f} > 0.05"
    _verdict(
        2,
        f"theta=0.3, 200-step TV <= 0.05 on {len(c1_suite)} instances "
        f"at {RUNS} runs (worst {worst:.4f})",
    )


def test_criterion_03_marginal_oracle_exhaustive():
    rng = make_rng(0xC3)
    instances = []
    while len(instances) < 5:
        f = generate_random_kcnf(8, 9, 3, seed=rng.getrandbits(40))
        if enumerate_solutions(f):
            instances.append(f)
    checked = 0
    for f in instances:
        sols = enumerate_solutions(f)
        for probe in itertools.product((None, 0, 1), repeat=f.n):
            x = {v + 1: b for v, b in enumerate(probe) if b is not None}
            matching = [
                s for s in sols if all(s[v - 1] == b for v, b in x.items())
            ]
            free = [v for v in range(1, f.n + 1) if v not in x]
            if not free:
                continue
            if not matching:
                with pytest.raises(InfeasiblePinningError):
                    exact_marginal(f, x, free[0], cap=CAP)
                continue
            for v in free:
                oracle = Fraction(sum(s[v - 1] for s in matching), len(matching))
                got = exact_marginal(f, x, v, cap=CAP)
                assert got == oracle, (x, v, got, oracle)
                checked += 1
    _verdict(3, f"{checked} exact-rational marginal comparisons, zero mismatches")


def test_criterion_04_path_validity(c4_results):
    assert c4_results["violations"] == 0
    _verdict(
        4,
        "bounded and random paths valid on 100 instances; "
        f"max step distance {c4_results['max_step']}",
    )


def test_criterion_05_classification_fixed_point():
    rng = make_rng(0xC5)
    params = [
        (30, 45, 4, 4, 0.3),
        (40, 8, 4, 2, 0.3),
        (25, 20, 5, 4, 0.45),
        (20, 30, 4, 5, 0.4),
        (35, 30, 5, 3, 0.3),
    ]
    count = 0
    for n, m_cl, k, delta, zeta in params:
        for _ in range(20):
            f = generate_random_kcnf(n, m_cl, k, seed=rng.getrandbits(40))
            cl = classify(f, delta=delta, zeta=zeta, k=k)
            # one extra contamination round changes nothing
            c_bad = {
                cid
                for cid in range(f.m)
                if len(f.clause_vars(cid) & cl.v_bad) >= cl.threshold
            }
            v_bad = set(cl.v_bad)
            for cid in c_bad:
                v_bad.update(f.clause_vars(cid))
            assert frozenset(v_bad) == cl.v_bad
            assert frozenset(c_bad) == cl.c_bad
            for cid in cl.c_good:
                assert len(f.clause_vars(cid) & cl.v_bad) < cl.threshold
            for cid in cl.c_bad:
                assert f.clause_vars(cid) <= cl.v_bad
            assert high_degree_vars(f, cl.delta) <= cl.v_bad
            count += 1
    assert count == 100
    _verdict(5, "fixed point and good/bad structure hold on 100 instances")


def test_criterion_06_marking_certificate(c4_results):
    attempts = certified = 0
    for f, cl, _, k in c4_results["instances"]:
        good = good_induced_formula(f, cl, force=True)
        km, ku = default_quotas(k, 0.3)
        for s in range(3):
            attempts += 1
            m = find_marking(
                good, km, ku, seed=7000 + s, max_resamples=10_000, eligible=cl.v_good
            )
            if m.certified:
                certified += 1
                assert verify_marking(good, m) == []
    rate = certified / attempts
    assert rate >= 0.95, f"certification rate {rate:.3f} < 0.95"
    _verdict(
        6,
        f"marking certified in {certified}/{attempts} attempts "
        f"({100 * rate:.1f}%), all certificates verified",
    )


def _lll_instance_disjoint8(sign_seed):
    rng = make_rng(sign_seed)
    clauses = []
    for i in range(3):
        base = 8 * i
        clauses.append(
            [(v if rand_bit(rng) else -v) for v in range(base + 1, base + 9)]
        )
    f = Formula.from_ints(24, clauses)
    marked = frozenset(v for i in range(3) for v in (8 * i + 1, 8 * i + 2))
    m = Marking(marked, 2, 6, certified=True)
    assert verify_marking(f, m) == []
    return f, m, 8  # d=1, k=8: 2^6 = 64 >= 2*e*1*8


def _lll_instance_chain10(sign_seed):
    rng = make_rng(sign_seed)
    clauses = []
    for i in range(2):
        base = 9 * i
        clauses.append(
            [(v if rand_bit(rng) else -v) for v in range(base + 1, base + 11)]
        )
    f = Formula.from_ints(19, clauses)
    marked = frozenset(v for i in range(2) for v in (9 * i + 2, 9 * i + 3))
    m = Marking(marked, 2, 7, certified=True)
    assert verify_marking(f, m) == []
    return f, m, 10  # d=2, k=10: 2^7 = 128 >= 2*e*2*10


def test_criterion_07_local_uniformity():
    suites = [
        _lll_instance_disjoint8(1),
        _lll_instance_disjoint8(2),
        _lll_instance_disjoint8(3),
        _lll_instance_chain10(1),
        _lll_instance_chain10(2),
    ]
    for i, (f, m, k) in enumerate(suites):
        rep = check_local_uniformity(f, m, s=k, trials=1000, seed=600 + i, cap=CAP)
        assert rep.ok, f"instance {i}: {len(rep.violations)} violations"
        assert float(rep.worst) <= rep.bound
    _verdict(
        7,
        "zero local-uniformity violations over 5000 exact-marginal probes "
        "on 5 in-regime instances",
    )


def test_criterion_08_coupling_marginal_laws(c8_suite):
    worst = 0.0
    for idx, (f, cl, m, pin, v0, sols) in enumerate(c8_suite):
        law = {
            0: [s for s in sols if s[v0 - 1] == 0 and all(s[u - 1] == b for u, b in pin.items())],
            1: [s for s in sols if s[v0 - 1] == 1 and all(s[u - 1] == b for u, b in pin.items())],
        }
        counts = {0: Counter(), 1: Counter()}
        master = make_rng(8800 + idx)
        for _ in range(RUNS):
            tr = run_coupling(
                f, cl, m, pin, v0=v0, k_c=1, seed=make_rng(spawn_seed(master)), cap=CAP
            )
            counts[0][tr.x] += 1
            counts[1][tr.y] += 1
        for side in (0, 1):
            support = law[side]
            tv = 0.5 * sum(
                abs(counts[side].get(s, 0) / RUNS - 1 / len(support)) for s in support
            )
            tv += 0.5 * sum(
                c / RUNS for s, c in counts[side].items() if s not in support
            )
            worst = max(worst, tv)
            assert tv <= 0.02, f"instance {idx}, branch {side}: TV {tv:.4f}"
    _verdict(
        8,
        f"both coupling marginal laws within TV 0.02 at {RUNS} runs on 5 "
        f"instances (worst {worst:.4f}); coupled-set agreement asserted per run",
    )


def test_criterion_09_influence_dominance(c8_suite):
    checked = 0
    for idx, (f, cl, m, pin, _, _) in enumerate(c8_suite):
        inf = exact_influence_matrix(f, m, pin)
        for u in inf.order:
            i = inf.order.index(u)
            row_sum = sum(abs(float(e)) for e in inf.exact[i])
            est = coupling_influence_bound(
                f, cl, m, pin, v0=u, k_c=1, trials=4000, seed=9000 + 31 * idx + u
            )
            assert row_sum <= est.total + 3 * est.total_stderr + 1e-9, (
                idx,
                u,
                row_sum,
                est.total,
            )
            checked += 1

    f = Formula.from_ints(2, [[1, 2]])
    m2 = Marking(frozenset({1, 2}), 1, 1, certified=True)
    inf = exact_influence_matrix(f, m2, {})
    assert inf.entry(1, 2) == Fraction(1, 2)
    _verdict(
        9,
        f"influence row sums dominated by coupling estimates for {checked} "
        "conditioned variables; or-clause influence exactly 1/2",
    )


def test_criterion_10_looseness_and_flippability():
    rng = make_rng(0xC10)
    done = 0
    tried = 0
    while done < 50:
        tried += 1
        assert tried < 500
        n = 20 + tried % 11
        f = generate_random_kcnf(n, max(1, int(0.2 * n)), 4, seed=rng.getrandbits(40))
        if not _open_satisfiable(f):
            continue
        m = find_marking(f, 1, 2, seed=5)
        if not m.certified:
            continue
        sigma = sample_conditional(f, {}, range(1, n + 1), seed=tried, cap=CAP)
        sigma = tuple(sigma[v] for v in range(1, n + 1))
        rep = looseness_report(f, m, sigma, cap=CAP)
        assert rep.ok, f"instance {tried}: failures {rep.failures}"
        res = check_flippable_all(f, cap=1 << 30)
        assert res.all_flippable
        done += 1

    frozen = Formula.from_ints(2, [[1], [1, 2]])
    rep = looseness_report(frozen, Marking(frozenset(), 0, 0, True), (1, 0))
    assert [v for v, _ in rep.failures] == [1]
    _verdict(
        10,
        "zero looseness failures and full flippability on 50 low-density "
        "instances; frozen construction fails exactly at x1",
    )


def test_criterion_11_giant_component(c4_results):
    d = c4_results["max_step"]
    rng = make_rng(0xC11)
    done = 0
    tried = 0
    worst = 1.0
    while done < 20:
        tried += 1
        assert tried < 300
        n = 10 + tried % 4
        f = generate_random_kcnf(n, max(2, int(0.6 * n)), 4, seed=rng.getrandbits(40))
        sols = enumerate_solutions(f)
        if len(sols) < 2:
            continue
        summary = solution_graph(f, d)
        worst = min(worst, summary.giant_fraction)
        assert summary.giant_fraction >= 0.99, (tried, summary.giant_fraction)
        at_zero = solution_graph(f, 0)
        assert at_zero.component_sizes == tuple([1] * len(sols))
        done += 1
    _verdict(
        11,
        f"giant fraction >= 0.99 at D={d} on 20 instances (worst {worst:.4f}); "
        "D=0 isolates every solution",
    )


def test_criterion_12_combinatorial_constructions():
    # 2-trees: random low-degree formulas plus synthetic clause chains
    rng = make_rng(0xC12)
    built_trees = 0
    while built_trees < 50:
        f = generate_random_kcnf(50, 22, 3, seed=rng.getrandbits(40))
        comps = [c for c in clause_graph_components(f) if len(c) >= 3]
        for comp in comps:
            root = min(comp)
            widths = max(len(f.clause_vars(c)) for c in comp)
            deg = max(f.degree(v) for c in comp for v in f.clause_vars(c))
            target = max(1, len(comp) // (widths * deg))
            tree = extract_two_tree(f, comp, root=root, target=target)
            assert verify_two_tree(f, tree), (comp, tree)
            assert len(tree) == target
            built_trees += 1
            if built_trees >= 50:
                break
    for length in range(5, 55):  # chains: Lin is a path, rich targets
        clauses = [[i, i + 1] for i in range(1, length + 1)]
        f = Formula.from_ints(length + 1, clauses)
        target = max(1, length // 4)
        tree = extract_two_tree(f, set(range(length)), root=0, target=target)
        assert verify_two_tree(f, tree)
        built_trees += 1
    assert built_trees == 100

    built_gb = 0
    rng = make_rng(0xC12C)
    while built_gb < 100:
        f = generate_random_kcnf(40, 8, 4, seed=rng.getrandbits(40))
        cl = classify(f, delta=2, zeta=0.3, k=4)
        for comp in clause_graph_components(f):
            if len(comp) < 2:
                continue
            ids, edges, vcolor, ecolor = clause_coloring(f, cl, comp)
            greens = [c for c in ids if vcolor[c] == "green"]
            degree = max(
                (
                    sum(
                        1
                        for e in edges
                        if c in e and ecolor[frozenset(e)] == "green"
                    )
                    for c in greens
                ),
                default=0,
            )
            selected = greenblue_select(ids, edges, vcolor, ecolor, degree)
            blues = {c for c in ids if vcolor[c] == "blue"}
            assert blues <= selected
            green_sel = [c for c in selected if vcolor[c] == "green"]
            for i, a in enumerate(green_sel):
                for b in green_sel[i + 1 :]:
                    assert ecolor.get(frozenset((a, b))) != "green"
            if greens:
                assert len(green_sel) >= len(greens) / (degree + 1)
            assert verify_dtree_membership(f, cl, selected, b=2)
            built_gb += 1
            if built_gb >= 100:
                break
    assert built_gb == 100
    _verdict(
        12,
        "100 greedy 2-trees and 100 green-blue selections pass their "
        "independent verifiers",
    )
