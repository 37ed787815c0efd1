"""Golden seeds: exact outputs of the sampler, paths, the coupling,
looseness reports and the clause-graph constructions.

The README promises bit reproducibility from seeds. These tests pin exact
outputs, so a change that reorders or adds a random draw, or changes which
component solution an index picks, fails here even when the output law is
still right.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ksat import (
    CapExceededError,
    DomainError,
    KsatError,
    clause_graph_components,
    enumerate_solutions,
    generate_random_kcnf,
)
from ksat import cli
from ksat.classify import classify, default_delta, good_induced_formula
from ksat.coupling import run_coupling
from ksat.geometry import (
    clause_coloring,
    extract_two_tree,
    greenblue_select,
    looseness_report,
    verify_two_tree,
)
from ksat.marginals import sample_conditional, tree_excess
from ksat.marking import default_quotas, find_marking
from ksat.paths import find_path_bounded, find_path_random
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

# (instance, theta) -> (assignment, steps, max_component, init_retries)
GOLDEN = {
    ("crit2", 1.0): ("101010111", 110, 9, 1),
    ("crit2", 0.3): ("111110001", 1221, 7, 1),
    ("crit4", 1.0): ("1110010101001100110001000001", 167, 15, 0),
    ("crit4", 0.3): ("1110010100011011100101000011", 1852, 13, 0),
    ("n40", 0.3): ("0001001111000111000110110101101101111100", 2050, 17, 0),
    ("n40-small-open", 1.0): ("0001011110000011100011100001010100011000", 185, 22, 0),
    ("n40-small-open", 0.3): ("1110011111111110011110101101000111010111", 2050, 16, 0),
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


# Paths, the coupling, looseness and the clause-graph helpers: exact
# outputs on small instances, so a change to the conditional primitive or
# the union-find and BFS helpers that moves a single bit fails here.


def _bad_instance():
    """k=5, n=14, m=10 with delta=5, zeta=0.45: one bad clause (id 5) on a
    five-variable bad component, a (1, 1) marking of the good CNF."""
    f = generate_random_kcnf(14, 10, 5, seed=55)
    cl = classify(f, delta=5, zeta=0.45, k=5)
    good = good_induced_formula(f, cl, force=True)
    return f, cl, find_marking(good, 1, 1, seed=55, eligible=cl.v_good)


def _crit4_classified():
    f = generate_random_kcnf(28, 8, 4, seed=1)
    return f, classify(f, delta=default_delta(4, 8 / 28), zeta=0.3, k=4)


def _as_str(a):
    return "".join(map(str, a))


def _path_outcome(call):
    try:
        p = call()
    except KsatError as exc:
        return type(exc).__name__, str(exc)
    return tuple(map(_as_str, p.entries)), p.stages


# (i, j) indices into enumerate_solutions of the crit2 formula
BOUNDED_PATHS = {
    (0, -1): (
        ("000000011", "010000011", "011000011", "011100011", "111111110"),
        ("marked-update", "marked-update", "marked-update", "unmarked-component"),
    ),
    (17, 201): (
        "RegimeError",
        "marked variable 4 cannot take value 0 under the shared marked pinning; "
        "marking preconditions do not hold at these parameters",
    ),
    (100, 42): (
        ("010100100", "000100100", "000111101"),
        ("marked-update", "unmarked-component"),
    ),
    (290, 10): (
        ("111110011", "101110011", "100110011", "100010011", "100010001", "000011000"),
        ("marked-update",) * 4 + ("unmarked-component",),
    ),
}


@pytest.mark.parametrize("pair", sorted(BOUNDED_PATHS))
def test_find_path_bounded_golden(instances, pair):
    f, m = instances["crit2"]
    sols = enumerate_solutions(f)
    a, b = sols[pair[0]], sols[pair[1]]
    assert _path_outcome(lambda: find_path_bounded(f, m, a, b)) == BOUNDED_PATHS[pair]


# (i, j, seed) indices into enumerate_solutions of the bad instance
RANDOM_PATHS = {
    (1718, 9622, 3): (
        (
            "00011110110010", "00011100110010", "00010100110010", "10010101010010",
            "11011101010000", "11011001010000", "11001001010000",
        ),
        ("lift", "lift", "bad-component", "lift", "lift", "lift"),
    ),
    (5, 9000, 4): (
        (
            "00000000001000", "00010000001000", "00010100001000", "00010100000000",
            "00010100000010", "10110100000010", "10111100000000", "10111100001000",
            "10111110001000", "10111010001000",
        ),
        ("lift",) * 4 + ("bad-component",) + ("lift",) * 4,
    ),
    (777, 3333, 5): (
        (
            "00001110000001", "00011110000001", "00011010000001", "00011010001001",
            "00011010001101", "01011010001101", "01111010101101", "00111010101101",
        ),
        ("lift",) * 5 + ("bad-component", "lift"),
    ),
}

CRIT4_RANDOM_PATH = (
    (
        "1110010101001100110001000001", "1110010100001100110001000001",
        "1110010100101100110001000001", "1110010100101100100001000001",
        "1110010100101100100001000000", "0100010100100101101110001110",
        "1000011110100110101110001100", "1000011110100110101110001101",
        "1000011110100110101110011101", "1000011110100110111110011101",
        "1000011110100110011110011101", "1000011110000110011110011101",
        "1000001110000110011110011101", "1001001110000110011110011101",
    ),
    ("lift",) * 13,
)


@pytest.mark.parametrize("case", sorted(RANDOM_PATHS))
def test_find_path_random_golden(case):
    f, cl, m = _bad_instance()
    sols = enumerate_solutions(f)
    i, j, seed = case
    got = _path_outcome(lambda: find_path_random(f, cl, m, sols[i], sols[j], seed=seed))
    assert got == RANDOM_PATHS[case]


def test_find_path_random_golden_crit4(instances):
    """Between two block-dynamics outputs, as a `ksat pipeline` cell does."""
    f, m = instances["crit4"]
    cl = _crit4_classified()[1]
    a, b = (
        run_block_dynamics(f, m, SamplerConfig(1.0, default_t_max(1.0, f.n), seed=s))[0]
        for s in (7, 8)
    )
    got = _path_outcome(lambda: find_path_random(f, cl, m, a, b, seed=3))
    assert got == CRIT4_RANDOM_PATH


def _coupling_outcome(trace):
    return (
        _as_str(trace.x),
        _as_str(trace.y),
        tuple(sorted(trace.v_failed)),
        tuple(sorted(trace.e_failed)),
        tuple(sorted(trace.e_failed_dagger)),
        tuple(sorted(trace.e_failed_ddagger)),
    )


# (v0, seed) -> (x, y, v_failed, e_failed, e_failed_dagger, e_failed_ddagger)
COUPLING_BAD = {
    (4, 5): ("00100111001110", "10111111001111", (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14), (3, 4, 6, 8), (5,), (5,)),
    (4, 6): ("01000001010111", "01110101110010", (1, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14), (0, 2, 6, 8), (5,), (5,)),
    (6, 5): ("01011011001111", "11110101111011", (1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14), (0, 4, 6, 9), (2,), (5,)),
    (6, 6): ("10011010001001", "10111110101010", (1, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14), (1, 3, 6, 9), (5,), (5,)),
}

# criterion-8 shape, v0 = 1, marked {1, 3, 4, 5, 7}: (pinning, seed) -> as above
COUPLING_ALL_GOOD = {
    ((), 1): ("0100010", "1010110", (1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 5, 6, 7), (), ()),
    ((), 2): ("0000100", "1000000", (1, 3, 4, 5, 7), (0, 1, 4, 6), (), ()),
    (((3, 0),), 1): ("0000110", "1000011", (1, 4, 5, 7), (0, 6), (), ()),
    (((3, 0),), 3): ("0000110", "1000111", (1, 4, 5, 7), (0, 6), (), ()),
}


@pytest.mark.parametrize("case", sorted(COUPLING_BAD))
def test_run_coupling_golden_bad_component(case):
    f, cl, m = _bad_instance()
    v0, seed = case
    trace = run_coupling(f, cl, m, {}, v0, 1, seed=seed)
    assert _coupling_outcome(trace) == COUPLING_BAD[case]


@pytest.mark.parametrize("case", sorted(COUPLING_ALL_GOOD))
def test_run_coupling_golden_all_good(case):
    f = generate_random_kcnf(7, 8, 3, seed=29)
    cl = classify(f, delta=max(f.degree(v) for v in range(1, 8)) + 1, zeta=0.3, k=3)
    m = find_marking(f, 1, 1, seed=4)
    pin, seed = case
    trace = run_coupling(f, cl, m, dict(pin), 1, 1, seed=seed)
    assert _coupling_outcome(trace) == COUPLING_ALL_GOOD[case]


def _looseness_outcome(f, m, sigma):
    """Distances, each witness as the variables it flips, and failures."""
    rep = looseness_report(f, m, sigma)
    flips = {
        v: tuple(u for u in range(1, f.n + 1) if w[u - 1] != sigma[u - 1])
        for v, w in rep.witnesses.items()
    }
    return rep.distances, flips, rep.failures


# (instance, index into enumerate_solutions) -> (distances, flips, failures)
LOOSENESS = {
    ("crit2", 3): (
        {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1, 7: 1, 8: 3},
        {1: (1,), 2: (2, 9), 3: (3,), 4: (4,), 5: (5, 7), 6: (6,), 7: (7,), 8: (5, 7, 8)},
        ((9, "no flip within the component"),),
    ),
    ("crit2", 7): (
        {1: 1, 2: 1, 4: 1, 6: 2, 7: 1, 8: 2, 9: 1},
        {1: (1,), 2: (2,), 4: (4,), 6: (6, 7), 7: (7,), 8: (8, 9), 9: (9,)},
        ((3, "no flip within the component"), (5, "no flip within the component")),
    ),
    ("crit2", 25): (
        {1: 2, 2: 1, 3: 2, 4: 3, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1},
        {
            1: (1, 5), 2: (2,), 3: (3, 7), 4: (4, 5, 7), 5: (5,), 6: (6,), 7: (7,), 8: (8,),
            9: (9,),
        },
        (),
    ),
    ("crit2", 45): (
        {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1},
        {1: (1,), 2: (2,), 3: (3,), 4: (4,), 5: (5,), 6: (6,), 7: (7,)},
        ((8, "no flip within the component"), (9, "no flip within the component")),
    ),
    ("bad", 777): (
        {
            1: 2, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1, 11: 1, 12: 1, 13: 2,
            14: 1,
        },
        {
            1: (1, 5), 2: (2,), 3: (3,), 4: (4,), 5: (5,), 6: (6,), 7: (7,), 8: (8,), 9: (9,),
            10: (10,), 11: (11,), 12: (12,), 13: (13, 14), 14: (14,),
        },
        (),
    ),
}


@pytest.mark.parametrize("case", sorted(LOOSENESS))
def test_looseness_report_golden(instances, case):
    name, i = case
    if name == "crit2":
        f, m = instances["crit2"]
    else:
        f, _, m = _bad_instance()
    sigma = enumerate_solutions(f)[i]
    assert _looseness_outcome(f, m, sigma) == LOOSENESS[case]


LOOSENESS_CRIT4 = (
    {
        1: 1, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 2, 9: 1, 10: 1, 11: 1, 12: 1, 13: 1, 14: 1,
        15: 1, 16: 2, 17: 1, 18: 1, 19: 1, 20: 1, 21: 1, 22: 1, 23: 1, 24: 1, 25: 1, 26: 1,
        27: 1, 28: 1,
    },
    {
        1: (1,), 2: (2, 15), 3: (3,), 4: (4,), 5: (5,), 6: (6,), 7: (7,), 8: (8, 13), 9: (9,),
        10: (10,), 11: (11,), 12: (12,), 13: (13,), 14: (14,), 15: (15,), 16: (16, 27),
        17: (17,), 18: (18,), 19: (19,), 20: (20,), 21: (21,), 22: (22,), 23: (23,), 24: (24,),
        25: (25,), 26: (26,), 27: (27,), 28: (28,),
    },
    (),
)


def test_looseness_report_golden_crit4(instances):
    f, m = instances["crit4"]
    a, _ = run_block_dynamics(f, m, SamplerConfig(1.0, default_t_max(1.0, f.n), seed=7))
    assert _looseness_outcome(f, m, a) == LOOSENESS_CRIT4


def _sparse_formula():
    """n=100, m=30, k=3: a line graph with several small components."""
    return generate_random_kcnf(100, 30, 3, seed=4)


def _mixed_instance():
    """n=40, m=10, k=4 under delta=3: eight good clauses and two bad
    components in one line-graph component, as criterion 12's green-blue
    selections see them."""
    f = generate_random_kcnf(40, 10, 4, seed=5)
    return f, classify(f, delta=3, zeta=0.3, k=4)


def _sorted_parts(parts):
    return tuple(tuple(sorted(p)) for p in parts)


def _clause_graph_outcome():
    sparse = _sparse_formula()
    crit4, cl4 = _crit4_classified()
    bad, clb, _ = _bad_instance()
    mixed, clm = _mixed_instance()
    return {
        "sparse-p1": _sorted_parts(clause_graph_components(sparse)),
        "sparse-p2-even": _sorted_parts(
            clause_graph_components(sparse, "shared-any-var", 2, vertices=range(0, 30, 2))
        ),
        "sparse-p3-odd": _sorted_parts(
            clause_graph_components(sparse, "shared-any-var", 3, vertices=range(1, 30, 2))
        ),
        "crit4-p2": _sorted_parts(
            clause_graph_components(crit4, "shared-any-var", 2, vertices={0, 2, 4, 6})
        ),
        "bad-good-p1": _sorted_parts(clause_graph_components(bad, "shared-good-var", 1, clb)),
        "mixed-good-p2": _sorted_parts(clause_graph_components(mixed, "shared-good-var", 2, clm)),
        "mixed-bad-p1": _sorted_parts(clause_graph_components(mixed, "shared-bad-var", 1, clm)),
        "bad-components": _sorted_parts(clb.bad_components),
        "mixed-bad-components": _sorted_parts(clm.bad_components),
    }


CLAUSE_GRAPH = {
    "sparse-p1": (
        (0, 2, 9, 10, 12, 18, 19, 20, 23, 25), (1, 13, 29), (3, 6, 8, 22, 28),
        (4, 7, 14, 15, 21, 26), (5, 16), (11,), (17,), (24,), (27,),
    ),
    "sparse-p2-even": ((0, 2, 10, 12, 18, 20), (4, 14, 26), (6, 8, 22, 28), (16,), (24,)),
    "sparse-p3-odd": ((1, 13, 29), (3,), (5,), (7, 15, 21), (9, 19, 23, 25), (11,), (17,), (27,)),
    "crit4-p2": ((0, 4), (2, 6)), "bad-good-p1": ((0, 1, 2, 3, 4, 6, 7, 8, 9),),
    "mixed-good-p2": ((0, 1, 2, 4, 5, 6, 7), (3,)), "mixed-bad-p1": ((8, 9),),
    "bad-components": ((1, 3, 8, 9, 10),),
    "mixed-bad-components": ((4, 5, 21, 22, 23, 25), (14,)),
}


def test_clause_graph_components_and_bad_components_golden():
    assert _clause_graph_outcome() == CLAUSE_GRAPH


def _constructions_outcome():
    """Greedy 2-trees grown as far as they go, green-blue selections and
    tree excesses, per component of the sparse and mixed formulas."""
    sparse = _sparse_formula()
    trees = {}
    for comp in clause_graph_components(sparse):
        if len(comp) < 3:
            continue
        target = 1
        while True:
            try:
                tree = extract_two_tree(sparse, comp, root=min(comp), target=target + 1)
            except DomainError:
                break
            target += 1
        tree = extract_two_tree(sparse, comp, root=min(comp), target=target)
        assert verify_two_tree(sparse, tree)
        trees[min(comp)] = tuple(sorted(tree))
    mixed, clm = _mixed_instance()
    selections = {}
    for comp in clause_graph_components(mixed):
        if len(comp) < 2:
            continue
        ids, edges, vcolor, ecolor = clause_coloring(mixed, clm, comp)
        degree = max(
            (sum(1 for e in edges if c in e and ecolor[frozenset(e)] == "green")
             for c in ids if vcolor[c] == "green"),
            default=0,
        )
        selections[min(comp)] = tuple(sorted(greenblue_select(ids, edges, vcolor, ecolor, degree)))
    excess = {
        name: tuple(tree_excess(f, comp) for comp in clause_graph_components(f))
        for name, f in (("sparse", sparse), ("mixed", mixed), ("crit4", _crit4_classified()[0]))
    }
    return trees, selections, excess


CONSTRUCTIONS = (
    {0: (0, 2, 10, 18), 1: (1,), 3: (3, 6), 4: (4, 7)}, {0: (0, 3, 4, 5, 8, 9)},
    {"sparse": (1, 0, 0, 0, 0, 0, 0, 0, 0), "mixed": (5,), "crit4": (0, 4)},
)


def test_two_trees_greenblue_and_tree_excess_golden():
    assert _constructions_outcome() == CONSTRUCTIONS


# `ksat pipeline` records: the committed benchmark sweep's cells, each
# record's sorted-key JSON against a sha256 digest. Regenerate the digests
# with `PYTHONPATH=src python tests/test_golden.py`, only when a change is
# meant to move the records.

SWEEP = Path(__file__).resolve().parent.parent / "bench" / "pipeline_sweep.json"
RECORD_DIGESTS = Path(__file__).resolve().parent / "data" / "pipeline_record_digests.json"


def _pipeline_record_digests():
    sweep = json.loads(SWEEP.read_text())
    spec = json.dumps({key: sweep[key] for key in ("zeta", "sample", "path", "loose")})
    digests = []
    for entry in sweep["instances"]:
        inst = {key: entry[key] for key in ("n", "m", "k", "seed")}
        record = cli._pipeline_cell(spec, inst, entry["cell_seed"])
        digests.append(hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest())
    return digests


def test_pipeline_records_golden():
    want = json.loads(RECORD_DIGESTS.read_text())
    assert len(want) == 101
    got = _pipeline_record_digests()
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []
    assert len(got) == len(want)


if __name__ == "__main__":
    RECORD_DIGESTS.parent.mkdir(exist_ok=True)
    RECORD_DIGESTS.write_text(json.dumps(_pipeline_record_digests(), indent=1) + "\n")
