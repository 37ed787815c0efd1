"""The library's input contract: every public entry point checks its
variables, variable sets, clause ids, assignments and pinnings with the
validators in ksat.formula, and a bad one raises UsageError naming the
smallest offender. Everything in ksat.__all__ returns or raises a KsatError
on any input, in range or out of it."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ksat
from ksat import (
    Formula,
    KsatError,
    Literal,
    Marking,
    SamplerConfig,
    SolutionPath,
    UsageError,
    certify_loose,
    check_chain_uniformity,
    connected_component,
    enumerate_solutions,
    estimate_tv,
    exact_marginal,
    find_marking,
    find_path_bounded,
    find_path_random,
    generate_random_kcnf,
    is_satisfying,
    looseness_report,
    run_block_dynamics,
    run_coupling,
    sample_conditional,
    tree_excess,
    verify_marking,
)
from ksat.classify import classify
from ksat.marginals import DEFAULT_CAP

F = Formula.from_ints(3, [[1, 2, 3]])


def _entry_points(m):
    """The entry points that take a marking, each called on F with m and
    otherwise valid arguments."""
    cl = classify(F, delta=5, zeta=0.3, k=3)
    cfg = SamplerConfig(theta=0.5, t_max=2, seed=1)
    sigma, sigma2 = (1, 1, 1), (0, 0, 1)
    return {
        "run_block_dynamics": lambda: run_block_dynamics(F, m, cfg),
        "estimate_tv": lambda: estimate_tv(F, m, cfg, 3),
        "check_chain_uniformity": lambda: check_chain_uniformity(F, m, cfg, 3),
        "find_path_bounded": lambda: find_path_bounded(F, m, sigma, sigma2),
        "find_path_random": lambda: find_path_random(F, cl, m, sigma, sigma2),
        "certify_loose": lambda: certify_loose(F, m, sigma, 1),
        "looseness_report": lambda: looseness_report(F, m, sigma),
        "verify_marking": lambda: verify_marking(F, m),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points(None)))
@pytest.mark.parametrize("marked, bad", [({0, 1}, 0), ({1, 5}, 5)])
def test_marked_variables_out_of_range_are_usage_errors(entry, marked, bad):
    """A marked variable 0 used to raise a bare ValueError from a negative
    shift, and a marked variable past n was silently ignored."""
    call = _entry_points(Marking(frozenset(marked), 1, 1, certified=True))[entry]
    with pytest.raises(UsageError, match=rf"^marked variable {bad} out of range \[1, 3\]$"):
        call()


@pytest.mark.parametrize("cid", [5, -1])
def test_tree_excess_rejects_clause_ids_out_of_range(cid):
    with pytest.raises(UsageError, match=rf"^clause id {cid} out of range \[0, 0\]$"):
        tree_excess(F, [0, cid])


def test_is_satisfying_rejects_values_other_than_0_1():
    with pytest.raises(UsageError, match=r"^assignment value for 3 must be 0/1, got 2$"):
        is_satisfying(F, (1, 1, 2))
    with pytest.raises(UsageError, match=r"^assignment has length 2, expected 3$"):
        is_satisfying(F, (1, 1))


def test_the_smallest_offender_is_named():
    m = Marking(frozenset({7, 2, 5, 9}), 1, 1, certified=True)
    with pytest.raises(UsageError, match=r"^marked variable 5 out of range"):
        verify_marking(F, m)
    with pytest.raises(UsageError, match=r"^pinned variable -2 out of range"):
        exact_marginal(F, {4: 1, -2: 0, 1: 1}, 2)
    with pytest.raises(UsageError, match=r"^pinned value for 2 must be 0/1, got 'x'$"):
        exact_marginal(F, {3: 5, 2: "x"}, 1)
    with pytest.raises(UsageError, match=r"^target variable 2 is pinned by the conditioning$"):
        sample_conditional(F, {3: 0, 2: 1}, [3, 2, 1], seed=0)


def test_validators_accept_what_operator_index_accepts():
    """numpy integers and bools are integers; floats and strings are not,
    even where they compare equal to one."""
    assert exact_marginal(F, {np.int64(1): np.int64(0), 3: False}, np.int32(2)) == 1
    assert exact_marginal(F, {1: 0, 3: 0}, 2) == 1
    assert connected_component(F, True) == connected_component(F, 1)
    assert is_satisfying(F, np.array([0, 1, 0]))
    for bad in (1.0, "1", None):
        with pytest.raises(UsageError, match=r"^variable .* is not an integer$"):
            connected_component(F, bad)
    with pytest.raises(UsageError, match=r"^pinned value for 1 must be 0/1, got 1.0$"):
        exact_marginal(F, {1: 1.0}, 2)
    cfg = SamplerConfig(theta=1.0, t_max=1, seed=1, init={1: 1, 2.0: 0})
    with pytest.raises(UsageError, match=r"^init variable 2.0 is not an integer$"):
        run_block_dynamics(F, Marking(frozenset({1, 2}), 1, 1, certified=True), cfg)


def test_validators_refuse_the_wrong_kind_of_container():
    """An assignment is a sequence and a pinning a mapping: an int and the
    other kind of container used to escape as TypeError or AttributeError,
    a numpy array as a pinning as numpy's ambiguous-truth ValueError, and a
    mapping with keys 0..n-1 used to pass as an assignment."""
    for bad, kind in ((5, "int"), ({0: 1, 1: 0, 2: 1}, "dict"), ({1, 0}, "set")):
        msg = rf"^assignment must be a sequence of 0/1 values, got {kind}$"
        with pytest.raises(UsageError, match=msg):
            is_satisfying(F, bad)
    for bad, kind in (([1], "list"), ([], "list"), (3, "int"), (0, "int"), ((1, 0), "tuple"),
                      (np.array([1, 2]), "ndarray"), (np.array([]), "ndarray")):
        msg = rf"^pinned must be a mapping of variables to 0/1, got {kind}$"
        with pytest.raises(UsageError, match=msg):
            exact_marginal(F, bad, 2)


def test_run_coupling_checks_its_integers_on_every_run():
    """v0, k_c and cap key the reveal store, so every run checks them before
    it: an unhashable one is a UsageError, not the store's TypeError, and
    v0 = 1.0 is refused after a run with v0 = 1 as on a fresh formula."""
    cl = classify(F, delta=5, zeta=0.3, k=3)
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    for args, what in (([[1], 2, DEFAULT_CAP], "v0"), ([1, [2], DEFAULT_CAP], "k_c"),
                       ([1, 2, [DEFAULT_CAP]], "cap"), ([1, 2.0, DEFAULT_CAP], "k_c")):
        with pytest.raises(UsageError, match=rf"^{what} .* is not an integer$"):
            run_coupling(F, cl, m, {}, *args[:2], seed=0, cap=args[2])
    fresh, warm = (Formula.from_ints(3, [[1, 2, 3]]) for _ in range(2))
    run_coupling(warm, cl, m, {}, 1, 2, seed=0)
    for f in (fresh, warm):
        with pytest.raises(UsageError, match=r"^v0 1.0 is not an integer$"):
            run_coupling(f, cl, m, {}, 1.0, 2, seed=0)


def test_run_coupling_checks_an_equal_marking_on_a_warm_tree():
    """A marking equal to the one that planted the reveal tree, and so
    keying it, but holding 1.0 for 1, is refused on the warm formula with
    the UsageError a fresh formula gives."""
    cl = classify(F, delta=5, zeta=0.3, k=3)
    fresh, warm = (Formula.from_ints(3, [[1, 2, 3]]) for _ in range(2))
    run_coupling(warm, cl, Marking(frozenset({1, 2}), 1, 1, certified=True), {}, 1, 2, seed=0)
    odd = Marking(frozenset({1.0, 2}), 1, 1, certified=True)
    errors = []
    for f in (fresh, warm):
        with pytest.raises(UsageError) as exc:
            run_coupling(f, cl, odd, {}, 1, 2, seed=0)
        errors.append(str(exc.value))
    assert errors == ["marked variable 1.0 is not an integer"] * 2


def test_integer_arguments_are_checked():
    """Each of these integer arguments used to escape as TypeError, or to be
    accepted as 1.5; now a value that is not an integer is a UsageError
    naming it, once per call."""
    m = Marking(frozenset({1, 2}), 1, 1, certified=True)
    calls = {
        "cap": [
            lambda x: enumerate_solutions(F, x),
            lambda x: ksat.check_flippable_all(F, x),
            lambda x: exact_marginal(F, {}, 1, x),
            lambda x: sample_conditional(F, {}, [1], 0, x),
        ],
        "clause count m": [lambda x: generate_random_kcnf(3, x, 2, seed=1)],
        "power": [lambda x: ksat.clause_graph_components(F, "shared-any-var", x)],
        "runs": [lambda x: estimate_tv(F, m, SamplerConfig(0.5, 2, 1), x)],
        "t_max": [
            lambda x: run_block_dynamics(F, m, SamplerConfig(0.5, x, 1)),
            lambda x: estimate_tv(F, m, SamplerConfig(0.5, x, 1), 3),
            lambda x: check_chain_uniformity(F, m, SamplerConfig(0.5, x, 1), 3),
        ],
        "delta": [lambda x: classify(F, x, 0.3, 3)],
        "nominal width k": [lambda x: classify(F, 3, 0.3, x)],
        "k_m": [lambda x: find_marking(F, x, 1)],
        "k_u": [lambda x: find_marking(F, 1, x)],
        "max_resamples": [lambda x: find_marking(F, 1, 1, max_resamples=x)],
    }
    for what, entries in calls.items():
        for call in entries:
            for bad in (1.5, "1", None, [1]):
                msg = rf"^{what} {re.escape(repr(bad))} is not an integer$"
                with pytest.raises(UsageError, match=msg):
                    call(bad)


# ----- every public callable, on generated arguments ----------------------

NOT_INTS = st.sampled_from([1.5, "1", None, [1]])  # [1] is unhashable too
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64]))
CAPS = st.sampled_from([0, 4, 1 << 10, DEFAULT_CAP])


def or_not_int(ints):
    """ints, or a value that is not an integer, for an argument checked
    with check_integer."""
    return st.one_of(ints, NOT_INTS)


def around(lo, hi):
    """Integers mostly in [lo, hi], the rest just outside it."""
    near = st.integers(lo - 2, max(lo, hi) + 2)
    return near if hi < lo else st.one_of(st.integers(lo, hi), near)


class Args:
    """Argument strategies for one formula f, drawn through data."""

    def __init__(self, data, f):
        self.draw = data.draw
        self.f = f

    def variable(self):
        return self.draw(st.one_of(around(1, self.f.n), NOT_INTS))

    def variables(self):
        return self.draw(st.frozensets(around(1, self.f.n), max_size=self.f.n + 1))

    def clause_ids(self):
        return self.draw(st.frozensets(around(0, self.f.m - 1), max_size=4))

    def pinning(self):
        values = st.one_of(st.integers(0, 1), st.sampled_from([2, -1, "0", None, 0.5]))
        made = st.dictionaries(around(1, self.f.n), values, max_size=3)
        # an int, a list or a numpy array where the mapping belongs
        seq = st.lists(around(1, self.f.n), max_size=3)
        wrong = st.one_of(st.integers(-1, 2), seq, seq.map(np.array))
        return self.draw(st.one_of(made, wrong))

    def assignment(self):
        n = self.f.n
        sols = enumerate_solutions(self.f)
        bits = st.one_of(st.integers(0, 1), st.sampled_from([2, "1"]))
        made = st.lists(bits, min_size=max(0, n - 1), max_size=n + 1).map(tuple)
        # an int or a mapping where the sequence belongs
        wrong = st.one_of(st.integers(0, 1), st.dictionaries(st.integers(0, n), bits, max_size=n))
        return self.draw(st.one_of(st.sampled_from(sols), made, wrong) if sols
                         else st.one_of(made, wrong))

    def marking(self):
        f = self.f
        found = st.builds(find_marking, st.just(f), st.just(1), st.just(1), seed=st.integers(0, 99))
        made = st.builds(
            Marking, st.just(self.variables()), st.integers(0, 2), st.integers(0, 2), st.booleans()
        )
        return self.draw(st.one_of(found, made) if f.m and min(map(len, f.clauses)) >= 2 else made)

    def classification(self):
        width = max(map(len, self.f.clauses), default=3)
        return classify(self.f, delta=self.draw(st.integers(1, 4)), zeta=0.3, k=width)

    def config(self):
        init = st.one_of(st.none(), st.just(self.pinning()))
        return self.draw(st.builds(
            SamplerConfig, st.sampled_from([-0.1, 0.3, 0.5, 1.0, 1.5]),
            or_not_int(st.integers(-1, 3)), SEEDS,
            CAPS, init,
        ))

    def path(self):
        entries = tuple(self.assignment() for _ in range(self.draw(st.integers(0, 3))))
        distances = tuple(self.draw(st.lists(st.integers(0, 4), max_size=3)))
        return SolutionPath(entries, distances, ("lift",) * len(distances))

    def graph(self):
        vertices = self.draw(st.lists(st.integers(0, 5), unique=True, max_size=5))
        edges = self.draw(st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=6))
        color = st.sampled_from(["green", "blue"])
        return (
            vertices,
            edges,
            {v: self.draw(color) for v in vertices},
            {frozenset(e): self.draw(color) for e in edges},
            self.draw(st.integers(0, 3)),
        )

    def __call__(self, strategy):
        return self.draw(strategy)


CALLS = {
    "CapExceededError": lambda a: ksat.CapExceededError(a(st.text(max_size=5)), size=3),
    "DomainError": lambda a: ksat.DomainError(a(st.text(max_size=5))),
    "InfeasiblePinningError": lambda a: ksat.InfeasiblePinningError(a(st.text(max_size=5))),
    "KsatError": lambda a: ksat.KsatError(a(st.text(max_size=5))),
    "RegimeError": lambda a: ksat.RegimeError(a(st.text(max_size=5))),
    "UsageError": lambda a: ksat.UsageError(a(st.text(max_size=5))),
    "Formula": lambda a: Formula(a(st.integers(-1, 4)), tuple(
        tuple(Literal(a(st.integers(-1, 5)), a(st.booleans())) for _ in range(a(st.integers(0, 3))))
        for _ in range(a(st.integers(0, 3)))
    )),
    "Literal": lambda a: Literal(a(st.integers(-3, 3)), a(st.booleans())),
    "clause_graph_components": lambda a: ksat.clause_graph_components(
        a.f, a(st.sampled_from(["shared-any-var", "shared-good-var", "shared-bad-var", "x"])),
        a(or_not_int(st.integers(0, 3))), a(st.sampled_from([None, a.classification()])),
        a(st.sampled_from([None, a.clause_ids()])),
    ),
    "connected_component": lambda a: ksat.connected_component(a.f, a.variable()),
    "emit_dimacs": lambda a: ksat.emit_dimacs(a.f),
    "enumerate_solutions": lambda a: ksat.enumerate_solutions(a.f, a(or_not_int(CAPS))),
    "generate_random_kcnf": lambda a: ksat.generate_random_kcnf(
        a(st.integers(-1, 6)), a(or_not_int(st.integers(-1, 6))), a(st.integers(-1, 4)), a(SEEDS)
    ),
    "hamming": lambda a: ksat.hamming(a.assignment(), a.assignment()),
    "is_satisfying": lambda a: ksat.is_satisfying(a.f, a.assignment()),
    "parse_dimacs": lambda a: ksat.parse_dimacs(
        a(st.one_of(st.text(max_size=30), st.binary(max_size=30), st.just(ksat.emit_dimacs(a.f))))
    ),
    "Classification": lambda a: ksat.Classification(
        1, 0.3, 3, a.variables(), a.variables(), a.clause_ids(), a.clause_ids(), ()
    ),
    "classify": lambda a: ksat.classify(
        a.f, a(or_not_int(st.integers(0, 4))), a(st.sampled_from([0, 0.3, 0.5, float("nan")])),
        a(or_not_int(st.integers(0, 4))),
    ),
    "good_induced_formula": lambda a: ksat.good_induced_formula(
        a.f, a.classification(), a(st.booleans())
    ),
    "Marking": lambda a: Marking(a.variables(), a(st.integers(0, 2)), a(st.integers(0, 2)), True),
    "find_marking": lambda a: ksat.find_marking(
        a.f, a(or_not_int(st.integers(-1, 2))), a(or_not_int(st.integers(-1, 2))),
        a(st.sampled_from([None, -0.1, 0.5, 1.5])), a(SEEDS), a(or_not_int(st.integers(-1, 20))),
        a(st.sampled_from([None, a.variables()])),
    ),
    "verify_marking": lambda a: ksat.verify_marking(a.f, a.marking()),
    "exact_marginal": lambda a: ksat.exact_marginal(
        a.f, a.pinning(), a.variable(), a(or_not_int(CAPS))
    ),
    "sample_conditional": lambda a: ksat.sample_conditional(
        a.f, a.pinning(), a.variables(), a(SEEDS), a(or_not_int(CAPS))
    ),
    "check_local_uniformity": lambda a: ksat.check_local_uniformity(
        a.f, a.marking(), a(st.sampled_from([-1, 0.5, 4])), a(st.integers(0, 3)), a(SEEDS),
        a(CAPS),
    ),
    "tree_excess": lambda a: ksat.tree_excess(a.f, a.clause_ids()),
    "SamplerConfig": lambda a: a.config(),
    "run_block_dynamics": lambda a: ksat.run_block_dynamics(a.f, a.marking(), a.config()),
    "estimate_tv": lambda a: ksat.estimate_tv(
        a.f, a.marking(), a.config(), a(or_not_int(st.integers(0, 3)))
    ),
    "check_chain_uniformity": lambda a: ksat.check_chain_uniformity(
        a.f, a.marking(), a.config(), a(st.integers(0, 3)), a(st.integers(0, 3)),
        a(st.sampled_from([(1, 2), (), (1, -1)])), a(st.sampled_from([None, -1, 2.0])),
    ),
    "SolutionPath": lambda a: a.path(),
    "find_path_bounded": lambda a: ksat.find_path_bounded(
        a.f, a.marking(), a.assignment(), a.assignment(), a(CAPS)
    ),
    "find_path_random": lambda a: ksat.find_path_random(
        a.f, a.classification(), a.marking(), a.assignment(), a.assignment(), a(SEEDS), a(CAPS)
    ),
    "validate_path": lambda a: ksat.validate_path(
        a.f, a.path(), a(st.integers(-1, 4)), a(st.sampled_from([None, a.assignment()])),
        a(st.sampled_from([None, a.assignment()])),
    ),
    "run_coupling": lambda a: ksat.run_coupling(
        a.f, a.classification(), a.marking(), a.pinning(), a.variable(), a(st.integers(0, 3)),
        a(SEEDS), a(CAPS),
    ),
    "exact_influence_matrix": lambda a: ksat.exact_influence_matrix(
        a.f, a.marking(), a.pinning(), a(CAPS)
    ),
    "coupling_influence_bound": lambda a: ksat.coupling_influence_bound(
        a.f, a.classification(), a.marking(), a.pinning(), a.variable(), a(st.integers(0, 3)),
        a(st.integers(0, 3)), a(SEEDS), a(CAPS),
    ),
    "certify_loose": lambda a: ksat.certify_loose(
        a.f, a.marking(), a.assignment(), a.variable(), a(CAPS)
    ),
    "looseness_report": lambda a: ksat.looseness_report(
        a.f, a.marking(), a.assignment(), a(CAPS)
    ),
    "solution_graph": lambda a: ksat.solution_graph(a.f, a(st.integers(-1, 4)), a(CAPS)),
    "check_flippable_all": lambda a: ksat.check_flippable_all(a.f, a(or_not_int(CAPS))),
    "extract_two_tree": lambda a: ksat.extract_two_tree(
        a.f, a.clause_ids(), a(around(0, a.f.m - 1)), a(st.integers(0, 4))
    ),
    "greenblue_select": lambda a: ksat.greenblue_select(*a.graph()),
    "verify_dtree_membership": lambda a: ksat.verify_dtree_membership(
        a.f, a.classification(), a.clause_ids(), a(st.integers(0, 3))
    ),
}


def test_every_public_callable_is_fuzzed():
    assert set(CALLS) == {name for name in ksat.__all__ if callable(getattr(ksat, name))}


@st.composite
def formulas(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 3)))
    return generate_random_kcnf(n, draw(st.integers(0, 2 * n)), k, seed=draw(st.integers(0, 999)))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(f=formulas(), data=st.data())
def test_public_callables_return_or_raise_a_ksat_error(name, f, data):
    try:
        CALLS[name](Args(data, f))
    except KsatError:
        pass


def test_every_public_function_reads_every_parameter():
    """A public module-level function of the package reads each of its named
    parameters somewhere in its body, so no argument is silently ignored."""
    unread = []
    for path in sorted(Path(ksat.__file__).parent.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            read = {
                node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [f"{fn.name}.{p}" for p in params if p not in read]
    assert unread == []
