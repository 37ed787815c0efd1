"""Heat-bath block dynamics on marked variables, plus the final extension.

One chain: initialize the marked variables with fair coins (redrawing up to
100 times if the pinning has no satisfying extension), then for each step
pick a uniform block S of ceil(theta*|M|) marked variables and redraw X(S)
from the exact conditional law given X(M \\ S), and finally extend to the
unmarked variables with one exact conditional sample.

Each step draws from the schedule ``marginals.build_exec`` builds under the
step's pinning, with ``marginals.draw_exec``: the one draw path
``sample_conditional`` takes too, so a step consumes randomness exactly as
that call would, and a chain is reproducible from (formula, marking,
config) alone. Steps and the extension read their schedules from the
formula's bounded store (``marginals.exec_store``), so a pinning that
recurs, within a chain or across chains and calls on one formula, is
built once, and memory stays flat when none does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .errors import DomainError, InfeasiblePinningError, UsageError
from .formula import Formula, enumerate_solutions, is_satisfying, mask_to_assignment
from .marginals import DEFAULT_CAP, draw_exec, exec_store
from .marking import Marking
from .rng import as_rng, make_rng, rand_below, rand_bit, spawn_seed, subsample

_MAX_REJECTS = 100


@dataclass(frozen=True)
class SamplerConfig:
    theta: float
    t_max: int
    seed: int
    cap: int = DEFAULT_CAP
    init: Mapping | None = None  # partial assignment on the marked set

    def block_size(self, n_marked: int) -> int:
        return math.ceil(self.theta * n_marked)


@dataclass
class ChainTrace:
    steps: int = 0
    # step_component_hist[size]: steps whose largest residual component had
    # `size` variables
    step_component_hist: list = field(default_factory=list)
    extension_max_component: int = 0
    init_retries: int = 0
    final: tuple | None = None  # the returned satisfying assignment

    @property
    def max_step_component(self) -> int:
        hist = self.step_component_hist
        return max((size for size, count in enumerate(hist) if count), default=0)

    @property
    def max_component(self) -> int:
        return max(self.max_step_component, self.extension_max_component)


def default_t_max(theta: float, n: int) -> int:
    """Desk-scale step budget: ceil((1/theta)^2 * ln(n) * 50)."""
    if not 0 < theta <= 1:
        raise UsageError(f"theta must lie in (0, 1], got {theta}")
    return math.ceil((1.0 / theta) ** 2 * math.log(max(n, 2)) * 50)


class _Chain:
    """Precomputed state shared by every run on one (formula, marking)."""

    def __init__(self, f: Formula, m: Marking, cfg: SamplerConfig):
        if not 0 < cfg.theta <= 1:
            raise UsageError(f"theta must lie in (0, 1], got {cfg.theta}")
        if cfg.t_max < 0:
            raise UsageError(f"t_max must be >= 0, got {cfg.t_max}")
        # Quota certification refers to the formula the marking was built
        # for (the good CNF, for random formulas); bad clauses of the full
        # formula carry no marked variables, so no re-verification here.
        if not m.certified:
            raise UsageError("marking is not certified")
        self.f = f
        self.marked = sorted(m.marked)
        if not self.marked:
            raise UsageError("marking is empty")
        block = cfg.block_size(len(self.marked))
        if not 1 <= block <= len(self.marked):
            raise UsageError(
                f"block size {block} outside [1, {len(self.marked)}]"
            )
        self.block = block
        self.cfg = cfg
        self.marked_mask = 0
        for v in self.marked:
            self.marked_mask |= 1 << (v - 1)
        self.unmarked = [v for v in range(1, f.n + 1) if not (self.marked_mask >> (v - 1)) & 1]
        self.unmarked_mask = 0
        for v in self.unmarked:
            self.unmarked_mask |= 1 << (v - 1)
        self.store = exec_store(f)

    def extension(self, xbits: int):
        """Schedule of the unmarked variables under the marked pinning xbits.
        Every residual component meets those targets, so InfeasiblePinningError
        comes exactly when xbits has no satisfying extension."""
        return self.store(self.marked_mask, xbits, self.unmarked_mask, self.cfg.cap)


def _init_marked(chain: _Chain, rng, trace: ChainTrace) -> int:
    cfg = chain.cfg
    if cfg.init is not None:
        if set(cfg.init) != set(chain.marked):
            raise UsageError("init assignment must cover exactly the marked set")
        xbits = 0
        for v in chain.marked:
            if cfg.init[v]:
                xbits |= 1 << (v - 1)
        try:
            chain.extension(xbits)
        except InfeasiblePinningError:
            raise DomainError("given initial marked assignment is infeasible") from None
        return xbits
    for _ in range(_MAX_REJECTS + 1):
        xbits = 0
        for v in chain.marked:
            if rand_bit(rng):
                xbits |= 1 << (v - 1)
        try:
            chain.extension(xbits)
            return xbits
        except InfeasiblePinningError:
            trace.init_retries += 1
    raise DomainError(
        "no feasible initial marked assignment found in "
        f"{_MAX_REJECTS} redraws; the formula may be unsatisfiable"
    )


def _run_marked_chain(chain: _Chain, rng, trace: ChainTrace) -> int:
    """X_0 .. X_{t_max} on the marked bits; returns the final bitmask."""
    xbits = _init_marked(chain, rng, trace)
    marked = chain.marked
    marked_mask = chain.marked_mask
    block_size = chain.block
    store = chain.store
    cap = chain.cfg.cap
    hist = trace.step_component_hist = [0] * (chain.f.n + 1)
    grb = rng.getrandbits
    npool = len(marked)
    # inlined partial Fisher-Yates, consuming exactly like rng.subsample
    widths = [(npool - i - 1).bit_length() for i in range(block_size)]
    for _ in range(chain.cfg.t_max):
        pool = marked.copy()
        s_mask = 0
        for i in range(block_size):
            span = npool - i
            if span == 1:
                j = i
            else:
                w = widths[i]
                while True:
                    r = grb(w)
                    if r < span:
                        break
                j = i + r
            pool[i], pool[j] = pool[j], pool[i]
            s_mask |= 1 << (pool[i] - 1)
        dom = marked_mask & ~s_mask
        # X(M) always has a satisfying extension (_init_marked checks it and
        # every draw is exact), so its restriction to dom has one too and
        # the step's schedule never raises InfeasiblePinningError
        e = store(dom, xbits & dom, s_mask, cap)
        xbits = draw_exec(e, rng, xbits)
        hist[e.max_comp_vars] += 1
        trace.steps += 1
    return xbits


def _run_full(chain: _Chain, rng):
    trace = ChainTrace()
    xbits = _run_marked_chain(chain, rng, trace)
    ext = chain.extension(xbits)
    trace.extension_max_component = ext.max_comp_vars
    bits = draw_exec(ext, rng, xbits)
    assignment = mask_to_assignment(bits, chain.f.n)
    if not is_satisfying(chain.f, assignment):
        raise AssertionError("block dynamics produced a non-satisfying assignment")
    trace.final = assignment
    return assignment, trace


def run_block_dynamics(f: Formula, m: Marking, cfg: SamplerConfig):
    """Run the chain and extend to a full satisfying assignment.

    Returns (assignment, trace). Deterministic given (f, m, cfg).
    """
    chain = _Chain(f, m, cfg)
    return _run_full(chain, as_rng(cfg.seed))


@dataclass(frozen=True)
class TvEstimate:
    tv: float
    runs: int
    n_solutions: int
    max_cell_halfwidth: float
    max_component: int


def estimate_tv(f: Formula, m: Marking, cfg: SamplerConfig, runs: int) -> TvEstimate:
    """Total-variation distance of the empirical chain output law from the
    uniform distribution on all solutions, over `runs` independent chains
    seeded from cfg.seed."""
    if runs < 1:
        raise UsageError("runs must be >= 1")
    sols = enumerate_solutions(f)
    if not sols:
        raise DomainError("formula has no solutions to compare against")
    chain = _Chain(f, m, cfg)
    master = make_rng(cfg.seed)
    counts = Counter()
    max_comp = 0
    for _ in range(runs):
        a, trace = _run_full(chain, make_rng(spawn_seed(master)))
        counts[a] += 1
        max_comp = max(max_comp, trace.max_component)
    p = 1.0 / len(sols)
    tv = 0.5 * sum(abs(counts.get(s, 0) / runs - p) for s in sols)
    stray = runs - sum(counts.get(s, 0) for s in sols)
    tv += 0.5 * stray / runs
    halfwidth = max(
        1.96 * math.sqrt(max(c / runs * (1 - c / runs), 0.0) / runs)
        for c in counts.values()
    )
    return TvEstimate(
        tv=tv,
        runs=runs,
        n_solutions=len(sols),
        max_cell_halfwidth=halfwidth,
        max_component=max_comp,
    )


@dataclass(frozen=True)
class ChainUniformityCell:
    subset: tuple
    pattern: tuple
    frequency: float
    bound: float
    slack: float  # bound + z*sigma - frequency; negative means violation


@dataclass(frozen=True)
class ChainUniformityReport:
    trials: int
    s: float
    z: float
    cells: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_chain_uniformity(
    f: Formula,
    m: Marking,
    cfg: SamplerConfig,
    trials: int,
    n_subsets: int = 20,
    subset_sizes=(1, 2),
    s: float | None = None,
    z: float = 3.0,
) -> ChainUniformityReport:
    """Empirical check that the marked chain law stays locally uniform:
    every cell P(X_t(U) = pattern) at most 2^-|U| e^(|U|/s) plus z binomial
    standard errors."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if s is None:
        s = max((len(c) for c in f.clauses), default=1)
    chain = _Chain(f, m, cfg)
    master = make_rng(cfg.seed)
    samples = []
    for _ in range(trials):
        rng = make_rng(spawn_seed(master))
        trace = ChainTrace()
        samples.append(_run_marked_chain(chain, rng, trace))

    marked = chain.marked
    cells = []
    violations = []
    for _ in range(n_subsets):
        size = subset_sizes[rand_below(master, len(subset_sizes))]
        size = min(size, len(marked))
        subset = tuple(sorted(subsample(master, marked, size)))
        sub_mask = 0
        for v in subset:
            sub_mask |= 1 << (v - 1)
        counts = Counter(x & sub_mask for x in samples)
        bound = (0.5 ** len(subset)) * math.exp(len(subset) / s)
        for pattern_bits, c in sorted(counts.items()):
            freq = c / trials
            sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            slack = bound + z * sigma - freq
            cell = ChainUniformityCell(
                subset=subset,
                pattern=tuple((pattern_bits >> (v - 1)) & 1 for v in subset),
                frequency=freq,
                bound=bound,
                slack=slack,
            )
            cells.append(cell)
            if slack < 0:
                violations.append(cell)
    return ChainUniformityReport(
        trials=trials, s=s, z=z, cells=tuple(cells), violations=tuple(violations)
    )
