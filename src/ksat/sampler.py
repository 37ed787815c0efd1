"""Heat-bath block dynamics on marked variables, plus the final extension.

One chain: initialize the marked variables with fair coins (redrawing up to
100 times if the pinning has no satisfying extension), then for each step
pick a uniform block S of ceil(theta*|M|) marked variables and redraw X(S)
from the exact conditional law given X(M \\ S), and finally extend to the
unmarked variables with one exact conditional sample.

Each step draws from the schedule ``marginals.build_exec`` builds on the
clauses the step's pinning leaves open, with ``marginals.draw_exec``: the
one draw path ``sample_conditional`` takes too, so a step consumes
randomness exactly as that call would, and a chain is reproducible from
(formula, marking, config) alone. A step's law depends only on the clauses U its kept values
X(M \\ S) leave open: ``_Chain.step``, run by both chains, reads the
schedule of S & V(U) on U from the formula's bounded
``marginals.open_store``, and S \\ V(U) gets fair bits, ascending, as the
whole pinning's schedule ends; the extension reads the same store through
``marginals.schedule``. A key that recurs, in a chain or across chains
and calls on one formula, is built once; memory stays flat when none does.

``run_block_dynamics`` and ``check_chain_uniformity`` run one chain at a
time through ``_run_full``, the scalar reference. ``estimate_tv`` runs all
of its chains in lockstep as numpy arrays over runs (``_Lockstep``), in
chunks of runs: each run keeps its own generator, whose words are read
ahead in bulk and consumed in the order the scalar chain consumes them, so
every run ends where its scalar chain ends and the estimate is the same,
bit for bit. A run's state is one assignment mask (variable v at bit
v - 1); each step's and the extension's draw tables (``_Table``) output
their target bits in that layout, and ``estimate_tv`` turns each chunk's
final masks into solution codes to count them. A chunk's seeds are drawn
when the chunk starts, so memory is bounded in runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InfeasiblePinningError, UsageError
from .formula import (
    Formula, _solution_codes, bit_positions, check_integer, check_pinning, check_variables,
    mask_to_assignment, satisfies_mask, var_mask,
)
from .marginals import DEFAULT_CAP, draw_exec, open_store, schedule
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
        if check_integer(cfg.t_max, "t_max") < 0:
            raise UsageError(f"t_max must be >= 0, got {cfg.t_max}")
        # Quota certification refers to the formula the marking was built
        # for (the good CNF, for random formulas); bad clauses of the full
        # formula carry no marked variables, so no re-verification here.
        if not m.certified:
            raise UsageError("marking is not certified")
        self.f = f
        self.marked_mask = check_variables(f, m.marked, "marked variable")
        self.marked = [b + 1 for b in bit_positions(self.marked_mask)]
        if not self.marked:
            raise UsageError("marking is empty")
        self.block = cfg.block_size(len(self.marked))
        self.cfg = cfg
        self.unmarked_mask = ((1 << f.n) - 1) & ~self.marked_mask
        self.steps = open_store(f)
        # (clause bit, pos, neg) of each clause, cut to the marked variables
        mm = self.marked_mask
        self.marked_cut = [(1 << c, p & mm, q & mm) for c, (p, q) in enumerate(f._clause_masks)]

    def step(self, s_mask: int, xbits: int):
        """The block step on S = s_mask given X(M \\ S) from xbits: the
        schedule of S & V(U) on the clauses U those values leave open, and
        the mask S \\ V(U), whose fair bits follow it. No step is infeasible:
        X(M) always extends (_init_marked checks it, every draw is exact)."""
        kept = xbits & ~s_mask
        false_lits = self.marked_mask & ~s_mask & ~xbits
        open_ids = touched = 0
        for bit, pos, neg in self.marked_cut:
            if not (pos & kept or neg & false_lits):
                open_ids |= bit
                touched |= pos | neg
        targets = s_mask & touched
        e = self.steps(open_ids, targets, self.unmarked_mask | targets, self.cfg.cap)
        return e, s_mask & ~targets

    def extension(self, xbits: int):
        """Schedule of the unmarked variables under the marked pinning xbits.
        Every residual component meets those targets, so InfeasiblePinningError
        comes exactly when xbits has no satisfying extension."""
        return schedule(self.f, self.marked_mask, xbits, self.unmarked_mask, self.cfg.cap)


def _init_marked(chain: _Chain, rng, trace: ChainTrace) -> int:
    cfg = chain.cfg
    if cfg.init is not None:
        dom, xbits = check_pinning(chain.f, cfg.init, "init")
        if dom != chain.marked_mask:
            raise UsageError("init assignment must cover exactly the marked set")
        try:
            chain.extension(xbits)
        except InfeasiblePinningError:
            raise DomainError("given initial marked assignment is infeasible") from None
        return xbits
    for _ in range(_MAX_REJECTS + 1):
        xbits = var_mask(v for v in chain.marked if rand_bit(rng))
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
    block_size = chain.block
    step = chain.step
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
        e, rest = step(s_mask, xbits)
        xbits = draw_exec(e, rng, xbits)
        for b in bit_positions(rest):
            xbits = xbits | 1 << b if grb(1) else xbits & ~(1 << b)
        hist[e.max_comp_vars] += 1
        trace.steps += 1
    return xbits


def _run_full(chain: _Chain, rng):
    trace = ChainTrace()
    xbits = _run_marked_chain(chain, rng, trace)
    ext = chain.extension(xbits)
    trace.extension_max_component = ext.max_comp_vars
    bits = draw_exec(ext, rng, xbits)
    if not satisfies_mask(chain.f, bits):
        raise AssertionError("block dynamics produced a non-satisfying assignment")
    return mask_to_assignment(bits, chain.f.n), trace


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
    seeded from cfg.seed.

    The chains run in lockstep (``_Lockstep``), _CHUNK_RUNS at a time, and
    give the TvEstimate the scalar chain ``_run_full`` gives run by run, bit
    for bit. A chunk in which some run fails, or ends on no solution, is
    replayed by ``_run_full``, which raises that run's error."""
    if check_integer(runs, "runs") < 1:
        raise UsageError("runs must be >= 1")
    codes = _solution_codes(f).astype(np.int64)
    if not len(codes):
        raise DomainError("formula has no solutions to compare against")
    chain = _Chain(f, m, cfg)
    master = make_rng(cfg.seed)
    lock = _Lockstep(chain)
    counts = np.zeros(len(codes), np.int64)
    for lo in range(0, runs, _CHUNK_RUNS):
        # seeds are spawned chunk by chunk, in the scalar loop's order
        chunk = [spawn_seed(master) for _ in range(min(_CHUNK_RUNS, runs - lo))]
        try:
            final = lock.run(chunk)
        except DomainError:  # a schedule over the cap, say
            final = None
        if final is not None:
            # variable v moves from mask bit v - 1 to code bit n - v
            code = sum(((final >> (v - 1)) & 1) << (f.n - v) for v in range(1, f.n + 1))
            if np.isin(code, codes).all():
                counts += np.bincount(codes.searchsorted(code), minlength=len(codes))
                continue
        for seed in chunk:
            _run_full(chain, make_rng(seed))
        raise AssertionError("lockstep chains failed where the scalar chains did not")
    counts = counts.tolist()
    p = 1.0 / len(codes)
    tv = 0.5 * sum(abs(c / runs - p) for c in counts)
    halfwidth = max(
        1.96 * math.sqrt(max(c / runs * (1 - c / runs), 0.0) / runs)
        for c in counts
        if c
    )
    return TvEstimate(
        tv=tv,
        runs=runs,
        n_solutions=len(codes),
        max_cell_halfwidth=halfwidth,
        max_component=max(lock.steps.max_comp, lock.max_ext_comp),
    )


# runs one _Lockstep advances together; bounds the word buffers at
# _CHUNK_RUNS * _MAX_WORDS words
_CHUNK_RUNS = 2048
_MAX_WORDS = 2048
# words a rejected draw looks ahead; a run rejecting all of them goes on
# word by word
_WINDOW = 8
# rows plus patterns a _Table holds before it starts over
_TABLE_ENTRIES = 1 << 22
_NO_KEY = np.iinfo(np.int64).max  # sorts after every key
_NO_LIMIT = 1 << 32  # a limit every word is under


class _Words:
    """The 32-bit words of each run's generator, read ahead in bulk.

    Row r of a flat buffer holds the next words of run r's stream, from the
    flat index pos[r] up to end[r]. getrandbits(32 * w) gives w words in
    stream order, least significant first, and getrandbits(k) for k <= 32
    is the top k bits of one word (see ``rng``), so each run reads here
    exactly the words its scalar chain reads. slack is a lower bound on the
    words every row has left.
    """

    def __init__(self, rngs, width: int):
        self.rngs = rngs
        self.width = width
        self.buf = np.empty(len(rngs) * width, np.uint32)
        for r, rng in enumerate(rngs):
            self.buf[r * width:(r + 1) * width] = np.frombuffer(_stream_bytes(rng, width), "<u4")
        self.pos = np.arange(len(rngs), dtype=np.int64) * width
        self.end = self.pos + width
        self.slack = width
        self.win = sliding_window_view(self.buf, _WINDOW)
        self.lanes = np.arange(len(rngs), dtype=np.int64) * _WINDOW

    def _refill(self, r: int, want: int) -> None:
        """Move row r's unread words to its start and append fresh ones:
        a quarter of the row, or more to reach want."""
        start, at, end = r * self.width, int(self.pos[r]), int(self.end[r])
        kept = end - at
        fresh = min(self.width - kept, max(self.width // 4, want - kept))
        self.buf[start:start + kept] = self.buf[at:end].copy()
        self.buf[start + kept:start + kept + fresh] = np.frombuffer(
            _stream_bytes(self.rngs[r], fresh), "<u4"
        )
        self.pos[r] = start
        self.end[r] = start + kept + fresh

    def below(self, limit, shift, act=1) -> np.ndarray:
        """Per run, rand_below's rejection draw on 32 - shift bits: the top
        bits of its first next word under limit = count << shift. limit and
        shift are ints or arrays over runs; a run whose act is 0 reads no
        word and must have limit _NO_LIMIT."""
        if self.slack < 1 + _WINDOW:
            # refill the rows short of one draw's words, with some draws' more
            # so that the next check comes some draws later
            want = 1 + 3 * _WINDOW
            for r in (self.end - self.pos < want).nonzero()[0].tolist():
                self._refill(r, want)
            self.slack = int((self.end - self.pos).min())
        self.slack -= 1 + _WINDOW
        w = self.buf[self.pos]
        self.pos += act
        if not isinstance(limit, int) or limit < _NO_LIMIT:
            over = (w >= limit).nonzero()[0]
            if len(over):
                self._redraw(over, w, limit if isinstance(limit, int) else limit[over])
        return w >> shift

    def _redraw(self, over, w, limit) -> None:
        """Finish the rejected draws w[over] against their limits: on a
        look-ahead window of each run's next words, then word by word."""
        at = self.pos[over]
        win = self.win[at]
        first = (win < (limit if isinstance(limit, int) else limit[:, None])).argmax(axis=1)
        got = win.ravel()[self.lanes[:len(over)] + first]
        self.pos[over] = at + first + 1
        w[over] = got
        for k in (got >= limit).nonzero()[0].tolist():
            r = int(over[k])
            lim = limit if isinstance(limit, int) else int(limit[k])
            self.pos[r] = at[k] + _WINDOW
            self.slack = 0
            while True:
                if self.pos[r] == self.end[r]:
                    self._refill(r, 1)
                word = int(self.buf[self.pos[r]])
                self.pos[r] += 1
                if word < lim:
                    w[r] = word
                    break


def _stream_bytes(rng, words: int) -> bytes:
    """The next `words` 32-bit words of rng, little-endian, in stream order."""
    return rng.getrandbits(32 * words).to_bytes(4 * words, "little")


class _Table:
    """Draw tables of the schedules a lockstep batch meets, one row per key.

    build(key) gives a key's schedule (an ExecPlan) or raises
    InfeasiblePinningError, for an infeasible row. A draw outputs the
    schedule's target bits as a mask (variable v at bit v - 1) that the
    caller ORs into the bits it keeps.

    rows is one int64 matrix, row r for the r-th sorted key: columns FIXED
    (the bits of the count-1 draws, which read no word), FEASIBLE (1 or 0)
    and COMP (the largest residual component), then a slot of four columns
    per other draw, in draw order. A draw of count c on w bits is (limit,
    shift, offset, act) = (c << shift, 32 - w, the offset in pats of its c
    output patterns, 1) and accepts a word under the limit. A free target is
    a slot of count 2 and width 1 on the patterns (0, its bit). Short rows
    end in _PAD slots, which read no word and output nothing. Rows share the
    patterns of draws on the same solutions and targets. The table starts
    over past _TABLE_ENTRIES rows and patterns, so memory stays bounded.
    """

    FIXED, FEASIBLE, COMP = range(3)
    _PAD = (_NO_LIMIT, 32, 0, 0)

    def __init__(self, build, targets):
        self.build = build
        self.free_at = {gb: 1 + 2 * i for i, gb in enumerate(targets)}
        self.max_comp = 0  # largest residual component of any schedule built
        self._clear()

    def _clear(self) -> None:
        self.keys = np.array([_NO_KEY])
        self.rows = np.zeros((0, 3), np.int64)
        # the padding slots' pattern, then (0, bit) for each free target
        self.pats = np.array([0] + [b for gb in self.free_at for b in (0, gb)], np.int64)
        # (id(sols), pairs) -> (sols, offset); holding sols keeps its id unique
        self.pat_at = {}

    def lookup(self, keys) -> np.ndarray:
        """Row of each key, building new keys' rows (which replaces rows)."""
        i = self.keys.searchsorted(keys)
        miss = self.keys[i] != keys
        if np.count_nonzero(miss):
            if len(self.rows) + len(self.pats) > _TABLE_ENTRIES:
                self._clear()
                miss = slice(None)
            self._insert(np.unique(keys[miss]).tolist())
            i = self.keys.searchsorted(keys)
        return i

    def _insert(self, new_keys) -> None:
        rows = []
        pats = []
        n_pats = len(self.pats)
        for key in new_keys:
            try:
                plan = self.build(key)
            except InfeasiblePinningError:
                rows.append([0, 0, 0])
                continue
            self.max_comp = max(self.max_comp, plan.max_comp_vars)
            row = [0, 1, plan.max_comp_vars]
            for sols, count, width, pairs in plan.draws:
                if count == 1:
                    s0 = int(sols[0])
                    row[self.FIXED] |= sum(gb for lb, gb in pairs if s0 >> lb & 1)
                    continue
                held = self.pat_at.get((id(sols), pairs))
                if held is None:
                    local = sols.astype(np.int64)
                    pat = np.zeros(count, np.int64)
                    for lb, gb in pairs:
                        pat |= ((local >> lb) & 1) * gb
                    pats.append(pat)
                    held = self.pat_at[id(sols), pairs] = (sols, n_pats)
                    n_pats += count
                row += (count << (32 - width), 32 - width, held[1], 1)
            for gb in plan.free_bits:
                row += (_NO_LIMIT, 31, self.free_at[gb], 1)
            rows.append(row)
        width = max(self.rows.shape[1], *map(len, rows))
        if width > self.rows.shape[1]:
            pad = np.tile(self._PAD, (len(self.rows), (width - self.rows.shape[1]) // 4))
            self.rows = np.hstack([self.rows, pad])
        for row in rows:
            row += self._PAD * ((width - len(row)) // 4)
        # new_keys ascend and none is in keys, so each goes in at its place
        at = self.keys.searchsorted(new_keys)
        self.keys = np.insert(self.keys, at, new_keys)
        self.rows = np.insert(self.rows, at, rows, axis=0)
        self.pats = np.concatenate([self.pats, *pats])

    def draw(self, rows, words: _Words) -> np.ndarray:
        """Output bits of one draw of each run's row's schedule."""
        r = self.rows[rows]
        out = r[:, self.FIXED]
        for j in range(3, r.shape[1], 4):
            idx = words.below(r[:, j], r[:, j + 1], r[:, j + 3])
            out |= self.pats[r[:, j + 2] + idx]
        return out


class _Lockstep:
    """estimate_tv's chains on one (formula, marking, config), run
    together as numpy arrays over runs, one chunk of runs at a time.

    A run's state is an int64 mask, variable v at bit v - 1. Each step
    draws the block by partial Fisher-Yates over the marked positions,
    looks up the row of the step's schedule in ``steps``, keyed by
    (block << n) | (kept values), and draws it; the extension reads
    ``ext``, keyed by the marked state. Every run reads the words its
    scalar chain reads, in the same order.
    """

    def __init__(self, chain: _Chain):
        self.chain = chain
        n, marked = chain.f.n, chain.marked
        self.nm = len(marked)
        self.vbits = np.array([1 << (v - 1) for v in marked], np.int64)
        self.steps = _Table(self._step_plan, self.vbits.tolist())
        unmarked = [1 << v for v in range(n) if chain.unmarked_mask >> v & 1]
        self.ext = _Table(chain.extension, unmarked)
        self.max_ext_comp = 0
        # (span, limit, shift) of each block draw, as rand_below(span)
        self.spans = []
        for i in range(chain.block):
            span = self.nm - i
            shift = 32 - (span - 1).bit_length()
            self.spans.append((span, span << shift, shift))
        # about the words a run reads: its init, then per step the block
        # draws with their average rejections and the schedule's draws
        per_step = sum(_NO_LIMIT / limit for _, limit, _ in self.spans) + 1 + 0.5 * chain.block
        self.width = min(_MAX_WORDS, int(2 * self.nm + n + chain.cfg.t_max * per_step) + 16)
        self.init = None
        if chain.cfg.init is not None:
            self.init = _init_marked(chain, None, ChainTrace())

    def _step_plan(self, key: int):
        chain = self.chain
        e, rest = chain.step(key >> chain.f.n, key & chain.marked_mask)
        return e._replace(free_bits=e.free_bits + tuple(1 << b for b in bit_positions(rest)))

    def run(self, seeds) -> np.ndarray | None:
        """Each run's final assignment as a mask, or None when some run
        finds no feasible init or ends on a marked state with no extension."""
        runs = len(seeds)
        words = _Words([make_rng(s) for s in seeds], self.width)
        x = np.full(runs, self.init or 0, np.int64)
        if self.init is None and not self._random_init(words, x):
            return None
        pool0 = np.tile(np.arange(self.nm, dtype=np.int64), (runs, 1))
        lanes = np.arange(runs, dtype=np.int64) * self.nm
        for _ in range(self.chain.cfg.t_max):
            block = self._block(words, pool0, lanes)
            kept = x & ~block
            i = self.steps.lookup((block << self.chain.f.n) | kept)
            x = kept | self.steps.draw(i, words)
        i = self.ext.lookup(x)
        if not self.ext.rows[i, _Table.FEASIBLE].all():
            return None
        self.max_ext_comp = max(self.max_ext_comp, int(self.ext.rows[i, _Table.COMP].max()))
        return x | self.ext.draw(i, words)

    def _random_init(self, words: _Words, x) -> bool:
        """_init_marked's fair-bit draws into x, redrawn for the runs whose
        pinning is infeasible, at most _MAX_REJECTS + 1 times; whether every
        run found a feasible pinning."""
        todo = np.ones(len(x), bool)
        for _ in range(_MAX_REJECTS + 1):
            draw = np.zeros(len(x), np.int64)
            for bit in self.vbits:
                # runs already feasible read no word
                draw |= words.below(_NO_LIMIT, 31, todo) * bit
            x[todo] = draw[todo]
            i = self.ext.lookup(x)  # before reading rows, which it can replace
            todo = self.ext.rows[i, _Table.FEASIBLE] == 0
            if not todo.any():
                return True
        return False

    def _block(self, words: _Words, pool0, lanes) -> np.ndarray:
        """The block mask of each run: partial Fisher-Yates over the marked
        positions, reading words as the scalar chain's inlined loop."""
        pool = None  # the identity until the first swap
        block = 0
        last = len(self.spans) - 1
        for i, (span, limit, shift) in enumerate(self.spans):
            if span == 1:
                pick = i if pool is None else pool[:, i]
            elif pool is None:
                # the first draw picks its position itself and sends
                # position 0 there
                pick = words.below(limit, shift)
                if i < last:
                    pool = pool0.copy()
                    pool.ravel()[lanes + pick] = 0
            else:
                at = lanes + i + words.below(limit, shift)
                flat = pool.ravel()
                pick = flat[at]
                if i < last:
                    flat[at] = pool[:, i]
            block = block | self.vbits[pick]
        return block


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
    if s <= 0:
        raise UsageError(f"uniformity parameter s must be positive, got {s}")
    if not subset_sizes or min(subset_sizes) < 0:
        raise UsageError(f"subset_sizes must be non-empty and >= 0, got {subset_sizes!r}")
    chain = _Chain(f, m, cfg)
    master = make_rng(cfg.seed)
    samples = [
        _run_marked_chain(chain, make_rng(spawn_seed(master)), ChainTrace()) for _ in range(trials)
    ]

    marked = chain.marked
    cells = []
    violations = []
    for _ in range(n_subsets):
        size = min(subset_sizes[rand_below(master, len(subset_sizes))], len(marked))
        subset = tuple(sorted(subsample(master, marked, size)))
        sub_mask = var_mask(subset)
        counts = Counter(x & sub_mask for x in samples)
        bound = (0.5 ** len(subset)) * math.exp(len(subset) / s)
        for pattern_bits, c in sorted(counts.items()):
            freq = c / trials
            sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            slack = bound + z * sigma - freq
            pattern = tuple((pattern_bits >> (v - 1)) & 1 for v in subset)
            cell = ChainUniformityCell(subset, pattern, freq, bound, slack)
            cells.append(cell)
            if slack < 0:
                violations.append(cell)
    return ChainUniformityReport(
        trials=trials, s=s, z=z, cells=tuple(cells), violations=tuple(violations)
    )
