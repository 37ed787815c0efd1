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

``run_block_dynamics`` and ``check_chain_uniformity`` run one chain at a
time through ``_run_full``, the scalar reference. ``estimate_tv`` runs all
of its chains in lockstep as numpy arrays over runs (``_Lockstep``), in
chunks of runs: each run keeps its own generator, whose words are read
ahead in bulk and consumed in the order the scalar chain consumes them, so
every run ends where its scalar chain ends and the estimate is the same,
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InfeasiblePinningError, UsageError
from .formula import Formula, _solution_codes, mask_to_assignment, satisfies_mask, var_mask
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
        self.marked_mask = var_mask(self.marked)
        self.unmarked_mask = ((1 << f.n) - 1) & ~self.marked_mask
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
        for v in chain.marked:
            if cfg.init[v] not in (0, 1):
                raise UsageError(f"init value for {v} must be 0/1, got {cfg.init[v]!r}")
        xbits = var_mask(v for v in chain.marked if cfg.init[v])
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
    if not satisfies_mask(chain.f, bits):
        raise AssertionError("block dynamics produced a non-satisfying assignment")
    assignment = mask_to_assignment(bits, chain.f.n)
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
    seeded from cfg.seed.

    The chains run in lockstep (``_Lockstep``), _CHUNK_RUNS at a time, and
    give the TvEstimate the scalar chain ``_run_full`` gives run by run, bit
    for bit. A chunk in which some run fails is replayed by ``_run_full``,
    which raises that run's error."""
    if runs < 1:
        raise UsageError("runs must be >= 1")
    codes = _solution_codes(f)
    if not len(codes):
        raise DomainError("formula has no solutions to compare against")
    chain = _Chain(f, m, cfg)
    master = make_rng(cfg.seed)
    seeds = [spawn_seed(master) for _ in range(runs)]
    lock = _Lockstep(chain, codes)
    counts = np.zeros(len(codes), np.int64)
    for lo in range(0, runs, _CHUNK_RUNS):
        chunk = seeds[lo:lo + _CHUNK_RUNS]
        try:
            sol_idx = lock.run(chunk)
        except DomainError:  # a schedule over the cap, say
            sol_idx = None
        if sol_idx is None:
            for seed in chunk:
                _run_full(chain, make_rng(seed))
            raise AssertionError("lockstep chains failed where the scalar chains did not")
        counts += np.bincount(sol_idx, minlength=len(codes))
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

    def ensure(self, k: int) -> None:
        """Refill every row with fewer than k words left."""
        if self.slack >= k:
            return
        want = k + 2 * _WINDOW  # so that the next check comes some draws later
        for r in (self.end - self.pos < want).nonzero()[0].tolist():
            self._refill(r, want)
        self.slack = int((self.end - self.pos).min())

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

    def fair_bits(self, sub, bits) -> np.ndarray:
        """Per run in the index array sub, one fair bit a word for each of
        the masks bits in turn, as the sum of the masks drawn 1."""
        k = len(bits)
        self.ensure(k)
        self.slack -= k
        at = self.pos[sub]
        self.pos[sub] = at + k
        return ((sliding_window_view(self.buf, k)[at] >> 31) * bits).sum(axis=1)

    def below(self, limit, shift, act=1) -> np.ndarray:
        """Per run, rand_below's rejection draw on 32 - shift bits: the top
        bits of its first next word under limit = count << shift. limit and
        shift are ints or arrays over runs; a run whose act is 0 reads no
        word and must have limit _NO_LIMIT."""
        self.ensure(1 + _WINDOW)
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


def _grown(arr, used: int, need: int):
    """arr, or a copy of its first used rows with room for at least need
    rows, twice as many as arr had."""
    if need <= len(arr):
        return arr
    out = np.empty((max(need, 2 * len(arr)),) + arr.shape[1:], arr.dtype)
    out[:used] = arr[:used]
    return out


class _Table:
    """Draw tables of the schedules a lockstep batch meets, one row per key.

    build(key) gives a key's schedule (an ExecPlan) and its base output
    bits, or raises InfeasiblePinningError, which leaves the row
    infeasible. A row holds its schedule's draws as slots, in draw order:
    slot j is (limit, shift, offset, act) for a draw of count c on w bits,
    with shift = 32 - w, limit = c << shift (a word is accepted when it is
    under the limit), the offset in pats of the c output patterns (each
    solution's target bits, through out_bit) and act = 1. Rows share the
    patterns of draws on the same solutions and targets, and a free target
    is a slot of count 2 and width 1 on the patterns (0, its bit). Draws of
    count 1 read no word, so they fold into the row's fixed bits with the
    base. Rows with fewer slots than the widest are padded with slots of
    act 0 that accept any word and output nothing. Rows are kept in build
    order; keys holds the keys sorted, and order the row of each. The table
    starts over once its rows and patterns pass _TABLE_ENTRIES, so memory
    stays bounded.
    """

    _PAD = (_NO_LIMIT, 32, 0, 0)

    def __init__(self, build, out_bit):
        self.build = build
        self.out_bit = out_bit
        self.max_comp = 0  # largest residual component of any schedule built
        self._clear()

    def _clear(self) -> None:
        self.keys = np.array([_NO_KEY])
        self.order = np.zeros(1, np.int64)
        # row arrays and pats grow by doubling: n_rows and n_pats are in use
        self.n_rows = 0
        self.fixed = np.zeros(16, np.int64)
        self.feasible = np.zeros(16, bool)
        self.comp = np.zeros(16, np.int64)
        self.slots = []
        # the padding slots' pattern, then (0, out bit) for each free target
        self.free_at = {gb: 1 + 2 * i for i, gb in enumerate(self.out_bit)}
        self.pats = np.array([0] + [b for ob in self.out_bit.values() for b in (0, ob)], np.int64)
        self.n_pats = len(self.pats)
        # (id(sols), pairs) -> (sols, offset of the draw's patterns); holding
        # sols keeps its id from being reused
        self.pat_at = {}

    def lookup(self, keys) -> np.ndarray:
        """Row of each key, building the rows of new keys."""
        i = self.keys.searchsorted(keys)
        miss = self.keys[i] != keys
        if np.count_nonzero(miss):
            if self.n_rows + self.n_pats > _TABLE_ENTRIES:
                self._clear()
                miss = slice(None)
            self._insert(np.unique(keys[miss]).tolist())
            i = self.keys.searchsorted(keys)
        return self.order[i]

    def _insert(self, new_keys) -> None:
        rows = []
        pats = []
        size = self.n_pats
        for key in new_keys:
            try:
                plan, fixed = self.build(key)
            except InfeasiblePinningError:
                rows.append((0, False, 0, ()))
                continue
            self.max_comp = max(self.max_comp, plan.max_comp_vars)
            slots = []
            for sols, count, width, pairs in plan.draws:
                if count == 1:
                    s0 = int(sols[0])
                    fixed |= sum(self.out_bit[gb] for lb, gb in pairs if s0 >> lb & 1)
                    continue
                held = self.pat_at.get((id(sols), pairs))
                if held is None:
                    local = sols.astype(np.int64)
                    pat = np.zeros(count, np.int64)
                    for lb, gb in pairs:
                        pat |= ((local >> lb) & 1) * self.out_bit[gb]
                    held = self.pat_at[id(sols), pairs] = (sols, size)
                    pats.append(pat)
                    size += count
                slots.append((count << (32 - width), 32 - width, held[1], 1))
            for gb in plan.free_bits:
                slots.append((_NO_LIMIT, 31, self.free_at[gb], 1))
            rows.append((fixed, True, plan.max_comp_vars, slots))
        if pats:
            self.pats = _grown(self.pats, self.n_pats, size)
            self.pats[self.n_pats:size] = np.concatenate(pats)
            self.n_pats = size
        old, new = self.n_rows, self.n_rows + len(rows)
        for name, column in (("fixed", 0), ("feasible", 1), ("comp", 2)):
            arr = _grown(getattr(self, name), old, new)
            arr[old:new] = [r[column] for r in rows]
            setattr(self, name, arr)
        pad = np.array(self._PAD, np.int64)
        for j in range(max(len(self.slots), *(len(r[3]) for r in rows))):
            if j == len(self.slots):
                self.slots.append(np.tile(pad, (old, 1)))
            arr = self.slots[j] = _grown(self.slots[j], old, new)
            arr[old:new] = np.fromiter(
                itertools.chain.from_iterable(r[3][j] if j < len(r[3]) else self._PAD for r in rows),
                np.int64,
                4 * len(rows),
            ).reshape(-1, 4)
        self.n_rows = new
        # new_keys ascend and none is in keys, so each goes in at its place
        at = self.keys.searchsorted(new_keys)
        self.keys = np.insert(self.keys, at, new_keys)
        self.order = np.insert(self.order, at, np.arange(old, new))

    def draw(self, rows, words: _Words) -> np.ndarray:
        """Output bits of one draw of each run's row's schedule."""
        out = self.fixed[rows]
        for slots in self.slots:
            s = slots[rows]
            idx = words.below(s[:, 0], s[:, 1], s[:, 3])
            out |= self.pats[s[:, 2] + idx]
        return out


class _Lockstep:
    """estimate_tv's chains on one (formula, marking, config), run
    together as numpy arrays over runs, one chunk of runs at a time.

    A run's marked state is an int64 mask, variable v at bit v - 1. Each
    step draws the block by partial Fisher-Yates over the marked positions,
    looks up the row of the step's schedule in ``steps``, keyed by
    (block << n) | (kept values), and draws it; the extension reads
    ``ext``, keyed by the marked state, whose output bits are solution codes
    (variable v at bit n - v, as ``_solution_codes``). Every run reads the
    words its scalar chain reads, in the same order.
    """

    def __init__(self, chain: _Chain, codes: np.ndarray):
        self.chain = chain
        n, marked = chain.f.n, chain.marked
        self.nm = len(marked)
        self.vbits = np.array([1 << (v - 1) for v in marked], np.int64)
        self.steps = _Table(self._step_plan, {1 << (v - 1): 1 << (v - 1) for v in marked})
        unmarked = sorted(set(range(1, n + 1)) - set(marked))
        self.ext = _Table(self._ext_plan, {1 << (v - 1): 1 << (n - v) for v in unmarked})
        self.max_ext_comp = 0
        self.codes = np.append(codes.astype(np.int64), _NO_KEY)
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
        n = self.chain.f.n
        block, kept = key >> n, key & ((1 << n) - 1)
        chain = self.chain
        return chain.store(chain.marked_mask & ~block, kept, block, chain.cfg.cap), 0

    def _ext_plan(self, xbits: int):
        n = self.chain.f.n
        base = sum(1 << (n - v) for v in self.chain.marked if xbits >> (v - 1) & 1)
        return self.chain.extension(xbits), base

    def run(self, seeds) -> np.ndarray | None:
        """Index in the solution codes of each run's final assignment, or
        None when some run fails: its random init finds no feasible
        pinning, or its final assignment is no solution."""
        runs = len(seeds)
        words = _Words([make_rng(s) for s in seeds], self.width)
        if self.init is not None:
            x = np.full(runs, self.init, np.int64)
        else:
            x = self._random_init(words, runs)
            if x is None:
                return None
        pool0 = np.tile(np.arange(self.nm, dtype=np.int64), (runs, 1))
        lanes = np.arange(runs, dtype=np.int64) * self.nm
        for _ in range(self.chain.cfg.t_max):
            block = self._block(words, pool0, lanes)
            kept = x & ~block
            i = self.steps.lookup((block << self.chain.f.n) | kept)
            x = kept | self.steps.draw(i, words)
        i = self.ext.lookup(x)
        if not self.ext.feasible[i].all():
            return None
        self.max_ext_comp = max(self.max_ext_comp, int(self.ext.comp[i].max()))
        final = self.ext.draw(i, words)
        idx = np.searchsorted(self.codes, final)
        if np.count_nonzero(self.codes[idx] != final):
            return None
        return idx

    def _random_init(self, words: _Words, runs: int):
        """_init_marked's fair-bit draws, redrawn for the runs whose pinning
        is infeasible, at most _MAX_REJECTS + 1 times."""
        x = np.zeros(runs, np.int64)
        todo = np.arange(runs)
        for _ in range(_MAX_REJECTS + 1):
            xbits = words.fair_bits(todo, self.vbits)
            x[todo] = xbits
            rows = self.ext.lookup(xbits)
            todo = todo[~self.ext.feasible[rows]]
            if not len(todo):
                return x
        return None

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
        sub_mask = var_mask(subset)
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
