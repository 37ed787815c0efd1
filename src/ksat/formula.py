"""CNF data model: DIMACS I/O, random instances, graph views.

Variables are 1-based. Assignments come in two public flavors:

* ``Assignment``: a tuple of 0/1 ints of length n, variable i at index i-1.
* ``PartialAssignment``: a dict mapping a subset of variables to 0/1.

Internally variable sets and assignments are also handled as Python int
bitmasks with variable v at bit v-1; the helpers at the bottom convert. Every
public entry point checks its arguments once with the check_* validators
there, which return masks; a bad input raises UsageError naming the smallest
offender, and an integer is whatever operator.index accepts.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CapExceededError, UsageError
from .rng import as_rng, rand_bit, sample_without_replacement

Assignment = tuple  # tuple[int, ...] of 0/1, length n
PartialAssignment = Mapping  # Mapping[int, int], values in {0, 1}

DEFAULT_ENUM_CAP = 1 << 26  # candidates an enumeration of the whole formula may cover

_ENUM_CHUNK = 1 << 17  # candidates per chunk of _enumerate_local, rounded down to a power of two


class Literal(NamedTuple):
    """A signed variable occurrence; sign=True means the positive literal."""

    var: int
    sign: bool

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        if lit == 0:
            raise UsageError("literal 0 is reserved as the DIMACS terminator")
        return cls(abs(lit), lit > 0)

    def to_int(self) -> int:
        return self.var if self.sign else -self.var


@dataclass(frozen=True)
class Formula:
    """Immutable CNF: n variables, clauses as tuples of Literals.

    Invariants (checked on construction): every clause nonempty, no clause
    repeats a variable, every variable index in [1, n]. Repeated clauses are
    allowed; variable degree counts occurrences with multiplicity.

    The bitmasks below are the one view of clause-variable incidence: per
    clause its (pos, neg) literal masks and variable mask, per variable the
    mask of the clause ids holding it. degree and clause_vars read them.
    """

    n: int
    clauses: tuple

    def __post_init__(self):
        if self.n < 0:
            raise UsageError(f"variable count must be >= 0, got {self.n}")
        for cid, clause in enumerate(self.clauses):
            if not clause:
                raise UsageError(f"clause {cid} is empty")
            vs = [lit.var for lit in clause]
            if check_variables(self, vs, f"clause {cid}: variable").bit_count() < len(vs):
                dup = next(v for i, v in enumerate(vs) if v in vs[:i])
                raise UsageError(f"clause {cid}: duplicate variable {dup}")

    @classmethod
    def from_ints(cls, n: int, clauses: Iterable[Iterable[int]]) -> "Formula":
        """Build from signed-int clauses, e.g. ``Formula.from_ints(3, [[1, -2]])``."""
        return cls(n, tuple(tuple(Literal.from_int(l) for l in c) for c in clauses))

    @property
    def m(self) -> int:
        return len(self.clauses)

    def degree(self, v: int) -> int:
        return self._var_clause_masks[v].bit_count()

    def clause_vars(self, cid: int) -> frozenset:
        return frozenset(b + 1 for b in bit_positions(self._clause_var_masks[cid]))

    @cached_property
    def _clause_masks(self) -> tuple:
        """(pos_mask, neg_mask) int bitmask pair per clause, bit v-1 for var v."""
        masks = []
        for clause in self.clauses:
            pos = neg = 0
            for lit in clause:
                bit = 1 << (lit.var - 1)
                if lit.sign:
                    pos |= bit
                else:
                    neg |= bit
            masks.append((pos, neg))
        return tuple(masks)

    @cached_property
    def _clause_var_masks(self) -> tuple:
        """Variable mask of each clause, bit v-1 for var v."""
        return tuple(pos | neg for pos, neg in self._clause_masks)

    @cached_property
    def _var_clause_masks(self) -> tuple:
        """Per-variable mask of the clause ids containing it, bit cid for
        clause cid (index 0 unused)."""
        masks = [0] * (self.n + 1)
        for cid, clause in enumerate(self.clauses):
            for lit in clause:
                masks[lit.var] |= 1 << cid
        return tuple(masks)

    @cached_property
    def _clause_ball1(self) -> tuple:
        """Per clause, the mask of clause ids sharing a variable with it,
        itself included: its closed neighbourhood in the clause graph."""
        # vs << 1 has bit v for variable v, the index into _var_clause_masks
        return tuple(_ball_union(self._var_clause_masks, vs << 1) for vs in self._clause_var_masks)

    @cached_property
    def _clause_ball2(self) -> tuple:
        """Per clause, the mask of clause ids at distance <= 2 from it in the
        clause graph, itself included."""
        ball1 = self._clause_ball1
        return tuple(_ball_union(ball1, near) for near in ball1)


def parse_dimacs(text) -> Formula:
    """Parse a DIMACS CNF document (str or bytes).

    Comment lines start with 'c'; the header is ``p cnf n m``; clauses are
    zero-terminated literal sequences and may span lines. Exactly m clauses
    are required.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise UsageError(f"DIMACS text is not ASCII: {exc}") from None
    n = m = None
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise UsageError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise UsageError(f"malformed DIMACS header: {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise UsageError(f"malformed DIMACS header: {line!r}") from exc
            continue
        tokens.extend(line.split())
    if n is None:
        raise UsageError("missing DIMACS header 'p cnf n m'")

    clauses = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError as exc:
            raise UsageError(f"bad literal token {tok!r}") from exc
        if lit == 0:
            clauses.append(current)
            current = []
        else:
            current.append(lit)
    if current:
        raise UsageError("unterminated final clause (missing 0)")
    if len(clauses) != m:
        raise UsageError(f"header declares {m} clauses, found {len(clauses)}")
    return Formula.from_ints(n, clauses)


def emit_dimacs(f: Formula) -> str:
    """Canonical DIMACS text: header plus one zero-terminated line per clause,
    literal order preserved."""
    lines = [f"p cnf {f.n} {f.m}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit.to_int()) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def generate_random_kcnf(n: int, m: int, k: int, seed) -> Formula:
    """m i.i.d. clauses: k distinct variables uniform without replacement,
    each polarity an independent fair coin. Repeated clauses are allowed.

    Deterministic given the seed; variables within a clause are sorted and
    signs are drawn in sorted-variable order.
    """
    if m < 0:
        raise UsageError(f"clause count m must be >= 0, got {m}")
    if k > n:
        raise UsageError(f"clause width k={k} exceeds variable count n={n}")
    if k < 1 and m > 0:
        raise UsageError("clause width must be >= 1")
    rng = as_rng(seed)
    clauses = []
    for _ in range(m):
        vs = sorted(sample_without_replacement(rng, n, k))
        clauses.append(tuple(Literal(v, bool(rand_bit(rng))) for v in vs))
    return Formula(n, tuple(clauses))


def connected_component(f: Formula, v: int):
    """Maximal variable set reachable from v via shared clauses, plus every
    clause touching that set. An isolated variable yields ({v}, set())."""
    v = check_variable(f, v)
    clauses = f._var_clause_masks[v]
    if clauses:
        clauses = next(g for g in mask_groups(f._clause_ball1, (1 << f.m) - 1) if g & clauses)
    variables = 1 << (v - 1) | _ball_union(f._clause_var_masks, clauses)
    return {b + 1 for b in bit_positions(variables)}, set(bit_positions(clauses))


def clause_graph_components(
    f: Formula,
    adjacency: str = "shared-any-var",
    power: int = 1,
    classification=None,
    vertices=None,
):
    """Partition clause ids into components of the chosen clause graph.

    adjacency: 'shared-any-var' (all clauses), 'shared-good-var' (good
    clauses, edges via good variables), 'shared-bad-var' (bad clauses).
    Two vertices are joined when their distance in the *base* graph of the
    chosen adjacency is <= power; distances are measured in the full base
    graph even when `vertices` restricts the vertex set.
    """
    if power < 1:
        raise UsageError(f"power must be >= 1, got {power}")
    if adjacency == "shared-any-var":
        base = (1 << f.m) - 1
        balls = f._clause_ball1
    elif adjacency in ("shared-good-var", "shared-bad-var"):
        if classification is None:
            raise UsageError(f"adjacency {adjacency!r} requires a classification")
        if adjacency == "shared-good-var":
            base_ids, var_filter = classification.c_good, classification.v_good
        else:
            base_ids, var_filter = classification.c_bad, classification.v_bad
        base = sum(1 << cid for cid in base_ids)
        # variable masks shifted left by one: bit v indexes _var_clause_masks[v]
        keep = var_mask(var_filter) << 1
        by_var = f._var_clause_masks
        balls = {
            cid: 1 << cid | _ball_union(by_var, f._clause_var_masks[cid] << 1 & keep) & base
            for cid in base_ids
        }
    else:
        raise UsageError(f"unknown adjacency mode {adjacency!r}")

    ids = base if vertices is None else check_clause_ids(f, vertices)
    if ids & ~base:
        raise UsageError("vertices outside the base graph's vertex set")
    reach = {cid: balls[cid] for cid in bit_positions(ids)}
    for _ in range(power - 1):
        reach = {cid: _ball_union(balls, near) for cid, near in reach.items()}
    return [set(bit_positions(g)) for g in mask_groups(reach, ids)]


def mask_groups(balls, ids: int) -> list:
    """Groups of the bit positions in the mask ids under any symmetric
    relation given as closed neighbourhoods: position c is joined to the
    positions in the mask balls[c]. Only positions in ids are visited, each
    at most once, so balls may be a dict over them or compute each ball on
    demand. Each group is a mask; the groups come in order of their lowest
    position."""
    groups = []
    while ids:
        group = frontier = ids & -ids
        # a group holding every id left cannot grow
        while frontier and group != ids:
            frontier = _ball_union(balls, frontier) & ids & ~group
            group |= frontier
        groups.append(group)
        ids &= ~group
    return groups


def _ball_union(balls, ids: int) -> int:
    """Union of the masks balls[c] over the ids c in the mask ids."""
    out = 0
    for cid in bit_positions(ids):
        out |= balls[cid]
    return out


def enumerate_solutions(f: Formula, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All satisfying assignments, in lexicographic order of the assignment
    tuple (variable 1 most significant). _enumerate_local covers all 2^n
    candidates, which cap must allow; this is the reference oracle for
    everything else in the package."""
    codes = _solution_codes(f, cap)
    shifts = np.arange(f.n - 1, -1, -1, dtype=np.uint64)
    return list(map(tuple, ((codes[:, None] >> shifts) & np.uint64(1)).tolist()))


def _solution_codes(f: Formula, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """The solutions of enumerate_solutions as ascending uint64 codes, with
    variable v at bit n-v, so ascending codes are ascending assignment
    tuples."""
    _check_cap("formula", f.n, cap)
    # reversing each n-bit clause mask moves variable v from bit v-1 to n-v
    width = f"0{f.n}b"
    clauses = [
        (int(format(pos, width)[::-1], 2), int(format(neg, width)[::-1], 2))
        for pos, neg in f._clause_masks
    ]
    return _enumerate_local(f.n, clauses)


def _check_cap(what: str, nvars: int, cap: int) -> None:
    """The one enumeration budget: CapExceededError when the 2^nvars
    candidates an enumeration of `what` covers are more than cap."""
    if 1 << nvars > cap:
        msg = f"{what} on {nvars} variables needs {1 << nvars} evaluations, cap is {cap}"
        raise CapExceededError(msg, size=nvars)


def _enumerate_local(nvars: int, clauses) -> np.ndarray:
    """The masks over bits 0..nvars-1 satisfying every (pos, neg) clause,
    ascending, as uint64. pos and neg are disjoint, and a mask fails a
    clause when it has no bit of pos and every bit of neg: the clause's
    forbidden subcube. Per chunk of _ENUM_CHUNK candidates, a bool array of
    ones, each clause the chunk's high bits leave open clears its subcube
    in one assignment, so it costs the points it forbids."""
    bits = min(nvars, _ENUM_CHUNK.bit_length() - 1)
    pieces = []
    for high in range(1 << (nvars - bits)):
        good = np.ones(1 << bits, dtype=bool)
        for pos, neg in clauses:
            lits = pos | neg
            if high & (lits >> bits) != neg >> bits:
                continue
            # one axis per run of chunk bits all in lits or all outside, from the
            # highest, so at most bits axes (17 by default; numpy 1.26 allows
            # 32): a literal run indexed by neg's bits there, a gap sliced
            shape, index, top = [], [], bits
            while top:
                lit = lits >> (top - 1) & 1
                bottom = ((~lits if lit else lits) & ((1 << top) - 1)).bit_length()
                shape.append(1 << (top - bottom))
                index.append(neg >> bottom & (1 << (top - bottom)) - 1 if lit else slice(None))
                top = bottom
            good.reshape(shape)[tuple(index)] = False
        piece = np.flatnonzero(good).view(np.uint64)
        if high:
            piece += np.uint64(high << bits)
        pieces.append(piece)
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


def is_satisfying(f: Formula, a: Assignment) -> bool:
    return satisfies_mask(f, check_assignment(f, a))


def satisfies_mask(f: Formula, mask: int) -> bool:
    """Whether the assignment mask, variable v at bit v-1, satisfies f."""
    for pos, neg in f._clause_masks:
        if not (mask & pos) and not (neg & ~mask):
            return False
    return True


def open_clauses(f: Formula, dom: int, val: int) -> int:
    """Id mask, bit cid for clause cid, of the clauses no literal of the
    pinning (dom, val) satisfies; val must lie inside dom."""
    false_lits = dom & ~val
    return sum(1 << cid for cid, (pos, neg) in enumerate(f._clause_masks)
               if not (pos & val or neg & false_lits))


def hamming(a: Assignment, b: Assignment) -> int:
    if not all(isinstance(x, (tuple, list, np.ndarray, Sequence)) for x in (a, b)):
        raise UsageError("assignments must be sequences")
    if len(a) != len(b):
        raise UsageError("assignments of different lengths")
    return sum(x != y for x, y in zip(a, b))


def assignment_to_mask(a: Assignment) -> int:
    """Bitmask with variable v at bit v-1."""
    mask = 0
    for i, bit in enumerate(a):
        if bit:
            mask |= 1 << i
    return mask


def var_mask(variables) -> int:
    """Bitmask of a variable set, variable v at bit v-1."""
    mask = 0
    for v in variables:
        mask |= 1 << (v - 1)
    return mask


def mask_to_assignment(mask: int, n: int) -> Assignment:
    return tuple((mask >> i) & 1 for i in range(n))


def bit_positions(mask: int) -> list:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def check_variable(f: Formula, v, what: str = "variable") -> int:
    """v as an int, if it is a variable of f."""
    return _index_mask((v,), 1, f.n, what).bit_length()


def check_variables(f: Formula, vs, what: str = "variable") -> int:
    """Mask of vs, if its members are variables of f."""
    return _index_mask(vs, 1, f.n, what)


def check_clause_ids(f: Formula, ids) -> int:
    """Mask of ids, bit cid for clause cid, if its members are f's clause ids."""
    return _index_mask(ids, 0, f.m - 1, "clause id")


def check_assignment(f: Formula, a, what: str = "assignment", solution: bool = False) -> int:
    """Mask of a, if it is a sequence of n values 0/1 and, with solution, satisfies f."""
    if not isinstance(a, (tuple, list, np.ndarray, Sequence)):  # concrete types test fastest
        raise UsageError(f"{what} must be a sequence of 0/1 values, got {type(a).__name__}")
    if len(a) != f.n:
        raise UsageError(f"{what} has length {len(a)}, expected {f.n}")
    mask = _bits_mask(enumerate(a, 1), what)
    if solution and not satisfies_mask(f, mask):
        raise UsageError(f"{what} does not satisfy the formula")
    return mask


def check_pinning(f: Formula, x: PartialAssignment, what: str = "pinned") -> tuple:
    """(domain mask, value mask) of x, if it maps variables of f to 0/1."""
    if type(x) is dict and not x:  # the common empty pinning, in one test no operand overloads
        return 0, 0
    if not isinstance(x, (dict, Mapping)):
        raise UsageError(f"{what} must be a mapping of variables to 0/1, got {type(x).__name__}")
    return _index_mask(x, 1, f.n, what + " variable"), _bits_mask(x.items(), what)


def check_integer(x, what: str) -> int:
    """x as an int, if operator.index accepts it."""
    try:
        return operator.index(x)
    except TypeError:
        raise UsageError(f"{what} {x!r} is not an integer") from None


def _index_mask(items, lo: int, hi: int, what: str) -> int:
    """Mask of the integers items, bit i - lo for item i, if all lie in
    [lo, hi]; a non-integer is named first, then the smallest outlier."""
    mask = 0
    out = None
    for x in items:
        i = check_integer(x, what)
        if lo <= i <= hi:
            mask |= 1 << (i - lo)
        elif out is None or i < out:
            out = i
    if out is not None:
        raise UsageError(f"{what} {out} out of range [{lo}, {hi}]")
    return mask


def _bits_mask(pairs, what: str) -> int:
    """Mask of the (variable, value) pairs with value 1, variable v at bit
    v-1, if every value is 0/1; the smallest variable failing is named."""
    mask = 0
    bad = None
    for v, x in pairs:
        try:
            b = operator.index(x)
        except TypeError:
            b = None
        if b == 1:
            mask |= 1 << (operator.index(v) - 1)
        elif b != 0 and (bad is None or operator.index(v) < bad[0]):
            bad = operator.index(v), x
    if bad is not None:
        raise UsageError(f"{what} value for {bad[0]} must be 0/1, got {bad[1]!r}")
    return mask
