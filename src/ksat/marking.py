"""Markings: variable subsets giving every clause enough marked and
unmarked variables, found by resampling violating clauses."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError
from .formula import Formula, bit_positions, var_mask
from .rng import as_rng, rand_float


@dataclass(frozen=True)
class Marking:
    """When certified, every clause has >= k_m marked and >= k_u unmarked
    variables."""

    marked: frozenset
    k_m: int
    k_u: int
    certified: bool

    def to_json(self) -> dict:
        return {
            "schema": "ksat/mark/v1",
            "k_m": self.k_m,
            "k_u": self.k_u,
            "certified": self.certified,
            "marked": sorted(self.marked),
        }


def default_quotas(k: int, zeta: float = 0.0) -> tuple:
    """Desk-scale quotas (k_m, k_u) = (ceil(0.35(1-zeta)k), ceil(0.17(1-zeta)k))."""
    if not 0 <= zeta < 0.5:
        raise UsageError(f"zeta must lie in [0, 1/2), got {zeta}")
    return (
        max(1, math.ceil(0.35 * (1 - zeta) * k)),
        max(1, math.ceil(0.17 * (1 - zeta) * k)),
    )


def find_marking(
    f: Formula,
    k_m: int,
    k_u: int,
    p_mark: float | None = None,
    seed=0,
    max_resamples: int = 10_000,
    eligible=None,
) -> Marking:
    """Search for a certified marking by clause resampling.

    Mark each eligible variable independently with probability p_mark
    (default k_m / (k_m + k_u)); while some clause misses its quota,
    re-randomize the eligible variables of the lowest-id violating clause.
    Exhausting the budget returns an uncertified Marking rather than raising.

    `eligible` restricts which variables may ever be marked (used to keep
    markings inside the good variables); ineligible variables count as
    unmarked.
    """
    if k_m < 0 or k_u < 0:
        raise UsageError("quotas must be nonnegative")
    if max_resamples < 0:
        raise UsageError(f"max_resamples must be >= 0, got {max_resamples}")
    if p_mark is None:
        p_mark = k_m / (k_m + k_u) if k_m + k_u else 0.5
    if not 0.0 <= p_mark <= 1.0:
        raise UsageError(f"p_mark must lie in [0, 1], got {p_mark}")
    if eligible is None:
        eligible = (1 << f.n) - 1
    else:  # variables outside the formula are never marked
        eligible = var_mask(v for v in eligible if 1 <= v <= f.n)
    for cid, vs in enumerate(f._clause_var_masks):
        if vs.bit_count() < k_m + k_u:
            raise UsageError(
                f"clause {cid} has width {vs.bit_count()} < k_m + k_u = {k_m + k_u}"
            )
        if (vs & eligible).bit_count() < k_m:
            raise UsageError(
                f"clause {cid} has only {(vs & eligible).bit_count()} eligible "
                f"variables, needs k_m = {k_m}"
            )

    rng = as_rng(seed)
    marked = sum(1 << b for b in bit_positions(eligible) if rand_float(rng) < p_mark)

    budget = max_resamples
    while True:
        violating = _violations(f, marked, k_m, k_u)
        if not violating or budget <= 0:
            return Marking(
                frozenset(b + 1 for b in bit_positions(marked)), k_m, k_u, not violating
            )
        budget -= 1
        for b in bit_positions(f._clause_var_masks[violating[0]] & eligible):
            if rand_float(rng) < p_mark:
                marked |= 1 << b
            else:
                marked &= ~(1 << b)


def verify_marking(f: Formula, m: Marking) -> list:
    """Clause ids violating the (k_m, k_u) quotas; empty iff valid."""
    return _violations(f, var_mask(m.marked), m.k_m, m.k_u)


def _violations(f: Formula, marked: int, k_m: int, k_u: int) -> list:
    """Clause ids violating the quotas under the marked variable mask."""
    out = []
    for cid, vs in enumerate(f._clause_var_masks):
        n_marked = (vs & marked).bit_count()
        if n_marked < k_m or vs.bit_count() - n_marked < k_u:
            out.append(cid)
    return out
