"""High-degree / bad-variable / bad-clause fixed point and the induced good CNF.

The contamination process: seed with every variable of degree >= delta, pull
in each clause with at least ceil(zeta*k) contaminated variables, absorb all
its variables, and repeat until nothing changes. The threshold always uses
the nominal width k, not the residual width of a narrow clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import RegimeError, UsageError
from .formula import Formula, _ball_union, bit_positions, mask_groups, var_mask


def default_delta(k: int, alpha: float) -> int:
    """Degree threshold k^4 * alpha, rounded up."""
    return max(1, math.ceil(k**4 * alpha))


@dataclass(frozen=True)
class Classification:
    """The stable (bad variables, bad clauses) pair plus its parameters.

    Invariants: v_bad contains every high-degree variable; each bad clause
    has >= ceil(zeta*k) bad variables and in fact only bad variables; each
    good clause has < ceil(zeta*k) bad variables; bad_components partitions
    v_bad by shared-bad-clause adjacency.
    """

    delta: int
    zeta: float
    k: int
    v_bad: frozenset
    v_good: frozenset
    c_bad: frozenset
    c_good: frozenset
    bad_components: tuple

    @property
    def threshold(self) -> int:
        return _bad_threshold(self.zeta, self.k)

    def report(self) -> dict:
        sizes = sorted((len(c) for c in self.bad_components), reverse=True)
        return {
            "schema": "ksat/classify/v1",
            "delta": self.delta,
            "zeta": self.zeta,
            "k": self.k,
            "n_bad_vars": len(self.v_bad),
            "n_bad_clauses": len(self.c_bad),
            "component_sizes": sizes,
            "max_component": sizes[0] if sizes else 0,
        }


def _bad_threshold(zeta: float, k: int) -> int:
    return max(1, math.ceil(zeta * k))


def high_degree_vars(f: Formula, delta: int) -> set:
    """Variables with at least delta literal occurrences (with multiplicity)."""
    if delta < 1:
        raise UsageError(f"delta must be >= 1, got {delta}")
    return {v for v in range(1, f.n + 1) if f.degree(v) >= delta}


def classify(f: Formula, delta: int, zeta: float, k: int) -> Classification:
    """Least fixed point of the contamination process."""
    if not 0 < zeta < 0.5:
        raise UsageError(f"zeta must lie in (0, 1/2), got {zeta}")
    if k < 1:
        raise UsageError(f"nominal width k must be >= 1, got {k}")
    thresh = _bad_threshold(zeta, k)
    clause_vars = f._clause_var_masks
    bad = var_mask(high_degree_vars(f, delta))
    while True:
        bad_clauses = sum(
            1 << cid for cid, vs in enumerate(clause_vars) if (vs & bad).bit_count() >= thresh
        )
        grown = bad | _ball_union(clause_vars, bad_clauses)
        if grown == bad:
            break
        bad = grown

    v_bad = frozenset(b + 1 for b in bit_positions(bad))
    c_bad = frozenset(bit_positions(bad_clauses))
    cl = Classification(
        delta=delta,
        zeta=zeta,
        k=k,
        v_bad=v_bad,
        v_good=frozenset(range(1, f.n + 1)) - v_bad,
        c_bad=c_bad,
        c_good=frozenset(range(f.m)) - c_bad,
        bad_components=(),
    )
    return replace(cl, bad_components=bad_components(cl, f))


def good_induced_formula(f: Formula, cl: Classification, force: bool = False) -> Formula:
    """The good CNF: good clauses with their bad-variable literals deleted.

    Every output clause should have width in [(1-zeta)k, k] and every
    variable degree at most delta; violations signal parameters outside the
    supported regime and raise unless force=True.
    """
    clauses = []
    diagnostics = []
    for cid in sorted(cl.c_good):
        residual = tuple(lit for lit in f.clauses[cid] if lit.var in cl.v_good)
        if not residual:
            diagnostics.append(f"good clause {cid} lost all its literals")
            continue
        width = len(residual)
        if not (1 - cl.zeta) * cl.k <= width <= cl.k:
            diagnostics.append(
                f"good clause {cid} has residual width {width}, "
                f"outside [{(1 - cl.zeta) * cl.k:.2f}, {cl.k}]"
            )
        clauses.append(residual)
    good = Formula(f.n, tuple(clauses))
    over = [v for v in cl.v_good if good.degree(v) > cl.delta]
    if over:
        diagnostics.append(f"good variables over degree {cl.delta}: {sorted(over)}")
    if diagnostics and not force:
        raise RegimeError("; ".join(diagnostics))
    return good


def bad_components(cl: Classification, f: Formula) -> tuple:
    """Partition of v_bad by appears-in-the-same-bad-clause adjacency;
    bad variables in no bad clause are singletons. Sorted by min variable."""
    c_bad = sum(1 << cid for cid in cl.c_bad)
    # per bad variable (bit v-1), itself and the variables of its bad clauses
    balls = {
        v - 1: 1 << (v - 1) | _ball_union(f._clause_var_masks, f._var_clause_masks[v] & c_bad)
        for v in cl.v_bad
    }
    groups = mask_groups(balls, var_mask(cl.v_bad))
    return tuple(frozenset(b + 1 for b in bit_positions(g)) for g in groups)
