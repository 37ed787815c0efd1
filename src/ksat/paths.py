"""Explicit short-step paths between satisfying assignments.

The bounded-degree walk runs in two stages. Stage 1 processes marked
variables in ascending order, retargeting each to its destination value by
re-solving only the connected component of that variable in the formula
simplified under the other marked values, and picking the component solution
closest in Hamming distance (``marginals.closest_solution``, read off the
formula's draw schedule; ties broken by the smallest local solution
encoding). Stage 2 pins all marked variables at their destination values and
switches each residual component wholesale to the destination assignment
(``_switch_components``); variables outside the marked set and every
residual component flip in the first stage-2 step. Stage 2 needs only the
components' variables, so it splits the residual (``marginals.decompose``)
and enumerates nothing. The walks hold assignments and pinnings as int
masks, variable v at bit v-1, and build the SolutionPath's tuples once.

The random-formula walk routes both endpoints through a common uniform
solution of the good CNF, then switches the bad components between the two
bad-variable assignments the same way, under the good solution's pinning.
Each leg to the good solution is the bounded-degree walk in the formula
itself with the endpoint's bad values added to every pinning, so both legs
read the formula's own stores; the marking is checked once, against the good
CNF, before any draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Classification, good_induced_formula
from .errors import RegimeError, UsageError
from .formula import (
    Formula, assignment_to_mask, bit_positions, hamming, is_satisfying, mask_to_assignment,
    satisfies_mask, var_mask,
)
from .marginals import DEFAULT_CAP, closest_solution, decompose, sample_conditional
from .marking import Marking, verify_marking
from .rng import as_rng

STAGE_MARKED = "marked-update"
STAGE_UNMARKED = "unmarked-component"
STAGE_BAD = "bad-component"
STAGE_LIFT = "lift"


@dataclass(frozen=True)
class SolutionPath:
    """Ordered satisfying assignments with per-step distances and stage tags.

    entries[0] and entries[-1] are the input endpoints; step_distances[i] =
    hamming(entries[i], entries[i+1]) > 0 for every step.
    """

    entries: tuple
    step_distances: tuple
    stages: tuple

    @property
    def max_step(self) -> int:
        return max(self.step_distances, default=0)

    def to_json(self) -> dict:
        return {
            "schema": "ksat/path/v1",
            "entries": ["".join(map(str, a)) for a in self.entries],
            "distances": list(self.step_distances),
            "stages": list(self.stages),
        }


class _PathBuilder:
    """Path under construction, its entries as assignment masks."""

    def __init__(self, start: int):
        self.entries = [start]
        self.stages = []

    @property
    def current(self) -> int:
        return self.entries[-1]

    def push(self, assignment: int, stage):
        if assignment != self.current:
            self.entries.append(assignment)
            self.stages.append(stage)

    def build(self, n: int) -> SolutionPath:
        e = self.entries
        distances = tuple((a ^ b).bit_count() for a, b in zip(e, e[1:]))
        entries = tuple(mask_to_assignment(a, n) for a in e)
        return SolutionPath(entries, distances, tuple(self.stages))


def _switch_components(f, builder, dom, dest, stage):
    """Walk from builder.current to the mask dest off dom, under dest's
    pinning on dom: one step per residual component, in ascending order of
    lowest variable. The free variables in no component move with the
    first step, or alone when there is no component."""
    falsified, groups = decompose(f._clause_masks, dom, dest & dom)
    if falsified is not None:
        raise AssertionError("pinning taken from a solution falsifies a clause")
    comps = [mask for mask, _ in groups] or [0]
    comps[0] |= ((1 << f.n) - 1) & ~dom & ~sum(comps)
    for mask in comps:
        nxt = builder.current & ~mask | dest & mask
        if not satisfies_mask(f, nxt):
            raise AssertionError(f"{stage} step broke satisfaction")
        builder.push(nxt, stage)


def _check_inputs(f, g, m, sigma, sigma_prime):
    """Endpoints that satisfy f, and a certified marking within its quotas
    on g."""
    for name, a in (("sigma", sigma), ("sigma_prime", sigma_prime)):
        if len(a) != f.n:
            raise UsageError(f"{name} has length {len(a)}, expected {f.n}")
        if not is_satisfying(f, a):
            raise UsageError(f"{name} does not satisfy the formula")
    if not m.certified:
        raise UsageError("marking is not certified")
    bad = verify_marking(g, m)
    if bad:
        raise UsageError(f"marking violates its quotas on clauses {bad}")


def find_path_bounded(
    f: Formula,
    m: Marking,
    sigma,
    sigma_prime,
    cap: int = DEFAULT_CAP,
) -> SolutionPath:
    """Two-stage marked-variable walk from sigma to sigma_prime."""
    _check_inputs(f, f, m, sigma, sigma_prime)
    start, dest = assignment_to_mask(sigma), assignment_to_mask(sigma_prime)
    return _marked_walk(f, m, start, dest, 0, cap).build(f.n)


def _marked_walk(f, m, start, dest, fixed, cap) -> _PathBuilder:
    """The two-stage walk from the assignment mask start to dest, which
    agree on the variable mask fixed, with fixed added to every pinning:
    the walk in f simplified under those values, read off f's own stores."""
    builder = _PathBuilder(start)
    marked = var_mask(m.marked)

    # Stage 1: retarget marked variables one at a time
    for b in bit_positions(marked):
        cur = builder.current
        want = (dest >> b) & 1
        if (cur >> b) & 1 == want:
            continue
        dom = fixed | marked & ~(1 << b)
        update = closest_solution(f, dom, cur & dom, b + 1, want, cur, cap)
        if update is None:
            raise RegimeError(
                f"marked variable {b + 1} cannot take value {want} "
                "under the shared marked pinning; marking preconditions "
                "do not hold at these parameters"
            )
        comp, vals = update
        nxt = cur & ~comp | vals
        if not satisfies_mask(f, nxt):
            raise AssertionError("stage-1 update broke satisfaction")
        builder.push(nxt, STAGE_MARKED)

    assert not (builder.current ^ dest) & marked

    # Stage 2: pin the marked destination, switch residual components
    _switch_components(f, builder, fixed | marked, dest, STAGE_UNMARKED)

    if builder.current != dest:
        raise AssertionError("path does not reach the destination")
    return builder


def find_path_random(
    f: Formula,
    cl: Classification,
    m: Marking,
    sigma,
    sigma_prime,
    seed=0,
    cap: int = DEFAULT_CAP,
) -> SolutionPath:
    """Route both endpoints through a uniform good-CNF solution, then walk
    the bad components between the endpoint bad assignments."""
    good = good_induced_formula(f, cl, force=True)
    _check_inputs(f, good, m, sigma, sigma_prime)
    if not m.marked <= cl.v_good:
        raise UsageError("marking must sit inside the good variables")
    start, dest = assignment_to_mask(sigma), assignment_to_mask(sigma_prime)
    rng = as_rng(seed)
    psi = sample_conditional(good, {}, sorted(cl.v_good), rng, cap=cap)
    good_mask = var_mask(psi)
    psi_val = var_mask(v for v, b in psi.items() if b)

    def lifted_leg(endpoint):
        """Path from `endpoint` to psi + endpoint(bad vars): the marked walk
        in f with the endpoint's bad values added to every pinning."""
        target = endpoint & ~good_mask | psi_val
        if not satisfies_mask(f, target):
            raise RegimeError(
                "uniform good-CNF solution does not lift to a solution; "
                "classification parameters outside the supported regime"
            )
        return _marked_walk(f, m, endpoint, target, var_mask(cl.v_bad), cap)

    leg_a = lifted_leg(start)
    leg_b = lifted_leg(dest)

    builder = _PathBuilder(start)
    for entry in leg_a.entries[1:]:
        builder.push(entry, STAGE_LIFT)

    # middle: switch bad components from sigma's to sigma_prime's values
    _switch_components(f, builder, good_mask, leg_b.current, STAGE_BAD)

    # reversed second leg: from psi + sigma_prime(bad) back to sigma_prime
    for entry in reversed(leg_b.entries[:-1]):
        builder.push(entry, STAGE_LIFT)

    if builder.current != dest:
        raise AssertionError("path does not reach sigma_prime")
    return builder.build(f.n)


@dataclass(frozen=True)
class PathReport:
    non_satisfying: tuple  # entry indices
    oversize_steps: tuple  # (step index, distance)
    distance_mismatches: tuple  # (step index, recorded, recomputed)
    endpoint_mismatch: tuple  # () or a description tuple

    @property
    def ok(self) -> bool:
        return not (
            self.non_satisfying
            or self.oversize_steps
            or self.distance_mismatches
            or self.endpoint_mismatch
        )


def validate_path(
    f: Formula,
    p: SolutionPath,
    d_bound: int,
    sigma=None,
    sigma_prime=None,
) -> PathReport:
    """Check every entry satisfies, every step distance is recorded correctly
    and at most d_bound, and (when given) the endpoints match."""
    non_sat = tuple(
        i for i, a in enumerate(p.entries) if not is_satisfying(f, a)
    )
    oversize = []
    mismatch = []
    for i in range(len(p.entries) - 1):
        d = hamming(p.entries[i], p.entries[i + 1])
        if i < len(p.step_distances) and d != p.step_distances[i]:
            mismatch.append((i, p.step_distances[i], d))
        if d > d_bound:
            oversize.append((i, d))
    endpoint = ()
    if sigma is not None and p.entries[0] != tuple(sigma):
        endpoint += ("start",)
    if sigma_prime is not None and p.entries[-1] != tuple(sigma_prime):
        endpoint += ("end",)
    return PathReport(
        non_satisfying=non_sat,
        oversize_steps=tuple(oversize),
        distance_mismatches=tuple(mismatch),
        endpoint_mismatch=endpoint,
    )
