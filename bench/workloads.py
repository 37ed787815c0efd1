"""The four benchmark workloads.

Each workload builds its inputs from the run's seed (`build`), optionally
warms the program's caches (`warm`), lists its operations (`ops`) and judges
each output against `oracle` (`check`, then `finish` for checks pooled over
the run). A check returns OK, FAILED (the program reported an error for the
operation) or WRONG (an output disagrees with the oracle). One round of a
workload is a fixed list of operations; a run does a fixed number of rounds,
set from the run length, so every run of a workload does the same amount of
work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import oracle
from ksat import cli, coupling, geometry, marking, sampler
from ksat.classify import classify as classify_formula
from ksat.errors import KsatError
from ksat.formula import Formula

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

OK, FAILED, WRONG = "ok", "failed", "wrong"


class Workload:
    name = ""
    round_s = 1.0  # wall time of one round on the reference machine

    def rounds(self, seconds: int) -> int:
        return max(1, round(seconds / self.round_s))

    def warm(self) -> None:
        pass

    def finish(self) -> dict:
        """Operation index -> reason, for checks that need the whole run."""
        return {}


class ChainHot(Workload):
    """estimate_tv on criterion-2-shaped instances whose plans are all cached."""

    name = "chain-hot"
    round_s = 4.6
    chains = 200  # per operation
    # instances per |marked|, which sets the block size; per-instance cost varies
    # up to 3x, so many instances keep the run's average steady across seeds
    per_marking_size = {3: 24, 4: 24}

    def build(self, seed: int, rounds: int) -> None:
        rng = random.Random(f"chain-hot/{seed}")
        want = dict(self.per_marking_size)
        self.instances = []
        tried = 0
        while any(want.values()):
            tried += 1
            if tried > 20_000:
                raise RuntimeError("chain-hot instance generation stalled")
            n = 8 + tried % 3
            clauses = oracle.gen_kcnf(n, n, 4, rng.getrandbits(40))
            n_sols = len(oracle.solution_masks(n, clauses))
            if not 2 <= n_sols <= 150:
                continue
            f = Formula.from_ints(n, clauses)
            mk = marking.find_marking(f, 1, 1, seed=3)
            if not mk.certified or not want.get(len(mk.marked)):
                continue
            want[len(mk.marked)] -= 1
            # criterion 2 allows TV 0.05 at theta=0.3, 200 steps
            bound = oracle.tv_quantile_bound(n_sols, self.chains, 1000, 0.05, rng.getrandbits(32))
            self.instances.append((f, mk, n_sols, bound))
        self.seeds = [rng.getrandbits(63) for _ in range(rounds * len(self.instances))]

    def warm(self) -> None:
        for f, mk, _, _ in self.instances:
            sampler.estimate_tv(f, mk, sampler.SamplerConfig(0.3, 200, seed=0), runs=60)

    def ops(self):
        for i, seed in enumerate(self.seeds):
            f, mk, _, _ = self.instances[i % len(self.instances)]
            cfg = sampler.SamplerConfig(theta=0.3, t_max=200, seed=seed)
            yield i, lambda f=f, mk=mk, cfg=cfg: sampler.estimate_tv(f, mk, cfg, runs=self.chains)

    def check(self, i, est):
        _, _, n_sols, bound = self.instances[i % len(self.instances)]
        if est.n_solutions != n_sols:
            return WRONG, f"n_solutions {est.n_solutions} != oracle {n_sols}"
        if est.runs != self.chains or not 0 <= est.tv <= bound:
            return WRONG, f"TV {est.tv:.4f} over bound {bound:.4f} ({est.runs} chains)"
        return OK, ""


class Coupling(Workload):
    """run_coupling on criterion-8-shaped instances, plans cached."""

    name = "coupling"
    round_s = 0.025
    n_instances = 60
    pinned_every = 5  # every fifth instance carries a nonempty pinning

    def build(self, seed: int, rounds: int) -> None:
        rng = random.Random(f"coupling/{seed}")
        self.instances = []
        tried = 0
        while len(self.instances) < self.n_instances:
            tried += 1
            if tried > 20_000:
                raise RuntimeError("coupling instance generation stalled")
            n = 7 + tried % 2
            clauses = oracle.gen_kcnf(n, n + 1, 3, rng.getrandbits(40))
            sols = oracle.solution_masks(n, clauses)
            if not 8 <= len(sols) <= 120:
                continue
            f = Formula.from_ints(n, clauses)
            mk = marking.find_marking(f, 1, 1, seed=5)
            if not mk.certified or len(mk.marked) < 3:
                continue
            marked = sorted(mk.marked)
            v0 = marked[0]
            pin = {marked[1]: 0} if len(self.instances) % self.pinned_every == self.pinned_every - 1 else {}
            laws = []
            for side in (0, 1):
                law = [int(s) for s in sols if (s >> (v0 - 1)) & 1 == side
                       and all((s >> (u - 1)) & 1 == b for u, b in pin.items())]
                laws.append(law)
            if not laws[0] or not laws[1]:
                continue
            cl = classify_formula(f, delta=max(f.degree(v) for v in range(1, n + 1)) + 1, zeta=0.3, k=3)
            # criterion 8 allows TV 0.02 on each marginal law
            bounds = [oracle.tv_quantile_bound(len(law), rounds, 1000, 0.02, rng.getrandbits(32)) for law in laws]
            self.instances.append((f, cl, mk, pin, v0, clauses, laws, bounds))
        self.seeds = [rng.getrandbits(63) for _ in range(rounds * self.n_instances)]
        self.counts = [(Counter(), Counter()) for _ in self.instances]

    def warm(self) -> None:
        warm_rng = random.Random(0)
        for f, cl, mk, pin, v0, *_ in self.instances:
            for _ in range(60):
                coupling.run_coupling(f, cl, mk, pin, v0, 1, seed=warm_rng.getrandbits(63))

    def ops(self):
        for i, seed in enumerate(self.seeds):
            f, cl, mk, pin, v0, *_ = self.instances[i % self.n_instances]
            yield i, lambda f=f, cl=cl, mk=mk, pin=pin, v0=v0, seed=seed: coupling.run_coupling(
                f, cl, mk, pin, v0, 1, seed=seed)

    def check(self, i, trace):
        _, _, _, pin, v0, clauses, _, _ = self.instances[i % self.n_instances]
        x, y = trace.x, trace.y
        counts = self.counts[i % self.n_instances]
        counts[0][oracle.to_mask(x)] += 1
        counts[1][oracle.to_mask(y)] += 1
        if not (oracle.satisfies(clauses, x) and oracle.satisfies(clauses, y)):
            return WRONG, "an output does not satisfy the formula"
        if x[v0 - 1] != 0 or y[v0 - 1] != 1:
            return WRONG, "X(v0) != 0 or Y(v0) != 1"
        if any(x[u - 1] != b or y[u - 1] != b for u, b in pin.items()):
            return WRONG, "pinning not respected"
        if any(x[v - 1] != y[v - 1] for v in trace.v_coupled):
            return WRONG, "X and Y disagree on a coupled variable"
        return OK, ""

    def finish(self) -> dict:
        wrong = {}
        for j, (*_, laws, bounds) in enumerate(self.instances):
            for side in (0, 1):
                counts = self.counts[j][side]
                tv = oracle.empirical_tv(counts, laws[side], sum(counts.values()))
                if tv > bounds[side]:
                    for i in range(j, len(self.seeds), self.n_instances):
                        wrong[i] = f"pooled law of {'XY'[side]}: TV {tv:.4f} over bound {bounds[side]:.4f}"
        return wrong


class Pipeline(Workload):
    """One `ksat pipeline` cell per operation, through cli.dispatch, cold.

    The cells are the committed sweep, in file order, whatever the run's
    seed. The n=40 random-mode paths fail with CapExceededError and the
    hand-added (28, 8, 4) cell's path with RegimeError; both count as failed.
    """

    name = "pipeline"
    round_s = 30.0
    sweep_path = HERE / "pipeline_sweep.json"

    def build(self, seed: int, rounds: int) -> None:
        sweep = json.loads(self.sweep_path.read_text())
        settings = {key: sweep[key] for key in ("zeta", "sample", "path", "loose")}
        spec_dir = OUT / "pipeline"
        spec_dir.mkdir(parents=True, exist_ok=True)
        self.cells = []
        for r in range(rounds):
            for j, entry in enumerate(sweep["instances"]):
                inst = {key: entry[key] for key in ("n", "m", "k", "seed")}
                path = spec_dir / f"cell-{r}-{j}.json"
                path.write_text(json.dumps({**settings, "instances": [inst], "seeds": [entry["cell_seed"]]}))
                clauses = oracle.gen_kcnf(inst["n"], inst["m"], inst["k"], inst["seed"])
                self.cells.append((inst, entry["cell_seed"], str(path), clauses))
        self.theta = settings["sample"]["theta"]
        self.runs = settings["sample"]["runs"]

    def ops(self):
        for i, (_, _, path, _) in enumerate(self.cells):
            yield i, lambda path=path: _dispatch(["pipeline", "--spec", path, "--jobs", "1"])

    def check(self, i, out):
        inst, cell_seed, _, clauses = self.cells[i]
        code, stdout, stderr = out
        if code != 0:
            return FAILED, f"exit code {code}: {stderr.strip()}"
        records = json.loads(stdout)["records"]
        if len(records) != 1 or records[0]["instance"] != inst or records[0]["seed"] != cell_seed:
            return WRONG, "records do not match the one-cell spec"
        rec = records[0]
        n = inst["n"]
        errors = [f"{stage}: {rec[stage]['error']}" for stage in ("mark", "path", "loose")
                  if isinstance(rec.get(stage), dict) and "error" in rec[stage]]
        if "error" in rec:
            errors.append(rec["error"])
        if isinstance(rec.get("sample"), dict):
            errors.append(f"sample: {rec['sample']['error']}")
        if not errors and not rec.get("mark", {}).get("certified"):
            errors.append("marking not certified")
        samples = rec.get("sample") if isinstance(rec.get("sample"), list) else []
        t_max = oracle.default_t_max(self.theta, n)
        if len(samples) != (self.runs if isinstance(rec.get("sample"), list) else 0):
            return WRONG, f"{len(samples)} samples, spec asks for {self.runs}"
        for s in samples:
            a = tuple(int(c) for c in s["assignment"])
            if len(a) != n or not oracle.satisfies(clauses, a):
                return WRONG, "a sample does not satisfy the regenerated formula"
            if s["steps"] != t_max:
                return WRONG, f"chain ran {s['steps']} steps, default t_max is {t_max}"
        if samples and not ("path" in rec and "loose" in rec):
            return WRONG, "a stage of the spec is missing from the record"
        path = rec.get("path")
        if isinstance(path, dict) and "error" not in path:
            if not path["valid"] or not 0 <= path["max_step"] <= n or path["length"] < 1:
                return WRONG, f"path not valid: {path}"
        loose = rec.get("loose")
        if isinstance(loose, dict) and "error" not in loose:
            sigma = tuple(int(c) for c in samples[0]["assignment"])
            want = looseness(n, clauses, rec["mark"]["marked"], sigma)
            got = (loose["n_failures"], loose["max_distance"])
            if got != want:
                return WRONG, f"looseness (failures, max distance) {got} != oracle {want}"
        if errors:
            return FAILED, "; ".join(errors)
        return OK, ""


def looseness(n: int, clauses, marked, sigma) -> tuple:
    """(variables with no flip, largest flip distance) over all variables."""
    dists = [oracle.flip_distance(n, clauses, marked, sigma, v) for v in range(1, n + 1)]
    return sum(d is None for d in dists), max((d for d in dists if d is not None), default=0)


def _dispatch(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


class SolGraph(Workload):
    """solution_graph on criterion-11 formulas, by ball search and all pairs."""

    name = "solgraph"
    round_s = 0.8
    n = 11  # one size: each distance is one cost class, so p50 and p90 sit inside a class
    distances = (0, 1, 2, 3, 12)  # 12 is criterion 11's D; 1-3 link by ball search
    median_solutions = 1389  # of 400 formulas at n=11, m=6
    band = 0.04  # solution count within 4 % of that median

    def build(self, seed: int, rounds: int) -> None:
        rng = random.Random(f"solgraph/{seed}")
        m = max(2, int(0.6 * self.n))
        self.formulas = []
        while len(self.formulas) < rounds:
            clauses = oracle.gen_kcnf(self.n, m, 4, rng.getrandbits(40))
            masks = oracle.solution_masks(self.n, clauses)
            if abs(len(masks) / self.median_solutions - 1) > self.band:
                continue
            parts = oracle.hamming_partitions(masks, self.n, self.distances)
            self.formulas.append((Formula.from_ints(self.n, clauses), len(masks), parts))
        self.seen = {}

    def ops(self):
        for j, (f, _, _) in enumerate(self.formulas):
            for d in self.distances:
                yield (j, d), lambda f=f, d=d: geometry.solution_graph(f, d)

    def check(self, key, summary):
        j, d = key
        _, n_sols, parts = self.formulas[j]
        sizes = list(summary.component_sizes)
        if summary.n_solutions != n_sols or sum(sizes) != n_sols:
            return WRONG, f"{summary.n_solutions} solutions, oracle has {n_sols}"
        if sizes != parts[d]:
            return WRONG, f"D={d}: component sizes differ from the oracle partition"
        previous = self.seen.get(j)
        self.seen[j] = len(sizes)
        if previous is not None and len(sizes) > previous:
            return WRONG, f"D={d}: component count grew with D"
        return OK, ""


WORKLOADS = {w.name: w for w in (ChainHot, Coupling, Pipeline, SolGraph)}
