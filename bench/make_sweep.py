"""Regenerate bench/pipeline_sweep.json (takes about a minute).

    python3 bench/make_sweep.py > bench/pipeline_sweep.json

The n=40, m=8, k=5 instances are seeds 0-9. Criterion-4-shaped instances
come from make_rng(0x5EED4), ten per shape, through criterion 4's filter,
which is the only acceptance test. Each instance's cell seed is the next
draw of random.Random("pool/n40") or random.Random("pool/c4"), taken
without running the cell, so a cell that fails or errs stays in the sweep.
KNOWN_FAULTS are cells added by hand because the program fails on them
every time: find_path_random raises RegimeError there.
Each cell's verdict under the checks of workloads.Pipeline goes to stderr."""

import json
import random
import sys

from run import import_program

workloads = import_program()
import oracle  # noqa: E402
from ksat import cli, generate_random_kcnf  # noqa: E402
from ksat.classify import classify, default_delta, good_induced_formula  # noqa: E402
from ksat.marginals import plan_for  # noqa: E402
from ksat.marking import default_quotas, find_marking  # noqa: E402
from ksat.rng import make_rng  # noqa: E402

SETTINGS = {"zeta": 0.3, "sample": {"theta": 0.3, "runs": 2}, "path": {"mode": "random"}, "loose": {}}
SHAPES = [(16, 5, 4), (20, 6, 4), (24, 7, 4), (28, 8, 4), (32, 9, 4), (30, 5, 5), (35, 6, 5), (30, 4, 6), (36, 5, 6)]
CAP = 1 << 22
KNOWN_FAULTS = [{"n": 28, "m": 8, "k": 4, "seed": 611301577348, "cell_seed": 101}]


def criterion4_filter(f, k) -> bool:
    plan = plan_for(f, 0, 0)
    if plan.max_comp_vars > 20 or not all(len(c.solutions(CAP)) for c in plan.comps):
        return False
    covered = {v for c in plan.comps for v in c.vars}
    count = 2 ** (f.n - len(covered))
    for c in plan.comps:
        count *= len(c.solutions(CAP))
    if count < 2:
        return False
    cl = classify(f, default_delta(k, f.m / f.n), 0.3, k)
    km, ku = default_quotas(k, 0.3)
    try:
        mk = find_marking(good_induced_formula(f, cl, force=True), km, ku, seed=11, eligible=cl.v_good)
    except workloads.KsatError:
        return False
    return mk.certified and bool(mk.marked)


def verdict(inst, cell_seed):
    rec = cli._pipeline_cell(json.dumps(SETTINGS), inst, cell_seed)
    wl = workloads.Pipeline()
    wl.theta, wl.runs = SETTINGS["sample"]["theta"], SETTINGS["sample"]["runs"]
    wl.cells = [(inst, cell_seed, "", oracle.gen_kcnf(inst["n"], inst["m"], inst["k"], inst["seed"]))]
    return wl.check(0, (0, json.dumps({"records": [rec]}), ""))


def main() -> None:
    cells = []
    n40_seeds = random.Random("pool/n40")
    for s in range(10):
        cells.append({"n": 40, "m": 8, "k": 5, "seed": s, "cell_seed": n40_seeds.getrandbits(32)})
    cells += KNOWN_FAULTS
    rng, c4_seeds = make_rng(0x5EED4), random.Random("pool/c4")
    for n, m, k in SHAPES:
        found = 0
        while found < 10:
            s = rng.getrandbits(40)
            if criterion4_filter(generate_random_kcnf(n, m, k, seed=s), k):
                cells.append({"n": n, "m": m, "k": k, "seed": s, "cell_seed": c4_seeds.getrandbits(32)})
                found += 1
    for c in cells:
        inst = {key: c[key] for key in ("n", "m", "k", "seed")}
        status, reason = verdict(inst, c["cell_seed"])
        if status != workloads.OK:
            print(f"{status}: {json.dumps(c)}: {reason}", file=sys.stderr)
    body = ",\n".join("    " + json.dumps(c) for c in cells)
    head = "".join(f'  "{key}": {json.dumps(value)},\n' for key, value in SETTINGS.items())
    print("{\n" + head + '  "instances": [\n' + body + "\n  ]\n}")


if __name__ == "__main__":
    main()
