"""Show that every output check of the benchmark can fail.

    python3 bench/selftest.py

For each workload: run a few real operations and require that the checks
pass them; then corrupt one output (flip a bit of a sample, drop a solution,
merge two components, skew a pooled law) and require that the check reports
it as wrong. Exits 1 if any check misses a corruption or rejects a true
output.
"""

import dataclasses
import json
import sys
from collections import Counter

from run import import_program

workloads = import_program()
from make_sweep import KNOWN_FAULTS  # noqa: E402

WRONG = workloads.WRONG
results = []


def expect(name, verdict, want):
    status = verdict[0]
    ok = status == want
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {status} {verdict[1]}".rstrip())


def run_ops(wl, limit):
    out = []
    for key, op in wl.ops():
        out.append((key, op()))
        if len(out) == limit:
            break
    return out


def chain_hot():
    wl = workloads.ChainHot()
    wl.per_marking_size = {3: 1, 4: 1}
    wl.build(seed=1, rounds=1)
    wl.warm()
    (key, est), _ = run_ops(wl, 2)
    expect("chain-hot true output", wl.check(key, est), workloads.OK)
    dropped = dataclasses.replace(est, n_solutions=est.n_solutions - 1)
    expect("chain-hot solution dropped", wl.check(key, dropped), WRONG)
    far = dataclasses.replace(est, tv=1.0)
    expect("chain-hot TV far from uniform", wl.check(key, far), WRONG)


def coupling():
    wl = workloads.Coupling()
    wl.n_instances = 5
    wl.build(seed=1, rounds=200)
    done = run_ops(wl, len(wl.seeds))
    key, trace = done[0]
    expect("coupling true output", wl.check(key, trace), workloads.OK)
    v = min(trace.v_coupled, default=trace.v0)
    x = list(trace.x)
    x[v - 1] ^= 1
    expect("coupling X bit flipped on a coupled variable",
           wl.check(key, dataclasses.replace(trace, x=tuple(x))), WRONG)
    for key, trace in done[1:]:
        wl.check(key, trace)
    expect("coupling pooled laws", (workloads.OK if not wl.finish() else WRONG, ""), workloads.OK)
    # every X of one instance replaced by one solution: that law is no longer uniform
    j = max(range(len(wl.instances)), key=lambda i: len(wl.instances[i][6][0]))
    wl.counts[j] = (Counter({wl.instances[j][6][0][0]: sum(wl.counts[j][0].values())}), wl.counts[j][1])
    skewed = wl.finish()
    expect("coupling pooled law skewed", (WRONG if skewed else workloads.OK, f"{len(skewed)} ops flagged"), WRONG)


def pipeline():
    wl = workloads.Pipeline()
    wl.build(seed=1, rounds=1)
    sweep = wl.cells
    faults = [({key: c[key] for key in ("n", "m", "k", "seed")}, c["cell_seed"]) for c in KNOWN_FAULTS]
    n40 = next(i for i, c in enumerate(sweep) if c[0]["n"] == 40)
    fault = next(i for i, c in enumerate(sweep) if (c[0], c[1]) in faults)
    small = next(i for i, c in enumerate(sweep) if c[0]["n"] != 40 and (c[0], c[1]) not in faults)
    wl.cells = [sweep[n40], sweep[fault], sweep[small]]
    (k40, out40), (kf, outf), (key, out) = run_ops(wl, 3)
    expect("pipeline n=40 random-path cell", wl.check(k40, out40), workloads.FAILED)
    expect("pipeline known-fault cell", wl.check(kf, outf), workloads.FAILED)
    expect("pipeline true output", wl.check(key, out), workloads.OK)
    code, stdout, stderr = out
    clauses = wl.cells[key][3]
    payload = json.loads(stdout)
    sample = payload["records"][0]["sample"][0]
    a = [int(c) for c in sample["assignment"]]
    # flip the true literals of the clause with fewest of them: it breaks
    true_vars = min(([abs(lit) for lit in c if (a[abs(lit) - 1] == 1) == (lit > 0)] for c in clauses), key=len)
    for v in true_vars:
        a[v - 1] ^= 1
    sample["assignment"] = "".join(map(str, a))
    expect(f"pipeline sample with {len(true_vars)} bit(s) flipped",
           wl.check(key, (code, json.dumps(payload), stderr)), WRONG)
    payload = json.loads(stdout)
    payload["records"][0]["loose"]["max_distance"] += 1
    expect("pipeline looseness distance off by one", wl.check(key, (code, json.dumps(payload), stderr)), WRONG)


def solgraph():
    wl = workloads.SolGraph()
    wl.build(seed=1, rounds=1)
    done = run_ops(wl, len(wl.distances))
    for key, summary in done:
        expect(f"solgraph true output D={key[1]}", wl.check(key, summary), workloads.OK)
    key, summary = done[0]  # D = 0: every solution its own component
    sizes = summary.component_sizes
    merged = (sizes[0] + sizes[1],) + sizes[2:]
    wl.seen.clear()
    expect("solgraph two components merged",
           wl.check(key, dataclasses.replace(summary, component_sizes=merged)), WRONG)
    dropped = dataclasses.replace(summary, n_solutions=summary.n_solutions - 1, component_sizes=sizes[1:])
    expect("solgraph solution dropped", wl.check(key, dropped), WRONG)


if __name__ == "__main__":
    for case in (chain_hot, coupling, pipeline, solgraph):
        case()
    print(f"{sum(results)}/{len(results)} checks behaved as expected")
    sys.exit(0 if all(results) else 1)
