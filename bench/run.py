"""Run one benchmark workload against the `ksat` sources of this checkout.

    python3 bench/run.py --workload chain-hot --seed 1 --seconds 25 --trace 0

The operations of one run go in one fresh process: no worker pool, no
threads. Set-up first times the program's import in a few short child
interpreters, one after another, and waits for each. The run then builds the
workload's inputs from --seed, warms caches where the workload says so, runs
a fixed number of rounds of operations (set from --seconds), checks every
output against bench/oracle.py and prints, as its last stdout line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run records spans around
the calls between `ksat` modules and reports the per-layer metrics instead.
"""

import time

# probe() on the reference machine under its usual shared load (0.9 ms at its
# fastest), so rescaled times read near wall times there and a workload that
# slows down less than the probe is mis-scaled as little as can be
PROBE_REF_S = 1.3e-3
PROBE_EVERY_S = 0.02


def probe() -> float:
    """Time a fixed pure-Python loop: how fast this CPU runs right now."""
    t = time.perf_counter()
    acc = 0
    slots = {}
    for i in range(10_000):
        acc += i * i & 7
        slots[i & 63] = acc
    return time.perf_counter() - t


START_PROBE = probe()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # input builds per run; setup_s takes their median
IMPORT_REPEATS = 5  # fresh interpreters timed importing the program; setup_s takes their median


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_program():
    """Import ksat from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ksat" / "__init__.py").is_file():
        sys.exit(f"no ksat sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ksat

    if Path(ksat.__file__).resolve().parent != (src / "ksat").resolve():
        sys.exit(f"ksat imported from {ksat.__file__}, not from {src}")
    import workloads

    return workloads


def import_phase() -> tuple:
    """(wall seconds, probe before, probe after) of this module's start-up
    and import_program() in a fresh interpreter, the median of IMPORT_REPEATS."""
    import subprocess

    code = "import run; run.import_program(); print(run.time.perf_counter() - run.START, run.START_PROBE, run.probe())"
    phases = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        phases.append(tuple(float(x) for x in out.split()))
    return sorted(phases, key=rescaled)[len(phases) // 2]


def timed_phase(step) -> tuple:
    """(wall seconds, probe before, probe after) of one set-up step."""
    before = probe()
    t = time.perf_counter()
    step()
    return time.perf_counter() - t, before, probe()


def rescaled(phase) -> float:
    """Wall time of a set-up phase at the reference CPU speed."""
    wall, before, after = phase
    return wall * 2 * PROBE_REF_S / (before + after)


def rescale(durations, probes) -> list:
    """Operation wall times at the reference CPU speed: each is scaled by
    PROBE_REF_S over the median of the seven probes nearest to it. Every
    workload is taken to slow down as much as the probe does."""
    import numpy as np

    at = np.array([index for index, _ in probes])
    local = np.array([p for _, p in probes])
    local = np.array([np.median(local[max(0, j - 3) : j + 4]) for j in range(len(local))])
    nearest = np.searchsorted(at, np.arange(len(durations)), side="right") - 1
    return list(np.array(durations) * PROBE_REF_S / local[nearest])


def main() -> None:
    args = parse_args()
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds < 1:
        sys.exit("--seconds must be >= 1")
    phases = [import_phase()]  # (wall, probe before, probe after)

    wl = workloads.WORKLOADS[args.workload]()
    rounds = wl.rounds(args.seconds)
    builds = [timed_phase(lambda: wl.build(args.seed, rounds)) for _ in range(SETUP_REPEATS)]
    phases.append(sorted(builds, key=rescaled)[len(builds) // 2])
    phases.append(timed_phase(wl.warm))
    setup_wall_s = sum(wall for wall, _, _ in phases)
    setup_s = sum(rescaled(phase) for phase in phases)

    tracer = None
    if args.trace:
        import importlib

        import tracing

        tracer = tracing.Tracer()
        tracer.install({name: importlib.import_module(f"ksat.{name}") for name in tracing.LAYERS})

    durations = []
    probes = []  # (index of the next op, probe seconds)
    outcome = {}  # op index -> (status, reason) for every op that is not OK
    clock = time.perf_counter
    last_probe = -PROBE_EVERY_S
    for index, (key, op) in enumerate(wl.ops()):
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append((index, probe()))
            last_probe = clock()
        if tracer:
            tracer.op = index
        t0 = clock()
        try:
            out = op()
            error = None
        except workloads.KsatError as exc:
            error = (workloads.FAILED, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # a program bug: record it, keep measuring
            error = (workloads.WRONG, f"{type(exc).__name__}: {exc}")
        t1 = clock()
        if tracer:
            tracer.op = -1
        durations.append(t1 - t0)
        status, reason = error or wl.check(key, out)
        if status != workloads.OK:
            outcome[index] = (status, reason)
    for index, reason in wl.finish().items():
        outcome[index] = (workloads.WRONG, reason)

    attempted = len(durations)
    probes.append((attempted, probe()))
    times = rescale(durations, probes)
    timed_s = sum(times)
    speed = timed_s / sum(durations)
    wall = {"timed_s": sum(durations), "ops_per_s": attempted / sum(durations),
            "op_p50_ms": 1e3 * statistics.median(durations), "setup_s": setup_wall_s, "speed": speed}
    print("wall " + json.dumps(wall), file=sys.stderr)
    if tracer:
        tracer.uninstall()
        from ksat import marginals

        cache_entries = len(getattr(marginals, "_SOL_CACHE", ())) + sum(
            len(c) for c in getattr(marginals, "_PLAN_CACHES", {}).values())
        metrics = tracer.metrics(attempted, timed_s, cache_entries, speed, wall)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.save(workloads.OUT / f"spans-{args.workload}-{args.seed}.npz")
    else:
        metrics = {
            "ops_per_s": {"value": attempted / timed_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * statistics.quantiles(times, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    for (status, reason), count in sorted(Counter(outcome.values()).items()):
        print(f"{status} x{count}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": all(status != workloads.WRONG for status, _ in outcome.values()),
        "attempted": attempted,
        "failed": len(outcome),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
