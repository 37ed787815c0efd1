"""Repeat benchmark runs over seeds and summarise them.

    python3 bench/sweep.py run --label a                 # 10 seeds x 4 workloads, then traced runs
    python3 bench/sweep.py run --label b --workloads coupling --seeds 1,2,3
    python3 bench/sweep.py compare bench/out/sweep-a.json bench/out/sweep-b.json

`run` starts bench/run.py once per (workload, seed), one process at a time,
untraced, then traced on the first --traced seeds. It prints, per workload and metric, the median, the quartiles and the spread
(q3 - q1) / median, the failed share, the CPU-speed factor each run measured beside its
operations (see run.py), the unscaled wall-clock ops_per_s, and the tracing overhead
1 - traced ops_per_s / untraced ops_per_s, and writes it all to
bench/out/sweep-<label>.json. `compare` checks a second sweep against a
first: every spread within the metric's bound, setup_s included, and no
median worse than the first by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    out["wall"] = next(json.loads(line[5:]) for line in proc.stderr.splitlines() if line.startswith("wall "))
    return out


def summary(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def cmd_run(args) -> None:
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in BENCH["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or BENCH["run_seconds"]
    result = {"label": args.label, "seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        runs, traced = [], []
        for trace, seed_list, sink in ((0, seeds, runs), (1, seeds[: args.traced], traced)):
            for seed in seed_list:
                out = run_once(w, seed, seconds, trace)
                sink.append(out)
                print(f"{w} seed={seed} trace={trace} wall={out['wall_s']:.1f}s "
                      f"attempted={out['attempted']} failed={out['failed']} correct={out['correct']}", file=sys.stderr)
        entry = {
            "correct": all(r["correct"] for r in runs + traced),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "attempted": sorted({r["attempted"] for r in runs}),
            "wall_s": summary([r["wall_s"] for r in runs]),
            "speed": summary([r["wall"]["speed"] for r in runs]),
            "wall_ops_per_s": summary([r["wall"]["ops_per_s"] for r in runs]),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in BENCH["end_to_end"]},
        }
        if traced:
            entry["per_layer"] = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                                  for m in BENCH["per_layer"]}
            entry["trace_overhead"] = 1 - entry["per_layer"]["trace.ops_per_s"] / entry["end_to_end"]["ops_per_s"]["median"]
        result["workloads"][w] = entry
        print_workload(w, entry)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"sweep-{args.label}.json").write_text(json.dumps(result, indent=1))


def print_workload(name: str, e: dict) -> None:
    print(f"\n## {name}: attempted {e['attempted']}, failed share {e['failed_share']}, correct {e['correct']}")
    print(f"CPU speed (reference/wall) {e['speed']['median']:.3f}, spread {100 * e['speed']['spread']:.1f} %;"
          f" unscaled ops_per_s {e['wall_ops_per_s']['median']:.4g}, spread {100 * e['wall_ops_per_s']['spread']:.1f} %;"
          f" run wall {e['wall_s']['median']:.1f} s")
    print("| metric | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|")
    for m in BENCH["end_to_end"]:
        s = e["end_to_end"][m["name"]]
        print(f"| {m['name']} ({m['unit']}) | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} "
              f"| {100 * s['spread']:.1f} % | {100 * m['bound']:.0f} % |")
    if "per_layer" in e:
        print(f"tracing overhead on ops_per_s: {100 * e['trace_overhead']:.1f} %")
        for name, value in e["per_layer"].items():
            if value:
                print(f"  {name} = {value:.4g}")


def cmd_compare(args) -> None:
    first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    ok = True
    print("| workload | metric | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w, e1 in first["workloads"].items():
        e2 = second["workloads"].get(w)
        if e2 is None:
            continue
        if e1["failed_share"] != e2["failed_share"] or len(e1["failed_share"]) != 1:
            ok = False
            print(f"| {w} | failed share | {e1['failed_share']} | {e2['failed_share']} | | | | | differ |")
        for m in BENCH["end_to_end"]:
            s1, s2 = e1["end_to_end"][m["name"]], e2["end_to_end"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (s2["median"] - s1["median"]) / s1["median"]
            steady = max(s1["spread"], s2["spread"]) <= m["bound"]
            good = steady and worse <= m["bound"]
            ok &= good
            print(f"| {w} | {m['name']} | {s1['median']:.4g} | {s2['median']:.4g} | {100 * worse:+.1f} % "
                  f"| {100 * s1['spread']:.1f} % | {100 * s2['spread']:.1f} % | {100 * m['bound']:.0f} % "
                  f"| {'ok' if good else 'FAIL'} |")
    sys.exit(0 if ok else 1)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--label", required=True)
    r.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    r.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    r.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--traced", type=int, default=2, help="traced runs per workload, on the first seeds")
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
