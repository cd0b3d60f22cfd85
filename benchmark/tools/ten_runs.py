#!/usr/bin/env python3
"""The driver's steadiness procedure, for the builder's desk.

Two sets of ten runs per workload, another seed per run, back to back. For
each end-to-end metric: the distance between the first and third quartile of
a set's ten values (statistics.quantiles, n=4) as a share of their median,
against the metric's bound, and the second set's median against the first's.

    python3 benchmark/tools/ten_runs.py [--out FILE.json] [--workload NAME ...]

Run from the root of a checkout. Prints two markdown tables: the driver's
verdicts, and the same runs through the statistics the benchmark could have
used instead (from the per-trial detail every run leaves under
benchmark/out/). Exits 1 if a spread is over its bound or a second median is
worse than the first by more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

SETS = 2
RUNS = 10
SEED0 = 100

# Other statistics of the same trials, by the name the README's host notes use.
ALTERNATIVES = [
    "wall, median op",
    "wall, fastest op",
    "CPU rate, raw",
    "CPU/host, median of windows",
    "CPU/host, pooled (gated)",
    "host speed",
    "set-up, raw CPU-s",
    "wall s per run",
]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def alternatives(workload, seed):
    """Median over a run's trials of each alternative statistic."""
    per_trial = {name: [] for name in ALTERNATIVES[:-1]}
    path = f"benchmark/out/detail-{workload}-seed{seed}.jsonl"
    for line in open(path):
        trial = json.loads(line)
        windows = trial["windows"]
        total = {k: sum(w[k] for w in windows) for k in windows[0]}
        host = total["ref_nominal"] / total["ref_cpu"]
        work_per_op = total["work"] / total["ops"]
        per_trial["wall, median op"].append(work_per_op / (trial["op_wall"]["median_ms"] / 1e3))
        per_trial["wall, fastest op"].append(work_per_op / (trial["op_wall"]["fastest_ms"] / 1e3))
        per_trial["CPU rate, raw"].append(total["work"] / total["op_cpu"])
        per_trial["CPU/host, median of windows"].append(statistics.median(
            (w["work"] / w["op_cpu"]) / (w["ref_nominal"] / w["ref_cpu"]) for w in windows))
        per_trial["CPU/host, pooled (gated)"].append(total["work"] / total["op_cpu"] / host)
        per_trial["host speed"].append(host)
        per_trial["set-up, raw CPU-s"].append(trial["setup_cpu_s"])
    return {name: statistics.median(v) for name, v in per_trial.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    contract = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]
    seconds = contract["run_seconds"]

    # values[workload][name][set] = [v, ...]
    names = [m["name"] for m in metrics] + ALTERNATIVES
    values = {w: {n: [[] for _ in range(SETS)] for n in names} for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for r in range(RUNS):
                seed = SEED0 + s * RUNS + r
                cmd = contract["command"] + ["--workload", w, "--seed", str(seed),
                                             "--seconds", str(seconds), "--trace", "0"]
                t = time.time()
                p = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.time() - t
                if p.returncode != 0:
                    sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
                line = json.loads(p.stdout.strip().splitlines()[-1])
                if not line["correct"] or line["failed"]:
                    sys.exit(f"{w} seed {seed}: {line}")
                for m in metrics:
                    values[w][m["name"]][s].append(line["metrics"][m["name"]]["value"])
                for name, v in alternatives(w, seed).items():
                    values[w][name][s].append(v)
                values[w]["wall s per run"][s].append(wall)
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{m['name']}={line['metrics'][m['name']]['value']:.6g}" for m in metrics)
                    + f" wall={wall:.1f}s", file=sys.stderr, flush=True)

    bad = False
    print("| workload | metric | set | median | q1 | q3 | spread | bound | second/first |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in metrics:
            meds = []
            for s in range(SETS):
                v = values[w][m["name"]][s]
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                meds.append(med)
                shift = ""
                if s > 0:
                    ratio = med / meds[0]
                    worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                    shift = f"{ratio:.3f}"
                    if worse > m["bound"]:
                        bad = True
                        shift += " WORSE"
                mark = ""
                if m["name"] != "setup_s" and spread(v) > m["bound"]:
                    bad = True
                    mark = " OVER"
                print(f"| {w} | {m['name']} | {s + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{100 * spread(v):.1f} %{mark} | {100 * m['bound']:.0f} % | {shift} |")

    print("\nSpread of other statistics over the same runs (set 1 / set 2), and the")
    print("second set's median over the first's:\n")
    print("| workload | " + " | ".join(ALTERNATIVES[:-1]) + " |")
    print("|---|" + "---|" * (len(ALTERNATIVES) - 1))
    for w in workloads:
        cells = []
        for name in ALTERNATIVES[:-1]:
            sets = values[w][name]
            ratio = statistics.median(sets[1]) / statistics.median(sets[0])
            cells.append(f"{100 * spread(sets[0]):.1f} % / {100 * spread(sets[1]):.1f} %, {ratio:.3f}")
        print(f"| {w} | " + " | ".join(cells) + " |")

    walls = [x for w in workloads for s in values[w]["wall s per run"] for x in s]
    print(f"\nlongest run {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s, "
          f"{len(walls)} runs in {sum(walls):.0f} s")
    if args.out:
        json.dump({"run_seconds": seconds, "seed0": SEED0, "values": values},
                  open(args.out, "w"), indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
