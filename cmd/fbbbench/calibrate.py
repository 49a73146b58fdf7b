#!/usr/bin/env python3
"""Measures fbbbench's run-to-run spread, the evidence behind the bounds in
BENCHMARK.json.

Runs every workload --runs times per set through run.sh, each run with its
own seed, alternating the workload order between rounds, and writes every
run (its metrics, guards, latencies and set-up times) with the per-set
median, quartiles and spread of each end-to-end metric, and the host, to
cmd/fbbbench/testdata/calibration.json. The
spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). With --sets 2 it also reports how far
the second set's median moved from the first's, in the metric's worse
direction, as a share of the first.

Run it from the repository root:

    python3 cmd/fbbbench/calibrate.py --runs 10 --sets 2
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "cmd/fbbbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit("fbbbench %s seed %d failed (exit %d):\n%s" % (workload, seed, p.returncode, p.stderr))
    report = json.loads(lines[-2])
    return compact(seed, time.time() - start, report, json.loads(lines[-1])), report["host"]


def compact(seed, wall, report, result):
    """One run as kept in the calibration file: the result's metric values
    and the report's guards, latencies and set-up times."""
    return {"seed": seed, "wallS": round(wall, 2), "valid": report["valid"], "lagP99Ms": report["lagP99Ms"],
            "ops": report["ops"], "failed": result["failed"], "latencyMs": report["latencyMs"],
            "setupS": report["setupS"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def revision():
    p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def summarize(runs, defs):
    out = {}
    for d in defs:
        vals = [r["metrics"][d["name"]] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[d["name"]] = {"median": med, "q1": q1, "q3": q3, "min": min(vals), "max": max(vals),
                          "spread": (q3 - q1) / med if med else None, "bound": d["bound"]}
    return out


def write(doc, path):
    """Writes doc with one run per line, so the file stays small and diffs
    stay readable."""
    runs = {}
    for i, st in enumerate(doc["sets"]):
        for w, rs in st["runs"].items():
            for j, r in enumerate(rs):
                key = "@run-%d-%s-%d@" % (i, w, j)
                runs[key] = json.dumps(r, sort_keys=True)
                rs[j] = key
    text = json.dumps(doc, indent=1, sort_keys=True)
    for key, line in runs.items():
        text = text.replace('"%s"' % key, line)
    with open(path, "w") as f:
        f.write(text + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default="cmd/fbbbench/testdata/calibration.json")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    defs = bench["end_to_end"]

    sets = []
    seed = 1000
    host = None
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed += 1
                r, host = run_once(w, seed, seconds)
                runs[w].append(r)
                print("set %d run %d %-13s seed %d wall %5.1fs failed %d valid %s" % (
                    s, i, w, seed, r["wallS"], r["failed"], r["valid"]), flush=True)
        sets.append({"runs": runs, "summary": {w: summarize(runs[w], defs) for w in workloads}})

    doc = {"revision": revision(), "seconds": seconds, "runsPerSet": args.runs, "host": host, "sets": sets}
    if len(sets) > 1:
        doc["secondVsFirst"] = {}
        for w in workloads:
            doc["secondVsFirst"][w] = {}
            for d in defs:
                a, b = sets[0]["summary"][w][d["name"]]["median"], sets[1]["summary"][w][d["name"]]["median"]
                worse = (b - a) / a if d["better"] == "lower" else (a - b) / a
                doc["secondVsFirst"][w][d["name"]] = {"worse": worse, "bound": d["bound"]}
    write(doc, args.out)

    for i, st in enumerate(sets):
        print("set %d: spread (IQR/median) per workload; bound in brackets" % i)
        for w in workloads:
            print("  %-13s " % w + "  ".join("%s %.3f [%.2f]" % (m, v["spread"], v["bound"])
                                             for m, v in st["summary"][w].items()))
    if "secondVsFirst" in doc:
        print("second set median worse than first by:")
        for w in workloads:
            print("  %-13s " % w + "  ".join("%s %+.3f" % (m, v["worse"]) for m, v in doc["secondVsFirst"][w].items()))


if __name__ == "__main__":
    main()
