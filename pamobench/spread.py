#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the quartile spread as a share of the
median, against the metric's bound in BENCHMARK.json.

    python3 pamobench/spread.py --workloads solve,fleet --seeds 1-10

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        fingerprints = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if run.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {run.returncode}\n{run.stderr}")
            lines = run.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            fp = [l for l in lines if l.startswith("fingerprint=")]
            fingerprints[seed] = fp[0].split()[0] if fp else "?"
            if not res["correct"] or res["failed"]:
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={res['metrics'][k]['value']:.5g}" for k in values) +
                f" failed={res['failed']} {fingerprints[seed]}", flush=True)
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER BOUND")
            if spread > m["bound"]:
                ok = False
            print(f"  {wl:10s} {m['name']:16s} median={med:<12.6g} spread={spread:.4f} bound={m['bound']} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
