"""Run the benchmark several times per workload and report its spread.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --runs 1             # one pass, all metrics
    python3 perfbench/steady.py --workloads suite-full --runs 5 --first-seed 11

Each run is ``run.py --workload W --seed S --seconds T --trace 0`` with
T = run_seconds from BENCHMARK.json and seeds first-seed, first-seed+1,
...  For every end-to-end metric the spread is the distance between the
first and third quartiles of the runs (statistics.quantiles, n=4) as a
share of their median.  A spread at or above the metric's bound fails,
except for setup_s; one under a third of the bound is steady.  Raw
results go to .perfbench_out/steady-<time>.json.  Exit code 0 when every
verdict matched and every checked spread is under its bound.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    result["exit_code"] = proc.returncode
    result["inputs"] = lines[0]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()

    ok = True
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(workload, seed, args.seconds)
            if res is None or not res["correct"] or res["exit_code"] != 0:
                ok = False
            if res is None:
                print("%s seed %d: no result" % (workload, seed))
                continue
            results.append(res)
            print("%s seed %d: %s  verdict_fail_ratio %d/%d  %s" % (
                workload, seed,
                "  ".join("%s %.4f %s" % (k, m["value"], m["unit"])
                          for k, m in res["metrics"].items()),
                res["failed"], res["attempted"], res["inputs"]), flush=True)
        raw[workload] = results
        if len(results) < 2:
            continue
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if spread >= bound and name != "setup_s":
                state, ok = "OVER BOUND", False
            elif spread < bound / 3:
                state = "steady"
            else:
                state = "above a third of the bound"
            print("  %-16s %-12s median %.6f %s  spread %.4f  bound %.2f  %s"
                  % (workload, name, med, metric["unit"], spread, bound,
                     state))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / ("steady-%d.json" % time.time())
    path.write_text(json.dumps(raw, indent=1))
    print("raw results: %s" % (path.relative_to(ROOT),))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
