"""Time-to-verdict benchmark for qcapelli.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file.  Each workload
run is one fresh single-threaded child process (workloads.py), started
one after another, never in parallel.  The seed picks the inputs: the
fixed q and the perturbation of the wrong-shift control.

--trace 0 measures the end-to-end metrics.  A few set-up-only children
come first, then full children run back to back for as long as one
more still ends within --seconds (at least one runs).  Every time is a
median over children:

  total_s      spawn to last verdict (time-to-verdict)
  setup_s      spawn to end of set-up: interpreter, import, symmetry
               construction and validation, exchange table, completion
  verify_s     total_s - setup_s of the same child: assembly and reduction
  peak_rss_mb  ru_maxrss of a full child

--trace 1 runs untraced and traced full children in pairs the same way
(at least one pair) and reports the per-layer metrics from the traced
ones; the spans are written to .perfbench_out/.

Every verdict is compared with its known answer.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the
exit code is 0 only when every verdict matched.
"""

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from tracing import self_times  # noqa: E402
from workloads import SUITE_CRITERIA, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "workloads.py"

# Fixed q values of one height (the larger of |numerator| and
# |denominator| is 5), avoiding 0, +-1 and roots of unity, so that the
# Fraction sizes, and with them the cost, match across seeds.
Q_VALUES = ("3/5", "5/3", "-3/5", "-5/3", "2/5", "5/2", "-2/5", "-5/2",
            "4/5", "5/4", "-4/5", "-5/4")
# Nonzero at every q above; added to the correct final shift of a control.
SHIFT_PERTURBATIONS = ("1", "-1", "2", "-1/2", "q", "-q^(-1)", "q^2 - 1",
                       "q + 1")
SETUP_PROBES = 4
BUDGET_S = 170.0

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "verify_s": "s",
                    "peak_rss_mb": "MiB"}
SPAN_METRICS = {
    "rcatalog.build_s": "rcatalog.build",
    "rewrite.exchange_s": "rewrite.exchange",
    "rewrite.derive_rules_s": "rewrite.derive_rules",
    "rewrite.complete_s": "rewrite.complete",
    "ncalg.assemble_s": "ncalg.assemble",
    "rewrite.normal_order_s": "rewrite.normal_order",
    "rewrite.ideal_reduce_s": "rewrite.reduce",
}
COUNT_METRICS = (
    "rewrite.rules_m", "rewrite.rules_d", "rewrite.spolys",
    "ncalg.input_terms", "ncalg.distinct_words", "ncalg.nonzero_entries",
    "rewrite.ordered_terms", "rewrite.nf_cache_words",
    "rewrite.output_terms", "scalar.mul_calls", "scalar.add_calls",
    "capelli.residual_entries",
)


class BenchError(Exception):
    pass


def inputs_for(seed):
    """The generated inputs of one run; seed 0 gives q = 3/5."""
    return {"seed": seed,
            "q": Q_VALUES[seed % len(Q_VALUES)],
            "delta": random.Random(seed).choice(SHIFT_PERTURBATIONS)}


def build():
    """Check the checkout and byte-compile the package, as an install
    would, so that no child pays for compilation."""
    if not (SRC / "qcapelli" / "__init__.py").is_file():
        raise BenchError("no qcapelli sources under %s" % (SRC,))
    if not compileall.compile_dir(str(SRC / "qcapelli"), quiet=1):
        raise BenchError("byte-compiling %s failed" % (SRC,))


def spawn(workload, inputs, phase, trace, deadline):
    """Run one child to completion; returns its record with the spawn
    time subtracted from every timestamp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the same string hashing in every child, so set orders repeat too
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--q=" + inputs["q"], "--delta=" + inputs["delta"],
           "--phase", phase, "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget of %.0f s used up" % (BUDGET_S,))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=env, timeout=timeout,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s child ran past the time budget"
                         % (workload, phase))
    if proc.returncode != 0:
        raise BenchError("%s %s child exited with %d:\n%s"
                         % (workload, phase, proc.returncode,
                            proc.stderr[-2000:]))
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("%s %s child printed no record" % (workload, phase))
    rec["wall_s"] = time.monotonic() - t0
    rec["setup_s"] = rec["setup_done"] - t0
    rec["total_s"] = rec["last_verdict"] - t0
    rec["verify_s"] = rec["last_verdict"] - rec["setup_done"]
    if "trace" in rec:
        for span in rec["trace"]["spans"]:
            span[3] -= t0
            span[4] -= t0
    return rec


def tally(children):
    """(attempted, failed, mismatches) over the verdicts of full children."""
    attempted = failed = 0
    mismatches = []
    for rec in children:
        for v in rec["verdicts"]:
            attempted += 1
            if v["got"] != v["expected"]:
                failed += 1
                mismatches.append(v)
    return attempted, failed, mismatches


def fits(start, last_s, seconds):
    """Whether one more child, as long as the last one, still ends within
    the measuring window."""
    return time.monotonic() - start + last_s <= seconds


def measure(workload, inputs, seconds, deadline):
    """Untraced children; returns (full children, end-to-end metrics,
    sample counts)."""
    start = time.monotonic()
    setups = [spawn(workload, inputs, "setup", 0, deadline)
              for _ in range(SETUP_PROBES)]
    full = [spawn(workload, inputs, "full", 0, deadline)]
    while fits(start, full[-1]["wall_s"], seconds):
        full.append(spawn(workload, inputs, "full", 0, deadline))
    metrics = {
        "total_s": statistics.median(r["total_s"] for r in full),
        "setup_s": statistics.median(r["setup_s"] for r in setups + full),
        "verify_s": statistics.median(r["verify_s"] for r in full),
        "peak_rss_mb": statistics.median(r["rss_kib"] for r in full) / 1024,
    }
    counts = {"full children": len(full),
              "setup samples": len(setups) + len(full)}
    return full, metrics, counts


def layer_metrics(rec):
    """Per-layer numbers of one traced child."""
    trace = rec["trace"]
    spans = trace["spans"]
    selfs = self_times(spans)
    out = {name: selfs.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    out["capelli.rigor_bound_s"] = sum(
        s[4] - s[3] for s in spans if s[2] == "capelli.rigor_bound")
    for name in COUNT_METRICS:
        out[name] = trace["counts"].get(name, 0)
    for n in SUITE_CRITERIA:
        out["suites.crit_%d_s" % n] = trace["criteria"].get(str(n), 0.0)
    out["other_s"] = rec["total_s"] - sum(selfs.values())
    return out


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "qcapelli").rglob("*.py")))


def measure_traced(workload, inputs, seconds, deadline):
    """Pairs of untraced and traced children; returns (all children,
    per-layer metrics, sample counts)."""
    start = time.monotonic()
    plain, traced = [], []
    while not traced or fits(
            start, plain[-1]["wall_s"] + traced[-1]["wall_s"], seconds):
        plain.append(spawn(workload, inputs, "full", 0, deadline))
        traced.append(spawn(workload, inputs, "full", 1, deadline))
    layers = [layer_metrics(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.total_s"] = statistics.median(r["total_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - statistics.median(
        r["total_s"] for r in plain)
    metrics["src.lines"] = src_lines()
    OUT.mkdir(exist_ok=True)
    trace_path(workload, inputs["seed"]).write_text(json.dumps({
        "workload": workload,
        "inputs": dict(inputs, **traced[0]["inputs"]),
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "runs": [{"run_id": "%s-seed%d-%d" % (workload, inputs["seed"], i),
                  "total_s": r["total_s"], "counts": r["trace"]["counts"],
                  "criteria": r["trace"]["criteria"],
                  "spans": r["trace"]["spans"]}
                 for i, r in enumerate(traced)],
    }))
    return plain + traced, metrics, {"traced children": len(traced),
                                     "untraced children": len(plain)}


def trace_path(workload, seed):
    return OUT / ("trace-%s-seed%d.json" % (workload, seed))


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "lines" if name == "src.lines" else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    inputs = inputs_for(args.seed)
    try:
        build()
        if args.trace:
            children, metrics, counts = measure_traced(
                args.workload, inputs, args.seconds, deadline)
        else:
            children, metrics, counts = measure(
                args.workload, inputs, args.seconds, deadline)
    except BenchError as e:
        sys.stderr.write("benchmark error: %s\n" % (e,))
        return 2

    attempted, failed, mismatches = tally(children)
    child_inputs = children[0]["inputs"]
    print("workload %s  seed %d  q %s  control alpha %s"
          % (args.workload, args.seed, child_inputs["q"],
             child_inputs["control_alpha"]))
    print("samples: %s" % ", ".join("%s %s" % (v, k)
                                    for k, v in counts.items()))
    if args.trace:
        print("spans: %s" % (trace_path(args.workload, args.seed)
                             .relative_to(ROOT),))
    print("verdicts: %d attempted, %d failed, verdict_fail_ratio %s"
          % (attempted, failed, failed / attempted))
    for v in mismatches:
        print("  MISMATCH %s: expected %s, got %s"
              % (v["name"], v["expected"], v["got"]))
    for name, value in metrics.items():
        print("  %-28s %14.6f %s" % (name, value, unit_of(name)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
