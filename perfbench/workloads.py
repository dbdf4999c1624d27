"""One run of one benchmark workload, in a fresh single-threaded process.

run.py starts this file as a child process; it is never imported:

    python3 perfbench/workloads.py --workload NAME --q 3/5 --delta 1 \\
        --phase full|setup --trace 0|1

The child imports qcapelli (found through PYTHONPATH), sets up what the
workload needs, and then, in the ``full`` phase, runs every verification
of the workload and compares each verdict with its known answer.  It
prints one JSON line on stdout with CLOCK_MONOTONIC timestamps for the
end of set-up and for the last verdict, its peak RSS, the verdicts, and
with ``--trace 1`` the spans and counters recorded by tracing.py.  The
parent subtracts its own spawn timestamp (same clock), so interpreter
start-up counts as set-up, as it does for every command-line call.
"""

import argparse
import io
import json
import re
import resource
import sys
import time
from fractions import Fraction


def _context(sym, degree):
    """A rewrite context with the exchange table and both completed
    systems built up to the given word degree."""
    from qcapelli.capelli import RewriteContext

    ctx = RewriteContext(sym)
    ctx.table
    for kind in ("m", "d"):
        ctx.system(kind, degree)
    return ctx


def _verdict(name, expected, run):
    """Run one verification and record its outcome next to the known
    answer; an exception is recorded as its own outcome, never a pass."""
    try:
        rep = run()
    except Exception as e:  # the benchmark boundary: report, keep going
        return {"name": name, "expected": expected,
                "got": "error: %s: %s" % (type(e).__name__, e),
                "residual_entries": 0}
    return {"name": name, "expected": expected, "got": rep.outcome,
            "residual_entries": rep.residual_entries}


def _wrong_shift(cfg, k, delta):
    """The correct final column shift for chain length k, moved by a
    nonzero perturbation written in the scalar grammar."""
    from qcapelli.capelli import shift_value

    return shift_value(cfg, k, "column") + cfg.parse(delta)


def th_dj3_k3_fixed(q, delta):
    """dj(3) at a fixed rational q: the column identity at k = 3, then
    the wrong-shift control at k = 2 on the same context."""
    from qcapelli import rcatalog
    from qcapelli.capelli import verify_matrix_identity
    from qcapelli.scalar import QConfig, scalar_to_text

    cfg = QConfig.fixed(Fraction(q))
    ctx = _context(rcatalog.dj(3, cfg), 3)
    alpha = _wrong_shift(cfg, 2, delta)

    def run():
        return [
            _verdict("dj(3) th k=3", "pass",
                     lambda: verify_matrix_identity(ctx, 3, "column")),
            _verdict("dj(3) th k=2 wrong shift", "fail",
                     lambda: verify_matrix_identity(ctx, 2, "column",
                                                    alpha=alpha)),
        ]

    return {"q": q, "control_alpha": scalar_to_text(alpha)}, run


def th_dj3_k2_sym(q, delta):
    """dj(3) at symbolic q: column and row identities at k = 2, then the
    wrong-shift control on dj(2) symbolic at k = 2."""
    from qcapelli import rcatalog
    from qcapelli.capelli import verify_matrix_identity
    from qcapelli.scalar import QConfig, scalar_to_text

    ctx3 = _context(rcatalog.dj(3, QConfig.symbolic()), 2)
    cfg2 = QConfig.symbolic()
    ctx2 = _context(rcatalog.dj(2, cfg2), 2)
    alpha = _wrong_shift(cfg2, 2, delta)

    def run():
        return [
            _verdict("dj(3) th k=2", "pass",
                     lambda: verify_matrix_identity(ctx3, 2, "column")),
            _verdict("dj(3) th-s k=2", "pass",
                     lambda: verify_matrix_identity(ctx3, 2, "row")),
            _verdict("dj(2) th k=2 wrong shift", "fail",
                     lambda: verify_matrix_identity(ctx2, 2, "column",
                                                    alpha=alpha)),
        ]

    return {"q": "symbolic", "control_alpha": scalar_to_text(alpha)}, run


SUITE_CRITERIA = range(1, 13)
_CRITERION_LINE = re.compile(r"^(PASS|FAIL)\s+criterion\s+(\d+):")


def suite_full(q, delta):
    """``qcapelli suite full`` through cli.main; every criterion must
    print PASS and the exit code must be 0.  The suite fixes its own q,
    so the seed's inputs are not used."""
    from qcapelli import cli

    def run():
        buf = io.StringIO()
        try:
            code = cli.main(["suite", "full"], out=buf)
        except Exception as e:  # the benchmark boundary: report, keep going
            code = "error: %s: %s" % (type(e).__name__, e)
        seen = {}
        for line in buf.getvalue().splitlines():
            hit = _CRITERION_LINE.match(line)
            if hit:
                seen[int(hit.group(2))] = hit.group(1).lower()
        out = [{"name": "criterion %d" % n, "expected": "pass",
                "got": seen.get(n, "missing"), "residual_entries": 0}
               for n in SUITE_CRITERIA]
        out.append({"name": "exit code", "expected": "0", "got": str(code),
                    "residual_entries": 0})
        return out

    return {"q": "3/5 (fixed by the suite)",
            "control_alpha": "none (the suite runs its own controls)"}, run


WORKLOADS = {
    "th-dj3-k3-fixed": th_dj3_k3_fixed,
    "th-dj3-k2-sym": th_dj3_k2_sym,
    "suite-full": suite_full,
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--q", required=True)
    parser.add_argument("--delta", required=True)
    parser.add_argument("--phase", required=True, choices=("setup", "full"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inputs, run = WORKLOADS[args.workload](args.q, args.delta)
    setup_done = time.monotonic()
    verdicts = []
    last_verdict = setup_done
    if args.phase == "full":
        verdicts = run()
        last_verdict = time.monotonic()
    record = {
        "inputs": inputs,
        "setup_done": setup_done,
        "last_verdict": last_verdict,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "verdicts": verdicts,
    }
    if tracer is not None:
        record["trace"] = tracer.finish(verdicts)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
