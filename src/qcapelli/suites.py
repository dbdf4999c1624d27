"""Named verification jobs shared by the command line and the tests.

Each criterion function performs a bundle of exact checks and returns a
CriterionResult; the runner prints one line per criterion.  Contexts are
cached module-wide so completions are built once per symmetry.
"""

from __future__ import annotations

import time

from .capelli import (
    RewriteContext,
    verify_cap1,
    verify_classical,
    verify_classical_consistency,
    verify_consum,
    verify_determinants,
    verify_exchange_general,
    verify_matrix_identity,
    verify_mre,
    verify_re_ideal,
    verify_rigor,
    verify_shift_scan,
    verify_traced,
)
from .qlinalg import (
    QLinError,
    check_braid,
    check_hecke,
    embed,
    rank_of,
    skew_inverse,
)
from .rcatalog import dj, flip
from .rewrite import exchange_round_trip_ok
from .scalar import QConfig

FIXED_Q = "3/5"


class CriterionResult:
    __slots__ = ("number", "label", "ok", "seconds", "checks", "reports")

    def __init__(self, number, label, ok, seconds, checks, reports=None):
        self.number = number
        self.label = label
        self.ok = ok
        self.seconds = seconds
        self.checks = checks
        self.reports = reports or []

    def line(self):
        word = "PASS" if self.ok else "FAIL"
        return "%s  criterion %2d: %s (%d checks, %.2f s)" % (
            word, self.number, self.label, len(self.checks), self.seconds)


_SYMS = {}
_CTXS = {}


def _sym(label):
    got = _SYMS.get(label)
    if got is None:
        if label == "dj1":
            got = dj(1, QConfig.fixed(FIXED_Q))
        elif label == "dj2":
            got = dj(2)
        elif label == "dj2q":
            got = dj(2, QConfig.fixed(FIXED_Q))
        elif label == "dj3q":
            got = dj(3, QConfig.fixed(FIXED_Q))
        elif label == "dj4q":
            got = dj(4, QConfig.fixed(FIXED_Q))
        elif label == "flip2":
            got = flip(2)
        else:
            raise KeyError(label)
        _SYMS[label] = got
    return got


def _ctx(label):
    got = _CTXS.get(label)
    if got is None:
        got = RewriteContext(_sym(label))
        _CTXS[label] = got
    return got


def _collect(checks, name, ok):
    checks.append((name, bool(ok)))
    return bool(ok)


def _finish(number, label, t0, checks, reports=None):
    ok = all(c[1] for c in checks) and bool(checks)
    return CriterionResult(number, label, ok, time.perf_counter() - t0,
                           checks, reports)


def crit_1():
    """Braiding, Hecke condition, skew-invertibility, rank."""
    t0 = time.perf_counter()
    checks = []
    for label, want_rank in (("dj1", 1), ("dj2q", 2), ("dj3q", 3),
                             ("flip2", 2)):
        sym = _sym(label)
        _collect(checks, "%s braid" % sym.name, check_braid(sym.R))
        _collect(checks, "%s hecke" % sym.name,
                 check_hecke(sym.R, sym.q_config))
        try:
            skew_inverse(sym.R, sym.antisym(sym.rank), sym.q_config)
            skew_ok = True
        except QLinError:
            skew_ok = False
        _collect(checks, "%s skew-invertible" % sym.name, skew_ok)
        _collect(checks, "%s rank" % sym.name,
                 rank_of(sym.antisym, sym.N).rank == want_rank)
    return _finish(1, "braiding validation", t0, checks)


def crit_2():
    """Projector idempotency, nesting, and braiding absorption."""
    t0 = time.perf_counter()
    checks = []
    reports = []
    for label in ("dj1", "dj2q", "dj3q", "flip2"):
        sym = _sym(label)
        ctx = _ctx(label)
        for k in range(1, sym.N + 2):
            a = sym.antisym(k)
            s = sym.ssym(k)
            _collect(checks, "%s A(%d) idempotent" % (sym.name, k),
                     a * a == a)
            _collect(checks, "%s S(%d) idempotent" % (sym.name, k),
                     s * s == s)
            if k >= 2:
                prev = embed(sym.antisym(k - 1), 1, k)
                _collect(checks, "%s A(%d) nests head" % (sym.name, k),
                         a * prev == a and prev * a == a)
                tail = embed(sym.antisym(k - 1), 2, k)
                _collect(checks, "%s A(%d) nests tail" % (sym.name, k),
                         a * tail == a and tail * a == a)
                rep = verify_consum(ctx, k)
                reports.append(rep)
                _collect(checks, "%s consum k=%d" % (sym.name, k),
                         rep.passed())
    return _finish(2, "projector suite", t0, checks, reports)


def crit_3():
    """Weighted trace of the top projector equals q^(-m^2)."""
    t0 = time.perf_counter()
    checks = []
    for label in ("dj2", "dj3q"):
        sym = _sym(label)
        m = sym.rank
        traced = sym.r_trace(sym.antisym(m))
        want = sym.q_config.qpow(-m * m)
        _collect(checks, "%s <A(%d)> = q^(-%d)" % (sym.name, m, m * m),
                 traced == want)
    return _finish(3, "trace normalization", t0, checks)


def crit_4():
    """Exchange tables reassemble the defining cross relations."""
    t0 = time.perf_counter()
    checks = []
    for label in ("dj2", "dj3q", "flip2"):
        sym = _sym(label)
        table = _ctx(label).table
        _collect(checks, "%s round trip" % sym.name,
                 exchange_round_trip_ok(sym, table))
    return _finish(4, "exchange round trip", t0, checks)


def crit_5():
    t0 = time.perf_counter()
    rep = verify_re_ideal(_ctx("dj2"))
    return _finish(5, "ideal preservation", t0,
                   [("dj(2) ideal", rep.passed())], [rep])


def crit_6(stretch=False):
    """Factorization identity, both projector families."""
    t0 = time.perf_counter()
    checks = []
    reports = []
    jobs = [("dj1", (1, 2, 3)), ("dj2", (1, 2)), ("dj3q", (2,)),
            ("flip2", (1, 2))]
    if stretch:
        jobs.append(("dj3q", (3,)))
    for label, ks in jobs:
        ctx = _ctx(label)
        for k in ks:
            for variant in ("column", "row"):
                rep = verify_matrix_identity(ctx, k, variant)
                reports.append(rep)
                _collect(checks, "%s %s k=%d" % (ctx.sym.name, variant, k),
                         rep.passed())
    return _finish(6, "matrix factorization identity", t0, checks, reports)


def crit_7():
    t0 = time.perf_counter()
    rep = verify_shift_scan(_ctx("dj2"), 2)
    return _finish(7, "shift sensitivity", t0,
                   [("dj(2) k=2 scan", rep.passed())], [rep])


def crit_8():
    t0 = time.perf_counter()
    checks = []
    reports = []
    ctx = _ctx("dj2")
    for variant in ("column", "row"):
        rep = verify_traced(ctx, 2, variant)
        reports.append(rep)
        _collect(checks, "traced %s" % variant, rep.passed())
    rep = verify_cap1(ctx)
    reports.append(rep)
    _collect(checks, "determinant identity", rep.passed())
    rep = verify_determinants(ctx)
    reports.append(rep)
    _collect(checks, "det forms and centrality", rep.passed())
    return _finish(8, "traced corollaries", t0, checks, reports)


def crit_9():
    t0 = time.perf_counter()
    checks = []
    reports = []
    for label in ("dj2", "dj3q"):
        rep = verify_mre(_ctx(label))
        reports.append(rep)
        _collect(checks, "%s composite relation" % rep.rmatrix, rep.passed())
    return _finish(9, "composite matrix relation", t0, checks, reports)


def crit_10():
    t0 = time.perf_counter()
    checks = []
    reports = []
    ctx = _ctx("dj2")
    for p, k in ((1, 2), (1, 3), (2, 3)):
        rep = verify_exchange_general(ctx, p, k)
        reports.append(rep)
        _collect(checks, "p=%d k=%d" % (p, k), rep.passed())
    return _finish(10, "general exchange formula", t0, checks, reports)


def crit_11():
    t0 = time.perf_counter()
    checks = []
    reports = []
    for n in (2, 3):
        rep = verify_classical(n)
        reports.append(rep)
        _collect(checks, "oracle N=%d" % n,
                 rep.passed() and rep.details["control_fails"])
    rep = verify_classical_consistency(_ctx("flip2"))
    reports.append(rep)
    _collect(checks, "engine matches oracle at q=1", rep.passed())
    return _finish(11, "classical oracle", t0, checks, reports)


def crit_12():
    t0 = time.perf_counter()
    rep = verify_rigor(_sym("dj2"), 2)
    name = "dj(2) k=2 at %d points" % rep.details["points_checked"]
    return _finish(12, "multi-point proof", t0, [(name, rep.passed())],
                   [rep])


FULL = {
    1: crit_1, 2: crit_2, 3: crit_3, 4: crit_4, 5: crit_5, 6: crit_6,
    7: crit_7, 8: crit_8, 9: crit_9, 10: crit_10, 11: crit_11, 12: crit_12,
}

SMOKE_NUMBERS = (1, 3, 4, 6, 7, 9, 11)


def _smoke_6():
    t0 = time.perf_counter()
    checks = []
    reports = []
    for label, ks in (("dj1", (1, 2)), ("dj2", (2,)), ("flip2", (2,))):
        ctx = _ctx(label)
        for k in ks:
            rep = verify_matrix_identity(ctx, k, "column")
            reports.append(rep)
            _collect(checks, "%s k=%d" % (ctx.sym.name, k), rep.passed())
    return _finish(6, "matrix factorization identity (smoke)", t0, checks,
                   reports)


def _smoke_9():
    t0 = time.perf_counter()
    rep = verify_mre(_ctx("dj2"))
    return _finish(9, "composite matrix relation (smoke)", t0,
                   [("dj(2)", rep.passed())], [rep])


SMOKE = {1: crit_1, 3: crit_3, 4: crit_4, 6: _smoke_6, 7: crit_7,
         9: _smoke_9, 11: crit_11}


def run_suite(which="full", stretch=False, emit=print):
    """Run a named suite; returns (all_passed, results).  The stretch job
    is reported but never gates the outcome."""
    plan = FULL if which == "full" else SMOKE
    results = []
    ok = True
    for number in sorted(plan):
        fn = plan[number]
        res = fn()
        results.append(res)
        ok = ok and res.ok
        emit(res.line())
        if not res.ok:
            for name, good in res.checks:
                if not good:
                    emit("      failed: %s" % name)
    if stretch and which == "full":
        t0 = time.perf_counter()
        reps = [verify_matrix_identity(_ctx(label), 3, variant)
                for label, variant in (("dj3q", "column"), ("dj3q", "row"),
                                       ("dj4q", "column"))]
        checks = [("%s %s" % (rep.rmatrix, rep.params["variant"]),
                   rep.passed()) for rep in reps]
        res = CriterionResult(6, "stretch: dj(3) and dj(4) k=3 (non-gating)",
                              all(good for _, good in checks),
                              time.perf_counter() - t0, checks, reps)
        results.append(res)
        emit(res.line())
    return ok, results
