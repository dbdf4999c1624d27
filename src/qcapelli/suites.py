"""Named verification jobs shared by the command line and the tests.

Each criterion yields its exact checks as (name, outcome) pairs, and the
criterion decorator turns it into a function that returns a
CriterionResult; the runner prints one line per criterion.  Contexts are
cached module-wide so completions are built once per symmetry.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .capelli import (
    RewriteContext,
    VerificationReport,
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
from .qlinalg import QMatrix, embed
from .rcatalog import CatalogValidationError, HeckeSymmetry, dj, flip
from .rewrite import exchange_round_trip_ok
from .scalar import QConfig

FIXED_Q = "3/5"


@dataclass(slots=True)
class CriterionResult:
    number: int
    label: str
    ok: bool
    seconds: float
    checks: list
    reports: list

    def line(self):
        word = "PASS" if self.ok else "FAIL"
        return "%s  criterion %2d: %s (%d checks, %.2f s)" % (
            word, self.number, self.label, len(self.checks), self.seconds)


# The symmetries the criteria use, built on first use.  Each builder
# names dj and flip at call time, so a replaced module attribute is the
# one that runs.
_BUILDERS = {
    "dj1": lambda: dj(1, QConfig.fixed(FIXED_Q)),
    "dj2": lambda: dj(2),
    "dj2q": lambda: dj(2, QConfig.fixed(FIXED_Q)),
    "dj3q": lambda: dj(3, QConfig.fixed(FIXED_Q)),
    "dj4q": lambda: dj(4, QConfig.fixed(FIXED_Q)),
    "flip2": lambda: flip(2),
}


@functools.cache
def _sym(label):
    return _BUILDERS[label]()


@functools.cache
def _ctx(label):
    return RewriteContext(_sym(label))


def criterion(number, label):
    """Turn a generator of (check name, outcome) pairs into a criterion.
    An outcome is a bool or a VerificationReport, which is kept and
    counts as its passed().  The criterion is timed as a whole, and it
    passes when it made at least one check and every check held."""
    def wrap(checks_of):
        @functools.wraps(checks_of)
        def run():
            t0 = time.perf_counter()
            checks = []
            reports = []
            for name, outcome in checks_of():
                if isinstance(outcome, VerificationReport):
                    reports.append(outcome)
                    outcome = outcome.passed()
                checks.append((name, bool(outcome)))
            ok = bool(checks) and all(good for _, good in checks)
            return CriterionResult(number, label, ok,
                                   time.perf_counter() - t0, checks, reports)
        return run
    return wrap


@criterion(1, "braiding validation")
def crit_1():
    """The expected rank of each catalog symmetry, and one N = 2 matrix at
    q = 3/5 per gate of HeckeSymmetry that the gate must reject and
    every earlier gate accepts, told apart by the check it names."""
    for label, want_rank in (("dj1", 1), ("dj2q", 2), ("dj3q", 3),
                             ("flip2", 2)):
        sym = _sym(label)
        yield "%s rank" % sym.name, sym.rank == want_rank
    dj2 = _sym("dj2q")
    g = embed(QMatrix(2, 1, [[1, 1], [0, 1]]), 1, 2)
    g_inv = embed(QMatrix(2, 1, [[1, -1], [0, 1]]), 1, 2)
    # the A^(2) of q I vanishes before the tower passes rank one
    for gate, name, R in (
            ("braid", "(G x I) dj(2) (G x I)^(-1)", g * dj2.R * g_inv),
            ("hecke", "flip(2)", _sym("flip2").R),
            ("rank", "q I", QMatrix.identity(2, 2).scale(dj2.q_config.q()))):
        try:
            HeckeSymmetry(name, R, dj2.q_config)
            check = None
        except CatalogValidationError as e:
            check = e.check
        yield "%s rejected by the %s check" % (name, gate), check == gate


@criterion(2, "projector suite")
def crit_2():
    """Projector idempotency, nesting, and braiding absorption."""
    for label in ("dj1", "dj2q", "dj3q", "flip2"):
        sym = _sym(label)
        ctx = _ctx(label)
        for k in range(1, sym.N + 2):
            a = sym.antisym(k)
            s = sym.ssym(k)
            yield "%s A(%d) idempotent" % (sym.name, k), a * a == a
            yield "%s S(%d) idempotent" % (sym.name, k), s * s == s
            if k >= 2:
                prev = embed(sym.antisym(k - 1), 1, k)
                yield ("%s A(%d) nests head" % (sym.name, k),
                       a * prev == a and prev * a == a)
                tail = embed(sym.antisym(k - 1), 2, k)
                yield ("%s A(%d) nests tail" % (sym.name, k),
                       a * tail == a and tail * a == a)
                yield ("%s consum k=%d" % (sym.name, k),
                       verify_consum(ctx, k))


def _qbinom(cfg, n, k):
    """The q-binomial coefficient [n choose k]_q, 0 for k > n."""
    acc = cfg.one()
    for i in range(1, k + 1):
        acc = acc * cfg.qnum(n - k + i) / cfg.qnum(i)
    return acc


@criterion(3, "trace normalization")
def crit_3():
    """Quantum dimension of every tower level, k = 1 .. m+1 at rank m:
    Tr_R A(k) = q^(-km)[m choose k]_q, which is 0 for k > m, and
    Tr_R S(k) = q^(-km)[m+k-1 choose k]_q.  The plain trace (weight I)
    fails Tr_R A(m) on dj(2) and dj(3) (the control in the tests)."""
    for label in ("dj2", "dj3q", "flip2"):
        sym = _sym(label)
        cfg, m = sym.q_config, sym.rank
        for k in range(1, m + 2):
            for name, proj, n in (("A", sym.antisym(k), m),
                                  ("S", sym.ssym(k), m + k - 1)):
                yield ("%s Tr_R %s(%d)" % (sym.name, name, k),
                       sym.r_trace(proj)
                       == cfg.qpow(-k * m) * _qbinom(cfg, n, k))


@criterion(4, "exchange round trip")
def crit_4():
    """Exchange tables reassemble the defining cross relations."""
    for label in ("dj2", "dj3q", "flip2"):
        sym = _sym(label)
        yield ("%s round trip" % sym.name,
               exchange_round_trip_ok(sym, _ctx(label).table))


@criterion(5, "ideal preservation")
def crit_5():
    yield "dj(2) ideal", verify_re_ideal(_ctx("dj2"))


@criterion(6, "matrix factorization identity")
def crit_6():
    """Factorization identity, both projector families."""
    for label, ks in (("dj1", (1, 2, 3)), ("dj2", (1, 2)), ("dj3q", (2,)),
                      ("flip2", (1, 2))):
        ctx = _ctx(label)
        for k in ks:
            for variant in ("column", "row"):
                yield ("%s %s k=%d" % (ctx.sym.name, variant, k),
                       verify_matrix_identity(ctx, k, variant))


@criterion(7, "shift sensitivity")
def crit_7():
    yield "dj(2) k=2 scan", verify_shift_scan(_ctx("dj2"), 2)


@criterion(8, "traced corollaries")
def crit_8():
    ctx = _ctx("dj2")
    for variant in ("column", "row"):
        yield "traced %s" % variant, verify_traced(ctx, 2, variant)
    yield "determinant identity", verify_cap1(ctx)
    yield "det forms and centrality", verify_determinants(ctx)


@criterion(9, "composite matrix relation")
def crit_9():
    for label in ("dj2", "dj3q"):
        rep = verify_mre(_ctx(label))
        yield "%s composite relation" % rep.rmatrix, rep


@criterion(10, "general exchange formula")
def crit_10():
    ctx = _ctx("dj2")
    for p, k in ((1, 2), (1, 3), (2, 3)):
        yield "p=%d k=%d" % (p, k), verify_exchange_general(ctx, p, k)


@criterion(11, "classical oracle")
def crit_11():
    # a classical report passes only when its wrong-shift control fails
    for n in (2, 3):
        yield "oracle N=%d" % n, verify_classical(n)
    yield ("engine matches oracle at q=1",
           verify_classical_consistency(_ctx("flip2")))


@criterion(12, "multi-point proof")
def crit_12():
    rep = verify_rigor(_sym("dj2"), 2)
    yield "dj(2) k=2 at %d points" % rep.details["points_checked"], rep


@criterion(6, "stretch: dj(3) and dj(4) k=3 (non-gating)")
def stretch_job():
    """The large k=3 jobs: dj(3) in both variants and dj(4) column."""
    for label, variant in (("dj3q", "column"), ("dj3q", "row"),
                           ("dj4q", "column")):
        rep = verify_matrix_identity(_ctx(label), 3, variant)
        yield "%s %s" % (rep.rmatrix, variant), rep


FULL = (crit_1, crit_2, crit_3, crit_4, crit_5, crit_6, crit_7, crit_8,
        crit_9, crit_10, crit_11, crit_12)


def run_suite(stretch=False, emit=print):
    """Run the full suite; returns (all_passed, results).  The stretch job
    is reported but never gates the outcome."""
    results = []
    ok = True
    for fn in FULL:
        res = fn()
        results.append(res)
        ok = ok and res.ok
        emit(res.line())
        if not res.ok:
            for name, good in res.checks:
                if not good:
                    emit("      failed: %s" % name)
    if stretch:
        res = stretch_job()
        results.append(res)
        emit(res.line())
    return ok, results
