import json
import os
import time
from fractions import Fraction

import pytest

from qcapelli import capelli, rewrite, weyl
from qcapelli.capelli import (
    ProjectorIdentity,
    RewriteContext,
    VerifyError,
    _cap1_sides,
    _copy_factors,
    _det,
    _det_row,
    _ket,
    _lift,
    _noncentral,
    _product,
    _report,
    _residuals,
    _traced,
    _verify_dense,
    _word,
    _wrong_shifts,
    rigor_bound,
    shift_value,
    theorem_sides,
    verify_cap1,
    verify_classical,
    verify_classical_consistency,
    verify_consum,
    verify_determinants,
    verify_exchange_general,
    verify_h_copy,
    verify_matrix_identity,
    verify_mre,
    verify_re_ideal,
    verify_rigor,
    verify_shift_scan,
    verify_traced,
)
from qcapelli.ncalg import NCPoly, m_char
from qcapelli.qlinalg import QMatrix, rank_factor, rows_times
from qcapelli.rcatalog import dj, flip, load
from qcapelli.rewrite import DegreeCapError, Rewriter, normal_order
from qcapelli.scalar import QConfig, Rat, RatQ, scalar_to_text
from test_rcatalog import conjugate, write_symmetry
from test_rewrite import matrix_copies


def _bra_ket(v, X, u):
    """Reference: v.X.u for a dim x dim matrix X."""
    acc = NCPoly.zero()
    for i, vi in enumerate(v):
        if not vi:
            continue
        row = X.rows[i]
        for j, uj in enumerate(u):
            if uj and row[j]:
                acc = acc + (vi * uj) * row[j]
    return acc


def _det_chain(sym, kind):
    """Reference: M1 ... Mm or Dm ... D1 as a dim x dim matrix."""
    m = sym.rank
    copies = matrix_copies(sym, kind, m)
    if kind == "d":
        copies = list(reversed(copies))
    chain = copies[0]
    for x in copies[1:]:
        chain = chain * x
    return chain


def e_k(sym, k):
    """Elementary symmetric polynomial of the position matrix: the
    R-trace over k legs of A^(k) M_ov1 ... M_ovk."""
    if k == 0:
        return NCPoly.from_word("", sym.q_config.one())
    chain = None
    for x in matrix_copies(sym, "m", k):
        chain = x if chain is None else chain * x
    return sym.r_trace(sym.antisym(k) * chain)


def verify_matr_id(ctx):
    """Projector times the position chain equals the projector times the
    bra-ket scalar, modulo the position ideal."""
    sym = ctx.sym
    m = sym.rank
    t0 = time.perf_counter()
    chain = _det_chain(sym, "m")
    proj = sym.antisym(m)
    (u,), (v,) = rank_factor(proj)
    scalar = _bra_ket(v, chain, u)
    lhs = proj * chain
    rhs = proj.scale(scalar)
    t1 = time.perf_counter()
    residuals, sample = _residuals(_canonical(ctx, (lhs - rhs).rows))
    t2 = time.perf_counter()
    return _report(ctx, "matr-id", {"N": sym.N, "m": m}, residuals, sample,
                   {"build": round(1000 * (t1 - t0), 3),
                    "reduction": round(1000 * (t2 - t1), 3)})


_CTX = {}


def ctx_for(label):
    got = _CTX.get(label)
    if got is None:
        if label == "dj1":
            got = RewriteContext(dj(1))
        elif label == "dj2":
            got = RewriteContext(dj(2))
        elif label == "dj2q":
            got = RewriteContext(dj(2, QConfig.fixed("3/5")))
        elif label == "dj3q":
            got = RewriteContext(dj(3, QConfig.fixed("3/5")))
        elif label == "flip2":
            got = RewriteContext(flip(2))
        elif label == "conj2":
            got = RewriteContext(conjugate(2, [[2, 1], [1, 1]]))
        else:
            raise KeyError(label)
        _CTX[label] = got
    return got


def test_k1_is_tautological_before_reduction():
    ctx = ctx_for("dj2")
    ident = ProjectorIdentity(ctx.sym, 1)
    lhs, rhs = theorem_sides(ctx, ident, ident.e)
    assert len(ident.u) == 2
    assert all(a == b for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))


def test_shift_values():
    cfg = dj(2).q_config
    assert not shift_value(cfg, 1, "column")
    assert not shift_value(cfg, 1, "row")
    assert shift_value(cfg, 2, "column") == cfg.q()
    assert shift_value(cfg, 3, "column") == cfg.qpow(2) * cfg.qnum(2)
    assert shift_value(cfg, 2, "row") == -cfg.qpow(-1)
    with pytest.raises(VerifyError):
        shift_value(cfg, 2, "diagonal")


@pytest.mark.parametrize("k", [1, 2])
def test_unknown_variant_is_refused_before_anything_is_built(k, monkeypatch):
    ctx = ctx_for("dj2")

    def built(*args):
        raise AssertionError("a projector was built")

    for name in ("antisym", "ssym"):
        monkeypatch.setattr(ctx.sym, name, built)
    monkeypatch.setattr(capelli, "rank_factor", built)
    for run in (lambda: ProjectorIdentity(ctx.sym, k, "diagonal"),
                lambda: verify_matrix_identity(ctx, k, "diagonal"),
                lambda: verify_traced(ctx, k, "diagonal")):
        with pytest.raises(VerifyError, match="unknown variant"):
            run()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("variant", ["column", "row"])
def test_theorem_rank_one(k, variant):
    assert verify_matrix_identity(ctx_for("dj1"), k, variant).passed()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("variant", ["column", "row"])
def test_theorem_dj2_symbolic(k, variant):
    rep = verify_matrix_identity(ctx_for("dj2"), k, variant)
    assert rep.passed()
    assert rep.backend == "symbolic"
    assert rep.q_points == ["symbolic"]


@pytest.mark.parametrize("variant", ["column", "row"])
def test_theorem_dj3_fixed(variant):
    rep = verify_matrix_identity(ctx_for("dj3q"), 2, variant)
    assert rep.passed()
    assert rep.q_points == ["3/5"]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("variant", ["column", "row"])
def test_theorem_classical_point(k, variant):
    assert verify_matrix_identity(ctx_for("flip2"), k, variant).passed()


def test_theorem_beyond_rank_vanishes():
    # A^(3) = 0 for N = 2, so both sides collapse and the check stays green
    assert verify_matrix_identity(ctx_for("dj2"), 3, "column").passed()


def test_wrong_shift_leaves_residual():
    cfg = dj(2).q_config
    for alpha in (cfg.zero(), cfg.one(), cfg.qpow(2)):
        rep = verify_matrix_identity(ctx_for("dj2"), 2, "column", alpha=alpha)
        assert not rep.passed()
        assert rep.residual_entries > 0
        assert rep.residual_sample


def unreduced_sides(sym, k, variant="column", alpha=None):
    """Reference: U and the row blocks E.LHS and E.RHS assembled in the
    free algebra, one generator copy at a time with no reduction at all,
    as the identity was checked before every side was kept canonical."""
    cfg = sym.q_config
    proj = sym.antisym(k) if variant == "column" else sym.ssym(k)
    u, e = rank_factor(proj)
    mcop = matrix_copies(sym, "m", k)
    dcop = matrix_copies(sym, "d", k)

    def through(block, mats):
        for x in mats:
            block = rows_times(block, x.rows, x.dim)
        return block

    lhs = through(e, mcop[:1] + dcop[:1])
    for i in range(2, k + 1):
        s = shift_value(cfg, i, variant)
        if alpha is not None and i == k:
            s = alpha
        moved = through(lhs, [mcop[i - 1], dcop[i - 1]])
        lhs = [[a + s * b if b else a for a, b in zip(ra, rb)]
               for ra, rb in zip(moved, lhs)]
    lhs = through(lhs, [proj])
    sign = 1 if variant == "column" else -1
    c = cfg.qpow(sign * k * (k - 1))
    rhs = [[c * v if v else 0 for v in row] for row in e]
    return u, lhs, through(rhs, mcop + dcop[::-1])


def _canonical(ctx, rows):
    return [[ctx.reduce_poly(v) if v else 0 for v in row] for row in rows]


def _reduced_diff(ctx, lhs, rhs):
    return [[ctx.reduce_poly(a - b) for a, b in zip(ra, rb)]
            for ra, rb in zip(lhs, rhs)]


# (label, k, variant, alpha, nonzero residual entries); the four alpha =
# 7/2 controls leave residuals, the rest pass
REFERENCE_CASES = ([("dj2q", 3, "row", "7/2", 30),
                    ("dj3q", 2, "column", "7/2", 18),
                    ("dj3q", 2, "row", "7/2", 39),
                    ("dj2q", 3, "column", "7/2", 0)]
                   + [(label, 2, v, None, 0) for label in ("dj2", "flip2")
                      for v in ("column", "row")])


@pytest.mark.parametrize("label,k,variant,alpha,nonzero", REFERENCE_CASES)
def test_canonical_sides_match_the_unreduced_reference(label, k, variant,
                                                       alpha, nonzero):
    ctx = ctx_for(label)
    sym = ctx.sym
    if alpha is not None:
        alpha = sym.q_config.parse(alpha)
    u, lhs, rhs = unreduced_sides(sym, k, variant, alpha)
    want = _reduced_diff(ctx, lhs, rhs)
    ident = ProjectorIdentity(sym, k, variant, alpha)
    got = _reduced_diff(ctx, *theorem_sides(ctx, ident, ident.e))
    assert ident.u == u
    assert got == want
    assert sum(1 for row in got for v in row if v) == nonzero


def test_row_at_a_time_report_matches_the_unreduced_reference():
    ctx = ctx_for("dj3q")
    alpha = ctx.sym.q_config.parse("7/2")
    u, lhs, rhs = unreduced_sides(ctx.sym, 2, "row", alpha)
    residuals, sample = _residuals(_canonical(
        ctx, [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(lhs, rhs)]))
    rep = verify_matrix_identity(ctx, 2, "row", alpha)
    assert not rep.passed()
    assert rep.residual_entries == residuals == 39
    assert rep.residual_sample == sample
    assert rep.details["projector_rank"] == len(u)


def dense_through(ctx, block, mats):
    """Reference: block.X1...Xn over dense matrices, reduced after every
    factor, as the sides were assembled over matrix_copies before the
    braided copies were factored into R-legs around X1."""
    for x in mats:
        block = _canonical(ctx, rows_times(block, x.rows, x.dim))
    return block


def dense_sides(ctx, ident, rows):
    """Reference: rows.LHS and rows.RHS of a ProjectorIdentity over the
    dense copies of matrix_copies."""
    k = ident.k
    mcop = matrix_copies(ctx.sym, "m", k)
    dcop = matrix_copies(ctx.sym, "d", k)
    lhs = dense_through(ctx, rows, mcop[:1] + dcop[:1])
    for m, d, s in zip(mcop[1:], dcop[1:], ident.shifts):
        moved = dense_through(ctx, lhs, [m, d])
        lhs = [[a + s * b if b else a for a, b in zip(ra, rb)]
               for ra, rb in zip(moved, lhs)]
    lhs = rows_times(lhs, ident.proj.rows, ident.proj.dim)
    rhs = [[ident.c * v if v else 0 for v in row] for row in rows]
    return lhs, dense_through(ctx, rhs, mcop + dcop[::-1])


def _terms(block):
    return [[v.terms if v else {} for v in row] for row in block]


FACTORED_CASES = ([(label, k, v, None) for label in ("dj2", "flip2")
                   for k in (2, 3) for v in ("column", "row")]
                  + [("dj3q", 2, v, None) for v in ("column", "row")]
                  + [("dj3q", 3, "column", None),
                     ("dj3q", 2, "column", "7/2"),
                     ("dj2", 3, "row", "7/2")])


@pytest.mark.parametrize("label,k,variant,alpha", FACTORED_CASES)
def test_factored_sides_match_the_dense_copies(label, k, variant, alpha):
    ctx = ctx_for(label)
    sym = ctx.sym
    if alpha is not None:
        alpha = sym.q_config.parse(alpha)
    ident = ProjectorIdentity(sym, k, variant, alpha)
    # a unit row as well, so that rank-0 projectors (k > N in the
    # column variant) still push a row through both sides
    rows = ident.e + [[1] + [0] * (ident.proj.dim - 1)]
    for row in rows:
        got = theorem_sides(ctx, ident, [row])
        want = dense_sides(ctx, ident, [row])
        assert _terms(got[0]) == _terms(want[0])
        assert _terms(got[1]) == _terms(want[1])


@pytest.mark.parametrize("label", ["dj2", "dj2q", "dj3q", "flip2", "conj2"])
def test_determinant_rows_match_the_dense_copies(label):
    ctx = ctx_for(label)
    sym = ctx.sym
    m = sym.rank
    top = ProjectorIdentity(sym, m)
    (v,) = top.e
    # a row of scalars, and a row of canonical polynomials of the other
    # kind, as cap1 folds det(D) into v.M1...Mm
    other = {"m": _det(ctx, top, "d"), "d": _det(ctx, top, "m")}
    for kind in ("m", "d"):
        copies = matrix_copies(sym, kind, m)
        if kind == "d":
            copies.reverse()
        for row in (v, [other[kind] * x if x else 0 for x in v]):
            want = dense_through(ctx, [row], copies)
            assert _terms([_det_row(ctx, top, kind, row)]) == _terms(want)


def full_chain(sym, k, variant="column", alpha=None):
    """Reference: P X1 (X2 + s2 I) ... (Xk + sk I) as a dim x dim matrix,
    with X_i = M_i D_i and every product of two matrices formed."""
    cfg = sym.q_config
    proj = sym.antisym(k) if variant == "column" else sym.ssym(k)
    mcop = matrix_copies(sym, "m", k)
    dcop = matrix_copies(sym, "d", k)
    lhs = proj * mcop[0] * dcop[0]
    for i in range(2, k + 1):
        s = shift_value(cfg, i, variant)
        if alpha is not None and i == k:
            s = alpha
        lhs = lhs * (mcop[i - 1] * dcop[i - 1]).shifted(s)
    return lhs


def full_sides(sym, k, variant="column", alpha=None):
    """Reference: both sides of the identity as dim x dim matrices,
    P X1 (X2 + s2 I) ... (Xk + sk I) P and c P M1 ... Mk Dk ... D1, with
    every product of two matrices of polynomials formed."""
    cfg = sym.q_config
    proj = sym.antisym(k) if variant == "column" else sym.ssym(k)
    mcop = matrix_copies(sym, "m", k)
    dcop = matrix_copies(sym, "d", k)
    lhs = full_chain(sym, k, variant, alpha) * proj
    chain = mcop[0]
    for x in mcop[1:] + dcop[::-1]:
        chain = chain * x
    sign = 1 if variant == "column" else -1
    return lhs, (proj * chain).scale(cfg.qpow(sign * k * (k - 1)))


# dj(2) symbolic k=3 row costs about 9 s in the full reference
STRETCH = pytest.mark.skipif(not os.environ.get("QCAPELLI_STRETCH"),
                             reason="about 9 s; set QCAPELLI_STRETCH=1")
BLOCK_CASES = ([("dj2", 2, v, None) for v in ("column", "row")]
               + [("dj2", 3, "column", None),
                  pytest.param("dj2", 3, "row", None, marks=STRETCH),
                  ("dj2q", 3, "row", None)]
               + [(label, 2, v, None) for label in ("dj3q", "flip2")
                  for v in ("column", "row")]
               + [("dj2", 2, "column", a) for a in ("0", "1", "q^2")])


@pytest.mark.parametrize("label,k,variant,alpha", BLOCK_CASES)
def test_row_block_matches_the_full_residual(label, k, variant, alpha):
    ctx = ctx_for(label)
    sym = ctx.sym
    if alpha is not None:
        alpha = sym.q_config.parse(alpha)
    lhs, rhs = full_sides(sym, k, variant, alpha)
    full = [[ctx.reduce_poly(v) for v in row] for row in (lhs - rhs).rows]
    ident = ProjectorIdentity(sym, k, variant, alpha)
    e = ident.e
    block = _reduced_diff(ctx, *theorem_sides(ctx, ident, e))
    assert block == rows_times(e, full, lhs.dim)
    assert _lift(ident.u, block, sym.N, k).rows == full
    full_pass = all(v.is_zero() for row in full for v in row)
    rep = verify_matrix_identity(ctx, k, variant, alpha)
    assert rep.passed() == full_pass == (alpha is None)
    assert rep.details["projector_rank"] == len(e)
    assert rep.residual_entries == sum(1 for row in block for v in row if v)


@pytest.mark.parametrize("label", ["dj2", "dj2q", "dj3q", "flip2", "conj2"])
def test_row_block_scalars_match_the_full_products(label):
    ctx = ctx_for(label)
    sym = ctx.sym
    cfg = sym.q_config
    m = sym.rank
    top = ProjectorIdentity(sym, m)
    # Tr_R(A^(m) L1 (L2 + s2) ... (Lm + sm)) with dim x dim products
    assert _cap1_sides(ctx, top)[0] == ctx.reduce_poly(
        sym.r_trace(full_chain(sym, m)))
    proj = sym.antisym(m)
    (u,), (v,) = rank_factor(proj)
    for kind in ("m", "d"):
        chain = _det_chain(sym, kind)
        traced = sym.r_trace(proj * chain) * cfg.qpow(m * m)
        assert _det(ctx, top, kind) == ctx.reduce_poly(traced)
        assert _det(ctx, top, kind) == ctx.reduce_poly(_bra_ket(v, chain, u))


def _holds_poly(x):
    return any(isinstance(v, NCPoly) for row in x.rows for v in row)


def test_no_projector_identity_multiplies_two_polynomial_matrices(
        monkeypatch):
    contexts = {label: ctx_for(label) for label in ("dj2q", "flip2")}
    for ctx in contexts.values():
        # rule derivation multiplies generator matrices; build it first
        ctx.table
        ctx.system("m", 2)
        ctx.system("d", 2)
    mul = QMatrix.__mul__

    def guarded(a, b):
        if isinstance(b, QMatrix) and _holds_poly(a) and _holds_poly(b):
            raise AssertionError("two matrices of polynomials multiplied")
        return mul(a, b)

    monkeypatch.setattr(QMatrix, "__mul__", guarded)
    ctx = contexts["dj2q"]
    reports = [verify_traced(ctx, 2), verify_cap1(ctx),
               verify_determinants(ctx),
               verify_classical_consistency(contexts["flip2"])]
    reports += [verify_matrix_identity(ctx, 2, v) for v in ("column", "row")]
    assert all(rep.passed() for rep in reports)


def test_shift_scan_control():
    rep = verify_shift_scan(ctx_for("dj2"), 2)
    assert rep.passed()
    assert scalar_to_text(dj(2).q_config.q()) == rep.details["correct_alpha"]
    assert [o["alpha"] for o in rep.details["alphas"]] == ["0", "1", "q^2"]
    assert all(o["residuals"] > 0 for o in rep.details["alphas"])


@pytest.mark.parametrize("N,k,correct,alphas", [(2, 2, "1", ["0", "2", "3"]),
                                                (3, 3, "2", ["0", "1", "3"])])
def test_shift_scan_runs_three_distinct_wrong_shifts_at_q_1(N, k, correct,
                                                            alphas):
    # at q = 1, 1 and q^2 coincide, and at k = 2 both equal the correct
    # shift 1: each coincidence is replaced by the next free value
    rep = verify_shift_scan(RewriteContext(flip(N)), k)
    assert rep.passed()
    assert rep.details["correct_alpha"] == correct
    assert [o["alpha"] for o in rep.details["alphas"]] == alphas
    assert all(o["residuals"] > 0 for o in rep.details["alphas"])


def test_wrong_shifts_are_distinct_from_the_correct_one():
    cfg = QConfig.fixed(1, allow_unit=True)
    for correct in range(-2, 5):
        wrong = _wrong_shifts(cfg, Fraction(correct))
        assert len(set(wrong)) == 3 and correct not in wrong


@pytest.mark.parametrize("label", ["dj2", "dj3q"])
def test_reduce_poly_leaves_canonical_values_unchanged(label):
    ctx = ctx_for(label)
    sym = ctx.sym
    cfg = sym.q_config
    k = 2
    for alpha in _wrong_shifts(cfg, shift_value(cfg, k, "column")):
        ident = ProjectorIdentity(sym, k, "column", alpha)
        # the residual rows of the wrong-shift control
        lhs, rhs = theorem_sides(ctx, ident, ident.e)
        rows = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(lhs, rhs)]
        assert any(v for row in rows for v in row)
        assert _canonical(ctx, rows) == rows
        # its traced difference
        traced = _traced(ctx, ident)
        assert traced and ctx.reduce_poly(traced) == traced
    # cap1's right side and its reversed-order value
    m = sym.rank
    top = ProjectorIdentity(sym, m)
    lhs, rhs, dd = _cap1_sides(ctx, top)
    assert ctx.reduce_poly(rhs) == rhs
    (u,), (v,) = top.u, top.e
    swapped = _ket(_det_row(ctx, top, "m", [dd * x if x else 0 for x in v]),
                   u) * cfg.qpow(-m)
    assert ctx.reduce_poly(swapped) == swapped
    assert ctx.reduce_poly(lhs - swapped) == lhs - swapped


@pytest.mark.parametrize("variant", ["column", "row"])
def test_traced_corollaries(variant):
    assert verify_traced(ctx_for("dj2"), 2, variant).passed()


def test_traced_dj3_fixed():
    assert verify_traced(ctx_for("dj3q"), 2, "column").passed()


def test_cap1_dj2():
    rep = verify_cap1(ctx_for("dj2"))
    assert rep.passed()
    assert rep.details["reversed_order"] == "fail"


def test_cap1_records_reversed_order_without_gating():
    rep = verify_cap1(ctx_for("flip2"))
    assert rep.passed()
    assert rep.details["reversed_order"] in ("pass", "fail")


@pytest.mark.parametrize("verify", [
    lambda ctx: verify_matrix_identity(ctx, 2, "column"), verify_cap1,
    verify_determinants])
def test_reduction_time_is_the_time_spent_reducing(verify):
    ctx = RewriteContext(dj(2))
    t0 = time.perf_counter()
    rep = verify(ctx)
    elapsed = 1000 * (time.perf_counter() - t0)
    timings = rep.timings_ms
    assert set(timings) == {"build", "reduction"}
    assert timings["reduction"] > 0 and timings["build"] > 0
    assert timings["reduction"] == pytest.approx(1000 * ctx.reduce_s,
                                                 abs=1e-3)
    assert timings["build"] + timings["reduction"] <= elapsed + 1e-3


def test_determinant_forms_and_centrality():
    rep = verify_determinants(ctx_for("dj2"))
    assert rep.passed()
    assert rep.details["forms_agree"] == "pass"


def test_centrality_check_catches_a_noncentral_element(monkeypatch):
    ctx = ctx_for("dj2")
    cfg = ctx.sym.q_config
    m12 = NCPoly.from_word(m_char(1, 2, 2), cfg.one())
    top = ProjectorIdentity(ctx.sym, ctx.sym.rank)
    assert not _noncentral(ctx, _det(ctx, top, "m"), "m")
    assert _noncentral(ctx, m12, "m")
    det = capelli._det
    monkeypatch.setattr(capelli, "_det", lambda ctx, top, kind:
                        m12 if kind == "m" else det(ctx, top, kind))
    rep = verify_determinants(ctx)
    assert not rep.passed()
    assert rep.details["forms_agree"] == "pass"
    assert all(s["entry"][0] == "central-m" for s in rep.residual_sample)


def test_determinant_forms_that_disagree_report_their_reduction_time(
        monkeypatch):
    def disagree(ctx, top, kind):
        ctx.reduce_poly(NCPoly.from_word(m_char(1, 1, 2), 1))
        raise VerifyError("forms differ")

    monkeypatch.setattr(capelli, "_det", disagree)
    ctx = RewriteContext(dj(2))
    rep = verify_determinants(ctx)
    assert not rep.passed()
    assert rep.residual_sample[0]["entry"] == ["forms"]
    assert set(rep.timings_ms) == {"build", "reduction"}
    assert rep.timings_ms["reduction"] == pytest.approx(1000 * ctx.reduce_s,
                                                        abs=1e-3)


def test_determinant_forms_dj3_fixed():
    assert verify_determinants(ctx_for("dj3q")).passed()


def test_matr_id():
    assert verify_matr_id(ctx_for("dj2")).passed()


def test_re_ideal():
    assert verify_re_ideal(ctx_for("dj2")).passed()


@pytest.mark.parametrize("label", ["dj2q", "dj3q", "conj2"])
def test_re_ideal_other_symmetries(label):
    assert verify_re_ideal(ctx_for(label)).passed()


def test_re_ideal_normal_orders_through_the_rewrite_module(monkeypatch):
    # a wrapper bound on rewrite.normal_order sees every call re-ideal makes
    calls = []
    plain = rewrite.normal_order

    def counted(x, table):
        calls.append(x)
        return plain(x, table)

    monkeypatch.setattr(rewrite, "normal_order", counted)
    assert verify_re_ideal(RewriteContext(dj(2))).passed()
    assert len(calls) > 0


@pytest.mark.parametrize("label,nonzero", [("dj2", 48), ("dj2q", 48),
                                           ("dj3q", 648), ("conj2", 64)])
def test_re_ideal_needs_its_braiding_tail(label, nonzero):
    # D1 y - y D1, normal-ordered as verify_re_ideal does: modulo the
    # ideal, y D1 tail lies in it for any tail; modulo the exchange
    # relations alone, only the stated tail closes the identity
    ctx = ctx_for(label)
    table = ctx.table

    def assemble():
        f = _copy_factors(ctx.sym, 3)
        pair = _product(f, _word([("m", 2), ("m", 3)]))
        y = f[2] * pair - pair * f[2]
        return f["d"] * y - y * f["d"]

    rep = _verify_dense(ctx, "re-ideal", {"N": ctx.sym.N},
                        lambda v: normal_order(v, table), assemble)
    assert rep.residual_entries == nonzero


@pytest.mark.parametrize("q", [None, "3/5"])
def test_whole_matrix_identities_see_a_wrong_exchange_rule(q, monkeypatch):
    # double the Ab coefficient of the exchange rule for aB
    derive = capelli.derive_exchange

    def doubled(sym):
        rules = {w: dict(rhs) for w, rhs in derive(sym).rules.items()}
        rules["aB"]["Ab"] = 2 * rules["aB"]["Ab"]
        return Rewriter(rules)

    monkeypatch.setattr(capelli, "derive_exchange", doubled)
    ctx = RewriteContext(dj(2) if q is None else dj(2, QConfig.fixed(q)))
    assert verify_mre(ctx).residual_entries == 10
    assert [verify_exchange_general(ctx, p, k).residual_entries
            for p, k in ((1, 2), (1, 3), (2, 3))] == [5, 14, 19]
    assert verify_re_ideal(ctx).residual_entries == 17


@pytest.mark.parametrize("label,nonzero", [("dj2", 10), ("dj3q", 44)])
def test_mre_needs_its_linear_term(label, nonzero):
    ctx = ctx_for(label)

    def assemble():
        f = _copy_factors(ctx.sym, 2)
        r, l1 = f[1], f["m"] * f["d"]
        return r * l1 * r * l1 - l1 * r * l1 * r

    rep = _verify_dense(ctx, "mre", {"N": ctx.sym.N}, ctx.reduce_poly,
                        assemble)
    assert rep.residual_entries == nonzero


@pytest.mark.parametrize("p", [1, 2, 3])
def test_h_copy(p):
    assert verify_h_copy(ctx_for("dj2"), p).passed()


@pytest.mark.parametrize("p,braid,nonzero", [(1, 2, 40), (2, 1, 48)])
def test_h_copy_needs_its_braiding_leg(p, braid, nonzero):
    # R_braid M_p M_(p+1) - M_p M_(p+1) R_braid on three legs, with the
    # braiding on the other leg pair
    ctx = ctx_for("dj2")

    def assemble():
        f = _copy_factors(ctx.sym, 3)
        pair = _product(f, _word([("m", p), ("m", p + 1)]))
        return f[braid] * pair - pair * f[braid]

    rep = _verify_dense(ctx, "h-copy", {"N": 2, "p": p}, ctx.reduce_poly,
                        assemble)
    assert rep.residual_entries == nonzero


def test_leg_count_is_capped_before_anything_is_built(monkeypatch):
    ctx = RewriteContext(dj(2), max_degree=3)

    def built(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(capelli, "_copy_factors", built)
    monkeypatch.setattr(capelli, "embed", built)
    for name in ("antisym", "ssym"):
        monkeypatch.setattr(ctx.sym, name, built)
    for run in (lambda: verify_consum(ctx, 4),
                lambda: verify_h_copy(ctx, 3),
                lambda: verify_exchange_general(ctx, 1, 4),
                lambda: verify_re_ideal(RewriteContext(dj(2), max_degree=2))):
        with pytest.raises(DegreeCapError):
            run()


@pytest.mark.parametrize("label,verify", [
    ("dj2q", verify_cap1), ("dj3q", verify_cap1),
    ("dj2q", verify_determinants),
    ("flip2", verify_classical_consistency)])
def test_top_rank_is_set_up_once(label, verify, monkeypatch):
    ctx = ctx_for(label)
    sym = ctx.sym
    calls = []
    for name in ("rank_factor", "_copy_factors"):
        def counted(*args, fn=getattr(capelli, name), name=name):
            calls.append((name, args[-1]))
            return fn(*args)
        monkeypatch.setattr(capelli, name, counted)
    assert verify(ctx).passed()
    assert [name for name, _ in calls] == ["rank_factor", "_copy_factors"]
    assert calls[0][1] == sym.antisym(sym.rank)
    assert calls[1][1] == sym.rank


@pytest.mark.parametrize("k", [2, 3])
def test_consum(k):
    assert verify_consum(ctx_for("dj2"), k).passed()


@pytest.mark.parametrize("pk", [(1, 2), (1, 3), (2, 3)])
def test_exchange_general(pk):
    p, k = pk
    assert verify_exchange_general(ctx_for("dj2"), p, k).passed()


def test_exchange_general_rejects_bad_positions():
    with pytest.raises(VerifyError):
        verify_exchange_general(ctx_for("dj2"), 2, 2)
    with pytest.raises(VerifyError):
        verify_exchange_general(ctx_for("dj2"), 0, 2)


def test_mre_both_backends():
    assert verify_mre(ctx_for("dj2")).passed()
    assert verify_mre(ctx_for("dj3q")).passed()


def test_classical_oracle():
    for n in (1, 2, 3):
        rep = verify_classical(n)
        assert rep.passed()
        assert rep.details["control_fails"] is True
        assert rep.details["convention"] == "column"
        assert rep.details["row_form"] in ("pass", "fail")


def test_classical_gates_on_column_convention_only(monkeypatch):
    def column_fails(N):
        return {"N": N, "shifts": [], "holds": False, "control_fails": True}

    monkeypatch.setattr(weyl, "capelli_check", column_fails)
    # at N = 1 the row form holds, so a row fallback would turn this green
    for n in (1, 2):
        rep = verify_classical(n)
        assert rep.outcome == "fail"
        assert rep.details["convention"] == "column"


def test_classical_consistency():
    assert verify_classical_consistency(ctx_for("flip2")).passed()


def test_classical_consistency_needs_unit_point():
    with pytest.raises(VerifyError):
        verify_classical_consistency(ctx_for("dj2"))


def test_rank_one_closed_forms():
    ctx = ctx_for("dj1")
    cfg = ctx.sym.q_config
    top = ProjectorIdentity(ctx.sym, 1)
    assert _det(ctx, top, "m").terms == {"A": cfg.one()}
    assert _det(ctx, top, "d").terms == {"a": cfg.one()}
    assert e_k(ctx.sym, 1).terms == {"A": cfg.qpow(-1)}
    rep = verify_cap1(ctx)
    assert rep.passed()


def test_e_k_top_matches_determinant():
    ctx = ctx_for("dj2")
    cfg = ctx.sym.q_config
    top = e_k(ctx.sym, 2) * cfg.qpow(4)
    gap = ctx.reduce_poly(top - _det(ctx, ProjectorIdentity(ctx.sym, 2), "m"))
    assert gap.is_zero()


def test_matrix_copies_shapes():
    # the recursion X_(i+1) = R_i X_i R_i^(-1) against the R-leg words
    for label in ("dj2", "dj2q", "flip2"):
        sym = ctx_for(label).sym
        factors = _copy_factors(sym, 3)
        for kind in ("m", "d"):
            cops = matrix_copies(sym, kind, 3)
            assert len(cops) == 3
            assert all(x.p == 3 and x.dim == 8 for x in cops)
            for i, x in enumerate(cops, 1):
                assert _product(factors, _word([(kind, i)])) == x


def test_report_record_is_serializable():
    rep = verify_matrix_identity(ctx_for("dj2"), 2)
    blob = json.dumps(rep.to_record())
    assert '"identity": "th"' in blob
    assert '"outcome": "pass"' in blob


def test_context_degree_cap():
    ctx = RewriteContext(dj(1), max_degree=2)
    with pytest.raises(DegreeCapError):
        ctx.system("m", 3)
    with pytest.raises(DegreeCapError):
        ctx.reduce_poly(NCPoly.from_word("AAA"))


def test_reduce_poly_completes_each_system_to_its_input_degree():
    ctx = RewriteContext(dj(2))
    a, b = m_char(1, 1, 2), m_char(1, 2, 2)
    x = NCPoly.from_word(b + a + a) + NCPoly.from_word(a.lower())
    assert ctx.reduce_poly(x) == ctx.reduce_poly(ctx.reduce_poly(x))
    assert ctx.system("m", 0).degree == 3
    assert ctx.system("d", 0).degree == 2


def test_context_derives_each_rule_table_once(monkeypatch):
    # growing a completion from degree 2 to 3 reuses the degree-2 table,
    # whose derivation runs the guard probes at a fixed q
    calls = []
    for name in ("derive_re_rules", "derive_dd_rules"):
        def counted(sym, fn=getattr(capelli, name), name=name):
            calls.append(name)
            return fn(sym)
        monkeypatch.setattr(capelli, name, counted)
    ctx = RewriteContext(dj(2, QConfig.fixed("3/5")))
    for degree in (2, 3):
        for kind in ("m", "d"):
            assert ctx.system(kind, degree).degree == degree
    assert sorted(calls) == ["derive_dd_rules", "derive_re_rules"]
    assert ctx.specialization_guard == "checked"


def test_rigor_bound_and_points():
    bound = rigor_bound(dj(2), 2)
    assert bound >= 1
    rep = verify_rigor(dj(2), 2)
    assert rep.passed()
    assert rep.details["points_checked"] == bound + 1
    assert len(set(rep.q_points)) == bound + 1
    assert all(Fraction(p) > 0 and Fraction(p) != 1 for p in rep.q_points)


def test_rigor_bound_needs_symbolic_backend():
    with pytest.raises(VerifyError):
        rigor_bound(dj(2, QConfig.fixed("3/5")), 2)
    # a fixed q, or a symmetry that cannot be rebuilt at the points
    for sym in (dj(2, QConfig.fixed("3/5")), flip(2)):
        with pytest.raises(VerifyError):
            verify_rigor(sym, 2)


def test_rigor_honours_the_degree_cap():
    with pytest.raises(DegreeCapError):
        rigor_bound(dj(2), 2, max_degree=1)
    with pytest.raises(DegreeCapError):
        verify_rigor(dj(2), 2, max_degree=1)


def _dj2_file(tmp_path, q):
    path = tmp_path / "dj2.rmx"
    path.write_text(json.dumps({
        "N": 2, "q": q, "entries": [
            {"i": 1, "j": 1, "k": 1, "l": 1, "value": "q"},
            {"i": 2, "j": 2, "k": 2, "l": 2, "value": "q"},
            {"i": 1, "j": 2, "k": 2, "l": 1, "value": "1"},
            {"i": 2, "j": 1, "k": 1, "l": 2, "value": "1"},
            {"i": 1, "j": 2, "k": 1, "l": 2, "value": "q - q^(-1)"},
        ]}))
    return str(path)


def test_specialization_guard_is_reported(tmp_path):
    catalog = RewriteContext(dj(2, QConfig.fixed("3/5")))
    assert verify_consum(catalog, 2).details["specialization_guard"] \
        == "not run"
    assert verify_matrix_identity(catalog, 2).details[
        "specialization_guard"] == "checked"
    from_file = RewriteContext(load(_dj2_file(tmp_path, "3/5")))
    rep = verify_matrix_identity(from_file, 2)
    assert rep.passed()
    assert rep.details["specialization_guard"] == "skipped: no rebuilder"
    for sym in (dj(2), flip(2)):
        rep = verify_mre(RewriteContext(sym))
        assert rep.details["specialization_guard"] == "not applicable"


def scalar_leaves(x, seen=None):
    """Every scalar reachable from x through containers, dict keys and
    values, and the slots and attributes of objects (NCPoly terms, QMatrix
    rows, rewriter memos, ...); a RatQ is one scalar."""
    seen = set() if seen is None else seen
    if isinstance(x, (int, Fraction, RatQ)) and type(x) is not bool:
        yield x
        return
    if x is None or isinstance(x, (str, bool)) or id(x) in seen:
        return
    seen.add(id(x))
    if isinstance(x, dict):
        items = [v for kv in x.items() for v in kv]
    elif isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
    else:
        slots = [s for cls in type(x).__mro__
                 for s in getattr(cls, "__slots__", ())]
        items = [getattr(x, s) for s in slots if hasattr(x, s)]
        items += list(getattr(x, "__dict__", {}).values())
    for v in items:
        yield from scalar_leaves(v, seen)


@pytest.mark.parametrize("label", ["dj2", "dj2q", "dj3q", "flip2", "file"])
def test_every_scalar_is_an_int_or_of_the_backend_type(label, tmp_path):
    """A plain Fraction on the fixed path is never wrong, only slow, so
    only a test can see it: every scalar of the symmetry (R, R_inv, the
    skew-inverse data, the towers), the exchange table, both degree-2
    rule tables, both completed systems and the residual rows of a
    wrong-shift control is an int or of the backend's type (Rat when q is
    fixed, RatQ when symbolic)."""
    if label == "file":
        path = tmp_path / "conj.rmx"
        write_symmetry(conjugate(2, [[2, 1], [1, 1]]), path)
        sym = load(str(path))
    else:
        sym = {"dj2": lambda: dj(2),
               "dj2q": lambda: dj(2, QConfig.fixed(Fraction(5, 3))),
               "dj3q": lambda: dj(3, QConfig.fixed(Fraction(3, 5))),
               "flip2": lambda: flip(2)}[label]()
    cfg = sym.q_config
    backend = Rat if cfg.mode == "fixed" else RatQ
    ctx = RewriteContext(sym)
    assert verify_matrix_identity(ctx, 2, "column").passed()
    wrong = shift_value(cfg, 2, "column") + cfg.one()
    ident = ProjectorIdentity(sym, 2, "column", alpha=wrong)
    rows = [[a - b for a, b in zip(lhs, rhs)]
            for (lhs,), (rhs,) in (theorem_sides(ctx, ident, [row])
                                   for row in ident.e)]
    assert any(v for row in rows for v in row)
    objects = [sym, ctx.table, ctx._rules["m"], ctx._rules["d"],
               ctx.system("m", 2), ctx.system("d", 2), ident, rows]
    leaves = list(scalar_leaves(objects))
    assert any(type(c) is backend for c in leaves)
    bad = {type(c).__name__ for c in leaves if type(c) not in (int, backend)}
    assert not bad
