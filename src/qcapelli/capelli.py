"""Identity verification drivers.

Every identity is verified the same way: both sides are assembled as
matrices (or scalars) over the double's polynomial ring, exactly as
printed, and the difference is brought entrywise to canonical form.  A
verification passes when every residual is identically zero.  Negative
controls (wrong shifts, dropped diagonals) must come out nonzero, so a
pass is evidence about the algebra and not about the reducer.

Every projector identity is assembled on the row block of its projector
P = U E, one row of E at a time (see ProjectorIdentity and
theorem_sides): the factorization, its traced forms, cap1 and both
determinant forms take rows _through one factor at a time and never
multiply two matrices of polynomials.  Each braided copy is the word
B X1 B^(-1) of scalar R-legs around X1 (_copy_factors, _word), its one
construction; the identities stated on whole matrices multiply the
same words out (_product).  Entries are brought back to canonical form
after each X1 only: every rewrite subtracts an element of the ideal I,
a scalar leg maps I into I, and a scalar combination of canonical
forms is already canonical: differences, R-traces on the rows of E and
determinant forms are compared as they stand, never reduced again.
The determinant-level identities set up one ProjectorIdentity of A^(m)
at the top rank m and hand it to every helper.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from fractions import Fraction

from . import rewrite, weyl
from .ncalg import MAX_N, NCPoly, gen_matrix
from .qlinalg import QMatrix, embed, rank_factor, rows_times, trace_weight
from .rewrite import (
    DegreeCapError,
    complete,
    derive_dd_rules,
    derive_exchange,
    derive_re_rules,
    max_degrees,
    reduce,
)
from .scalar import RatQ, scalar_to_text


class VerifyError(Exception):
    pass


@dataclasses.dataclass(slots=True)
class VerificationReport:
    """Outcome of one identity check, with enough context to reproduce."""

    identity: str
    params: dict
    rmatrix: str
    q_points: list
    backend: str
    outcome: str
    residual_entries: int
    residual_sample: list
    timings_ms: dict
    details: dict

    def passed(self):
        return self.outcome == "pass"

    def to_record(self):
        return dataclasses.asdict(self)

    def __repr__(self):
        return "VerificationReport(%s, %s)" % (self.identity, self.outcome)


class RewriteContext:
    """Per-symmetry machinery: the exchange table and the two completed
    systems, built lazily and grown monotonically in degree from the
    degree-2 rule tables, which are derived once per kind.
    specialization_guard is how the rank guard ended when the rules were
    derived ("not run" until they are); reduce_s adds up the seconds
    spent in reduce_poly, completion included."""

    def __init__(self, sym, rule_cap=4000, max_degree=12):
        self.sym = sym
        self.rule_cap = rule_cap
        self.max_degree = max_degree
        self.specialization_guard = "not run"
        self.reduce_s = 0.0
        self._table = None
        self._rules = {}
        self._systems = {}

    @property
    def table(self):
        if self._table is None:
            self._table = derive_exchange(self.sym)
        return self._table

    def capped(self, degree):
        """The completion degree (at least 2) for words of the given
        degree; DegreeCapError when it exceeds the cap."""
        degree = max(degree, 2)
        if degree > self.max_degree:
            raise DegreeCapError(
                "requested completion degree %d exceeds the cap %d"
                % (degree, self.max_degree))
        return degree

    def system(self, kind, degree):
        degree = self.capped(degree)
        got = self._systems.get(kind)
        if got is None or got.degree < degree:
            rules = self._rules.get(kind)
            if rules is None:
                derive = derive_re_rules if kind == "m" else derive_dd_rules
                rules = self._rules[kind] = derive(self.sym)
                self.specialization_guard = rules.guard
            got = complete(rules, degree, rule_cap=self.rule_cap)
            self._systems[kind] = got
        return got

    def reduce_poly(self, x):
        """Canonical form of a ring element, each system completed to the
        degree of its kind's letters in x (the rules are homogeneous, so a
        word's normal form is the same at every degree from its own up);
        a bare scalar or the zero 0 is lifted to an NCPoly."""
        t = time.perf_counter()
        if not isinstance(x, NCPoly):
            x = NCPoly.from_word("", x)
        md, dd = max_degrees(x)
        out = reduce(x, self.system("m", md), self.system("d", dd),
                     self.table)
        self.reduce_s += time.perf_counter() - t
        return out

    def q_points(self):
        cfg = self.sym.q_config
        if cfg.mode == "fixed":
            return [str(cfg.q_value)]
        return ["symbolic"]

    def backend_name(self):
        return self.sym.q_config.describe()


SAMPLE_TERMS = 3
SAMPLE_ENTRIES = 5


def _sample(entry, poly):
    terms = sorted(poly.terms.items())[:SAMPLE_TERMS]
    return {"entry": list(entry),
            "terms": [[w, scalar_to_text(c)] for w, c in terms]}


def _residuals(rows):
    """(residual entries, sample) of a matrix given by its rows in
    canonical form, each entry an NCPoly or 0: its nonzero entries."""
    residuals = 0
    sample = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                residuals += 1
                if len(sample) < SAMPLE_ENTRIES:
                    sample.append(_sample((i, j), v))
    return residuals, sample


def _report(ctx, identity, params, residuals, sample, timings, details=None):
    details = dict(details or {},
                   specialization_guard=ctx.specialization_guard)
    return VerificationReport(
        identity=identity,
        params=params,
        rmatrix=ctx.sym.name,
        q_points=ctx.q_points(),
        backend=ctx.backend_name(),
        outcome="pass" if residuals == 0 else "fail",
        residual_entries=residuals,
        residual_sample=sample,
        timings_ms=timings,
        details=details,
    )


def _timings(ctx, t0, reduce0):
    """Milliseconds since the perf_counter reading t0: "reduction" is the
    time ctx spent in reduce_poly since its reduce_s read reduce0, and
    "build" the rest."""
    reduction = ctx.reduce_s - reduce0
    build = time.perf_counter() - t0 - reduction
    return {"build": round(1000 * build, 3),
            "reduction": round(1000 * reduction, 3)}


def _verify_dense(ctx, identity, params, canon, assemble):
    """The one path of the identities stated on whole dim x dim matrices:
    assemble() builds the difference of the two sides, and canon brings
    each nonzero entry to canonical form."""
    t0, r0 = time.perf_counter(), ctx.reduce_s
    diff = assemble()
    residuals, sample = _residuals([canon(v) if v else 0 for v in row]
                                   for row in diff.rows)
    return _report(ctx, identity, params, residuals, sample,
                   _timings(ctx, t0, r0))


def shift_value(cfg, i, variant):
    """Diagonal shift attached to the i-th factor (1-based; i=1 is 0)."""
    if variant == "column":
        return cfg.qpow(i - 1) * cfg.qnum(i - 1)
    if variant == "row":
        return -(cfg.qnum(i - 1) * cfg.qpow(1 - i))
    raise VerifyError("unknown variant %r" % (variant,))


def _copy_factors(sym, k):
    """The factors of the braided copies on k legs, by token.

    X_(i+1) = R_i X_i R_i^(-1) unrolls to B_i X_1 B_i^(-1) with
    B_i = R_i ... R_1 and R_j = embed(R, j, k): the token j stands for
    the scalar R-leg R_j, -j for its inverse, and the kind "m" or "d"
    for X_1, whose entries are single letters.  Each is a mostly-zero
    matrix whose zeros rows_times skips.
    """
    N = sym.N
    factors = {kind: embed(gen_matrix(kind, N), 1, k) for kind in "md"}
    for j in range(1, k):
        factors[j] = embed(sym.R, j, k)
        factors[-j] = embed(sym.R_inv, j, k)
    return factors


def _word(items):
    """The tokens (_copy_factors) of a product, in the given order, of
    braided copies (kind, i), i 1-based, and bare leg tokens j or -j,
    with every R_j^(-1) R_j and R_j R_j^(-1) that meets cancelled."""
    out = []
    for item in items:
        if type(item) is int:
            toks = (item,)
        else:
            kind, i = item
            toks = (*range(i - 1, 0, -1), kind, *range(-1, -i, -1))
        for tok in toks:
            if type(tok) is int and out and out[-1] == -tok:
                out.pop()
            else:
                out.append(tok)
    return out


def _product(factors, word):
    """The factors of a nonempty word multiplied out as one dim x dim
    matrix, for the identities stated on whole matrices."""
    out = factors[word[0]]
    for tok in word[1:]:
        out = out * factors[tok]
    return out


class ProjectorIdentity:
    """The factorization identity at chain length k, set up once.

    The identity is LHS = RHS with LHS = P X1 (X2 + s2 I) ... (Xk + sk I) P,
    X = MD and P the rank-k projector, and RHS = c P M1 ... Mk Dk ... D1
    with c = q^(k(k-1)) (column) or q^(-k(k-1)) (row).  This holds the
    rank factorization P = U E (qlinalg.rank_factor), with u the columns
    of U and e the rows of E, the trace columns w of U (_trace_columns),
    the braided copies and the shifts; alpha, when given, replaces the
    final shift.  P.side = U.(E.side) and E = E P, so P W = 0 exactly
    when E W = 0, and the rows of E are independent: lhs and rhs push
    any rows of E through one side.  alpha needs k >= 2, since at k = 1
    there is no shift to replace.
    """

    __slots__ = ("k", "proj", "u", "e", "w", "factors", "shifts", "c")

    def __init__(self, sym, k, variant="column", alpha=None):
        if variant not in ("column", "row"):
            raise VerifyError("unknown variant %r" % (variant,))
        if k < 1:
            raise VerifyError("k must be positive")
        if alpha is not None and k < 2:
            raise VerifyError("alpha replaces the final shift, and k = %d "
                              "has none" % (k,))
        cfg = sym.q_config
        self.k = k
        self.shifts = [shift_value(cfg, i, variant) for i in range(2, k + 1)]
        if alpha is not None:
            self.shifts[-1] = alpha
        self.proj = sym.antisym(k) if variant == "column" else sym.ssym(k)
        self.u, self.e = rank_factor(self.proj)
        self.w = _trace_columns(sym, self.u, k)
        self.factors = _copy_factors(sym, k)
        sign = 1 if variant == "column" else -1
        self.c = cfg.qpow(sign * k * (k - 1))

    def lhs(self, ctx, rows):
        """rows.LHS in canonical form, row.(MD + s) = (row.M).D + s row,
        with M_i D_i = B M1 D1 B^(-1) for B = R_(i-1) ... R_1."""
        block = _through(ctx, rows, self.factors, ["m", "d"])
        for i, s in enumerate(self.shifts, 2):
            moved = _through(ctx, block, self.factors,
                             _word([("m", i), ("d", i)]))
            block = [[a + s * b if b else a for a, b in zip(ra, rb)]
                     for ra, rb in zip(moved, block)]
        # a scalar combination of canonical forms is canonical
        return rows_times(block, self.proj.rows, self.proj.dim)

    def rhs(self, ctx, rows):
        """rows.RHS in canonical form."""
        k = self.k
        block = [[self.c * v if v else 0 for v in row] for row in rows]
        chain = _word([("m", i) for i in range(1, k + 1)]
                      + [("d", i) for i in range(k, 0, -1)])
        return _through(ctx, block, self.factors, chain)


def theorem_sides(ctx, ident, rows):
    """Both sides of the factorization identity (a ProjectorIdentity) for
    the given rows of E, each kept in canonical form after every factor
    with polynomial entries.

    Soundness: every rewrite subtracts an element of the two-sided ideal
    I, so nf(a) - a lies in I, and so does nf(a) X - a X for any matrix
    X of ring elements.  A scalar R-leg maps I into I and a scalar
    combination of canonical forms is canonical, so the legs need no
    reduction.  Each side therefore differs from the printed product by
    an element of I, and a zero residual of their difference proves that
    E.(LHS - RHS) lies in I, with no confluence assumption.  No
    unreduced product is ever more than one generator letter deep.
    """
    return ident.lhs(ctx, rows), ident.rhs(ctx, rows)


def _through(ctx, block, factors, word):
    """block.F1...Fn for a block of rows in canonical form and the factors
    F of a word of braided copies (_word), multiplied from the left one
    factor at a time: the one product path of every projector identity,
    so no two matrices of polynomials are multiplied.  The block is
    brought back to canonical form after each X_1, the only factor with
    polynomial entries."""
    for tok in word:
        x = factors[tok]
        block = rows_times(block, x.rows, x.dim)
        if type(tok) is str:
            block = [[ctx.reduce_poly(v) if v else 0 for v in row]
                     for row in block]
    return block


def _ket(row, col):
    """row.col for a row of ring elements and a column of scalars."""
    acc = 0
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def _trace_columns(sym, u, k):
    """The columns of W.U for the trace weight W = C^(x)k on all k legs.
    The R-trace of a projector side is Tr_R(U.B) = sum_i B_i.(W.U)_i over
    the rows B_i of its row block B, so no dim x dim matrix of
    polynomials is formed."""
    w = trace_weight(sym.c_matrix, k).rows
    return [[_ket(wrow, col) for wrow in w] for col in u]


def _lift(u, block, N, k):
    """U.block on k legs: the projector times a side, from its row block."""
    urows = [[col[i] for col in u] for i in range(N ** k)]
    return QMatrix(N, k, rows_times(urows, block, N ** k))


def verify_matrix_identity(ctx, k, variant="column", alpha=None):
    """The nonzero entries of E.(LHS - RHS), the r x dim row block of the
    factorization identity, one row of E at a time: each row goes through
    both sides, and its canonical difference is counted and dropped
    before the next row.  details["projector_rank"] is r."""
    sym = ctx.sym
    ctx.capped(k)
    t0, r0 = time.perf_counter(), ctx.reduce_s
    ident = ProjectorIdentity(sym, k, variant, alpha)

    def diff_rows():
        for row in ident.e:
            (lhs,), (rhs,) = theorem_sides(ctx, ident, [row])
            yield [a - b for a, b in zip(lhs, rhs)]

    residuals, sample = _residuals(diff_rows())
    params = {"N": sym.N, "k": k, "variant": variant}
    if alpha is not None:
        params["alpha"] = scalar_to_text(alpha)
    return _report(ctx, "th" if variant == "column" else "th-s", params,
                   residuals, sample, _timings(ctx, t0, r0),
                   {"projector_rank": len(ident.u)})


def _traced(ctx, ident, rhs=True):
    """Canonical R-trace over all k legs of P.(LHS - RHS), or of P.LHS
    without rhs: Tr_R(U.B) = sum_i B_i.(W.U)_i over the rows B_i of the
    row block, each pushed through from its row of E one at a time."""
    acc = 0
    for row, w in zip(ident.e, ident.w):
        if rhs:
            (lhs,), (r,) = theorem_sides(ctx, ident, [row])
            acc = acc + _ket(lhs, w) - _ket(r, w)
        else:
            acc = acc + _ket(ident.lhs(ctx, [row])[0], w)
    return acc


def verify_traced(ctx, k, variant="column"):
    """The canonical R-trace of P.(LHS - RHS) (_traced) against zero."""
    sym = ctx.sym
    ctx.capped(k)
    t0, r0 = time.perf_counter(), ctx.reduce_s
    ident = ProjectorIdentity(sym, k, variant)
    res = _traced(ctx, ident)
    name = "cap-as" if variant == "column" else "cap-s"
    return _report(ctx, name, {"N": sym.N, "k": k, "variant": variant},
                   1 if res else 0, [_sample(("trace",), res)] if res else [],
                   _timings(ctx, t0, r0))


def _det_row(ctx, top, kind, row):
    """row.M1...Mm (kind "m") or row.Dm...D1 (kind "d") in canonical form,
    for a row in canonical form, over the braided copies of top, the
    ProjectorIdentity of A^(m) at the top rank m."""
    m = top.k
    order = range(1, m + 1) if kind == "m" else range(m, 0, -1)
    return _through(ctx, [row], top.factors,
                    _word([(kind, i) for i in order]))[0]


def _det(ctx, top, kind):
    """det(M) (kind "m") or det(D) (kind "d") in canonical form, read off
    the one row v.M1...Mm (or v.Dm...D1) for A^(m) = u v (top, as in
    _det_row): the weighted trace Tr_R(u (x) row) q^(m^2), checked as it
    stands against the bra-ket form row.u."""
    m = top.k
    (u,), (v,), (w,) = top.u, top.e, top.w
    row = _det_row(ctx, top, kind, v)
    traced = _ket(row, w) * ctx.sym.q_config.qpow(m * m)
    gap = traced - _ket(row, u)
    if gap:
        raise VerifyError(
            "determinant forms disagree for the %s side: %d residual words"
            % (kind, len(gap.terms)))
    return traced


def _noncentral(ctx, z, kind):
    """(generator, residual) for each generator x of the given kind with
    z x - x z nonzero modulo the ideal."""
    out = []
    for row in gen_matrix(kind, ctx.sym.N).rows:
        for x in row:
            gap = ctx.reduce_poly(z * x - x * z)
            if not gap.is_zero():
                out.append((next(iter(x.terms)), gap))
    return out


def verify_determinants(ctx):
    """Form agreement of both quantum determinants, and their centrality:
    det(M) commutes with every position generator and det(D) with every
    derivative generator, modulo the ideal."""
    sym = ctx.sym
    t0, r0 = time.perf_counter(), ctx.reduce_s
    top = ProjectorIdentity(sym, sym.rank)
    try:
        dets = {kind: _det(ctx, top, kind) for kind in "md"}
    except VerifyError as e:
        return _report(ctx, "det-forms", {"N": sym.N, "m": sym.rank}, 1,
                       [{"entry": ["forms"], "terms": [[str(e), "1"]]}],
                       _timings(ctx, t0, r0))
    bad = [_sample(("central-" + kind, letter), gap)
           for kind, det in dets.items()
           for letter, gap in _noncentral(ctx, det, kind)]
    details = {"forms_agree": "pass",
               "det_m_words": len(dets["m"].terms),
               "det_d_words": len(dets["d"].terms)}
    return _report(ctx, "det-forms", {"N": sym.N, "m": sym.rank}, len(bad),
                   bad[:SAMPLE_ENTRIES], _timings(ctx, t0, r0), details)


def _cap1_sides(ctx, top):
    """Both sides of cap1 in canonical form, and det(D), for top the
    ProjectorIdentity of A^(m) at the top rank m.  The left side
    Tr_R(A^(m) L1 (L2 + s2) ... (Lm + sm)) is _traced P.LHS: C^(x)m
    commutes with A^(m), so the R-trace absorbs the trailing A^(m).  The
    right side q^(-m) det(M) det(D) is canonical as it stands: each word
    is an irreducible position word then an irreducible derivative word."""
    lhs = _traced(ctx, top, rhs=False)
    dd = _det(ctx, top, "d")
    rhs = (_det(ctx, top, "m") * dd) * ctx.sym.q_config.qpow(-top.k)
    return lhs, rhs, dd


def verify_cap1(ctx):
    """Traced factorization against the product of the two determinants,
    in the printed order; the reversed order is recorded, not asserted."""
    sym = ctx.sym
    m = sym.rank
    t0, r0 = time.perf_counter(), ctx.reduce_s
    top = ProjectorIdentity(sym, m)
    lhs, rhs, dd = _cap1_sides(ctx, top)
    # det(D) det(M) with det(M) in its bra-ket form v.M1...Mm.u, which
    # _det checked against the traced form: det(D) is folded into the
    # row v one factor at a time, and the result is canonical
    (u,), (v,) = top.u, top.e
    reversed_rhs = _ket(
        _det_row(ctx, top, "m", [dd * x if x else 0 for x in v]), u)
    res = lhs - rhs
    reversed_res = lhs - reversed_rhs * sym.q_config.qpow(-m)
    details = {"reversed_order": "fail" if reversed_res else "pass"}
    return _report(ctx, "cap1", {"N": sym.N, "m": m}, 1 if res else 0,
                   [_sample(("trace",), res)] if res else [],
                   _timings(ctx, t0, r0), details)


def verify_mre(ctx):
    """Quadratic-minus-linear relation satisfied by the composite matrix:
    R X1 R X1 - X1 R X1 R = R X1 - X1 R for X = MD."""
    sym = ctx.sym

    def assemble():
        f = _copy_factors(sym, 2)
        r = f[1]
        l1 = f["m"] * f["d"]
        rl = r * l1
        lr = l1 * r
        return rl * r * l1 - lr * l1 * r - (rl - lr)

    return _verify_dense(ctx, "mre", {"N": sym.N}, ctx.reduce_poly, assemble)


def verify_re_ideal(ctx):
    """The exchange relations carry D1 across a position relation:
    D1 y = y D1 R1^(-1) R2^(-1) R2^(-1) R1^(-1) on three legs, for the
    relation y = R2 M2 M3 - M2 M3 R2 of the copies M2 and M3.  Each entry
    of the difference is normal-ordered through the exchange table and
    reduced by neither ideal, so a zero residual proves the identity
    from the exchange relations alone; with y in the position ideal, it
    also shows that D1 y lies in that ideal."""
    sym = ctx.sym
    ctx.capped(3)
    table = ctx.table

    def assemble():
        f = _copy_factors(sym, 3)
        pair = _product(f, _word([("m", 2), ("m", 3)]))
        y = f[2] * pair - pair * f[2]
        tail = _product(f, _word([-1, -2, -2, -1]))
        return f["d"] * y - y * f["d"] * tail

    # through the module, so a wrapper bound on rewrite.normal_order sees it
    return _verify_dense(ctx, "re-ideal", {"N": sym.N},
                         lambda v: rewrite.normal_order(v, table), assemble)


def verify_h_copy(ctx, p):
    """Higher-copy form of the position relations on p+1 legs, p >= 1:
    R_p M_p M_(p+1) = M_p M_(p+1) R_p."""
    sym = ctx.sym
    if p < 1:
        raise VerifyError("h-copy needs p >= 1, got %d" % (p,))
    ctx.capped(p + 1)

    def assemble():
        f = _copy_factors(sym, p + 1)
        pair = _product(f, _word([("m", p), ("m", p + 1)]))
        return f[p] * pair - pair * f[p]

    return _verify_dense(ctx, "h-copy", {"N": sym.N, "p": p},
                         ctx.reduce_poly, assemble)


def verify_consum(ctx, k):
    """Eigenvalue absorption of the braiding by both projectors on k >= 2
    legs, at every braiding position."""
    sym = ctx.sym
    if k < 2:
        raise VerifyError("consum needs k >= 2, got %d" % (k,))
    ctx.capped(k)
    cfg = sym.q_config
    t0 = time.perf_counter()
    a = sym.antisym(k)
    s = sym.ssym(k)
    bad = []
    for i in range(1, k):
        r = embed(sym.R, i, k)
        ri = embed(sym.R_inv, i, k)
        checks = [
            ("A*R", a * r, a.scale(-(cfg.qpow(-1)))),
            ("R*A", r * a, a.scale(-(cfg.qpow(-1)))),
            ("A*Rinv", a * ri, a.scale(-(cfg.q()))),
            ("S*R", s * r, s.scale(cfg.q())),
            ("S*Rinv", s * ri, s.scale(cfg.qpow(-1))),
        ]
        for label, got, want in checks:
            if got != want:
                bad.append({"entry": [label, i], "terms": []})
    t1 = time.perf_counter()
    return _report(ctx, "consum", {"N": sym.N, "k": k}, len(bad), bad,
                   {"build": round(1000 * (t1 - t0), 3)})


def verify_exchange_general(ctx, p, k):
    """Commutation of a derivative copy across a higher composite copy:
    D_ovp L_ovk = L_ovk D_ovp C2 + D_ovp C1 with the braiding chains
    C2 = B R_p^(-1) R_p^(-1) B' and C1 = B R_p^(-1) B', where
    B = R_(k-1) ... R_(p+1) and B' = B^(-1)."""
    sym = ctx.sym
    if not 1 <= p < k:
        raise VerifyError("need 1 <= p < k")
    ctx.capped(k)

    def assemble():
        f = _copy_factors(sym, k)
        dp = _product(f, _word([("d", p)]))
        lk = _product(f, _word([("m", k), ("d", k)]))
        down = range(k - 1, p, -1)
        up = range(-p - 1, -k, -1)
        c2 = _product(f, _word([*down, -p, -p, *up]))
        c1 = _product(f, _word([*down, -p, *up]))
        return dp * lk - (lk * dp * c2 + dp * c1)

    return _verify_dense(ctx, "exchange-general",
                         {"N": sym.N, "p": p, "k": k}, ctx.reduce_poly,
                         assemble)


def _wrong_shifts(cfg, correct):
    """Three final shifts other than correct and each other: 0, 1 and q^2
    where they are distinct, else the next of correct + 1, + 2, + 3."""
    out = []
    for alpha in itertools.chain((cfg.zero(), cfg.one(), cfg.qpow(2)),
                                 (correct + i for i in (1, 2, 3))):
        if alpha != correct and alpha not in out:
            out.append(alpha)
            if len(out) == 3:
                return out


def verify_shift_scan(ctx, k):
    """Negative control: every wrong final shift (_wrong_shifts) must
    leave a residual, and the correct one must not.  k >= 2, since k = 1
    has no shift."""
    if k < 2:
        raise VerifyError("shift-scan needs k >= 2, got %d" % (k,))
    cfg = ctx.sym.q_config
    correct = shift_value(cfg, k, "column")
    t0 = time.perf_counter()
    outcomes = []
    ok = True
    for alpha in _wrong_shifts(cfg, correct):
        rep = verify_matrix_identity(ctx, k, "column", alpha=alpha)
        outcomes.append({"alpha": scalar_to_text(alpha),
                         "residuals": rep.residual_entries})
        ok = ok and not rep.passed()
    ok = ok and verify_matrix_identity(ctx, k, "column").passed()
    t1 = time.perf_counter()
    residuals = 0 if ok else 1
    return _report(ctx, "shift-scan", {"N": ctx.sym.N, "k": k}, residuals,
                   [], {"total": round(1000 * (t1 - t0), 3)},
                   {"alphas": outcomes,
                    "correct_alpha": scalar_to_text(correct)})


def verify_classical(N):
    """Independent commutative oracle for the documented column
    convention, which alone gates; the transposed (row) determinant form
    is recorded as a detail.  N must lie in 1..ncalg.MAX_N, as for the
    catalog; the oracle's cost grows factorially with N."""
    if not 1 <= N <= MAX_N:
        raise VerifyError("N must be an integer in 1..%d, got %r"
                          % (MAX_N, N))
    t0 = time.perf_counter()
    staircase = [N - j for j in range(1, N + 1)]
    report = weyl.capelli_check(N)
    rows, rhs = weyl.capelli_sides(N, staircase)
    transposed = [[rows[j][i] for j in range(N)] for i in range(N)]
    row_gap = weyl.column_determinant(transposed) - rhs
    t1 = time.perf_counter()
    residuals = 0 if (report["holds"] and report["control_fails"]) else 1
    return VerificationReport(
        identity="classical",
        params={"N": N, "shifts": staircase},
        rmatrix="weyl-oracle",
        q_points=["1"],
        backend="fraction",
        outcome="pass" if residuals == 0 else "fail",
        residual_entries=residuals,
        residual_sample=[],
        timings_ms={"total": round(1000 * (t1 - t0), 3)},
        details={"convention": "column",
                 "row_form": "pass" if row_gap.is_zero() else "fail",
                 "control_fails": report["control_fails"]},
    )


def _specialize_to_weyl(poly, N):
    """Commutative image of a normal-ordered polynomial: letter counts
    become exponent vectors.  Defined only at the classical point."""
    out = weyl.WeylElement.zero(N)
    nn = N * N
    for w, c in poly.terms.items():
        v = [0] * nn
        u = [0] * nn
        for ch in w:
            code = ord(ch)
            if ch >= "a":
                u[code - 97] += 1
            else:
                v[code - 65] += 1
        mono = weyl.WeylElement(N, {(tuple(v), tuple(u)): Fraction(1)})
        out = out + mono * Fraction(c)
    return out


def verify_classical_consistency(ctx):
    """At the classical point the engine's traced identity must agree
    with the oracle side by side after commutative specialization."""
    sym = ctx.sym
    N = sym.N
    if sym.q_config.mode != "fixed" or sym.q_config.q_value != 1:
        raise VerifyError("classical consistency requires the q = 1 point")
    t0 = time.perf_counter()
    m = sym.rank
    lhs, rhs, _ = _cap1_sides(ctx, ProjectorIdentity(sym, m))
    rows, oracle_rhs = weyl.capelli_sides(N, [N - j for j in range(1, N + 1)])
    oracle_lhs = weyl.column_determinant(rows)
    t1 = time.perf_counter()

    gap_l = _specialize_to_weyl(lhs, N) - oracle_lhs
    gap_r = _specialize_to_weyl(rhs, N) - oracle_rhs
    residuals = (0 if gap_l.is_zero() else 1) + (0 if gap_r.is_zero() else 1)
    sample = []
    if not gap_l.is_zero():
        sample.append({"entry": ["lhs-vs-oracle"],
                       "terms": [["monomials", str(len(gap_l.terms))]]})
    if not gap_r.is_zero():
        sample.append({"entry": ["rhs-vs-oracle"],
                       "terms": [["monomials", str(len(gap_r.terms))]]})
    return _report(ctx, "classical-consistency", {"N": N, "m": m},
                   residuals, sample,
                   {"total": round(1000 * (t1 - t0), 3)})


def _height_points(count):
    """Positive rationals other than 1 in increasing numerator+denominator
    order; denominators and numerators stay coprime."""
    from math import gcd
    out = []
    h = 3
    while len(out) < count:
        for num in range(1, h):
            den = h - num
            if num != den and gcd(num, den) == 1:
                out.append(Fraction(num, den))
                if len(out) == count:
                    break
        h += 1
    return out


def _ratq_exponent_interval(value):
    if isinstance(value, int):
        return (0, 0, 0, 0)
    if not isinstance(value, RatQ):
        raise VerifyError("rigor mode needs the symbolic backend")
    if value.num.is_zero():
        return (0, 0, 0, 0)
    return (value.num.min_exp, value.num.max_exp,
            value.den.min_exp, value.den.max_exp)


def rigor_bound(sym, k, variant="column", rule_cap=4000, max_degree=12):
    """Conservative q-degree bound for every residual coefficient of the
    factorization identity.

    Both sides are reduced symbolically and every normal-form coefficient
    is inspected as a ratio of Laurent polynomials.  The difference of
    two ratios a/b - c/d has numerator a*d - c*b, so the bound for a word
    is the exponent span of the union interval of both cross products.
    The residual therefore has at most bound+1 nonzero coefficients, and
    vanishing at bound+1 distinct positive points forces it to vanish
    identically.  The caps are those of RewriteContext.
    """
    if sym.q_config.mode != "symbolic":
        raise VerifyError("rigor bound requires the symbolic backend")
    ctx = RewriteContext(sym, rule_cap, max_degree)
    ctx.capped(k)
    ident = ProjectorIdentity(sym, k, variant)
    # both sides in canonical form, lifted to P.side = U.(E.side)
    lhs, rhs = (_lift(ident.u, side, sym.N, k).rows
                for side in theorem_sides(ctx, ident, ident.e))
    bound = 0
    for row_l, row_r in zip(lhs, rhs):
        for nf_l, nf_r in zip(row_l, row_r):
            terms_l = nf_l.terms if nf_l else {}
            terms_r = nf_r.terms if nf_r else {}
            for w in set(terms_l) | set(terms_r):
                ln, lx, ld_n, ld_x = _ratq_exponent_interval(
                    terms_l.get(w, 0))
                rn, rx, rd_n, rd_x = _ratq_exponent_interval(
                    terms_r.get(w, 0))
                lo = min(ln + rd_n, rn + ld_n)
                hi = max(lx + rd_x, rx + ld_x)
                bound = max(bound, hi - lo)
    return bound


def verify_rigor(sym, k, variant="column", rule_cap=4000, max_degree=12):
    """Point-evaluation proof of the factorization identity for the
    symmetry sym at symbolic q.

    The residual's coefficient span is bounded symbolically, then the
    identity is checked at bound+1 distinct positive rational points, each
    on sym.rebuild_at(point); a Laurent polynomial with that span
    vanishing at that many nonzero points is identically zero.  A fixed q
    or a symmetry with no rebuilder raises VerifyError.  The points are
    checked in order, in this process.  rule_cap and max_degree bound
    every rewrite context, as in RewriteContext.
    """
    t0 = time.perf_counter()
    # every point list starts at the same point: rebuilding it first
    # rejects a symmetry with no rebuilder before the symbolic bound
    first = sym.rebuild_at(_height_points(1)[0])
    if first is None:
        raise VerifyError("rigor mode needs a family that can be rebuilt at "
                          "fixed q; %s has no rebuilder" % (sym.name,))
    bound = rigor_bound(sym, k, variant, rule_cap, max_degree)
    points = _height_points(bound + 1)
    t1 = time.perf_counter()
    failures = []
    for i, pt in enumerate(points):
        at = sym.rebuild_at(pt) if i else first
        if not verify_matrix_identity(RewriteContext(at, rule_cap, max_degree),
                                      k, variant).passed():
            failures.append(str(pt))
    t2 = time.perf_counter()
    residuals = len(failures)
    return VerificationReport(
        identity="rigor",
        params={"N": sym.N, "k": k, "variant": variant},
        rmatrix=sym.name,
        q_points=[str(p) for p in points],
        backend="multi-point",
        outcome="pass" if residuals == 0 else "fail",
        residual_entries=residuals,
        residual_sample=[{"entry": ["q", p], "terms": []} for p in failures],
        timings_ms={"bound": round(1000 * (t1 - t0), 3),
                    "points": round(1000 * (t2 - t1), 3)},
        details={"degree_bound": bound, "points_checked": len(points)},
    )
