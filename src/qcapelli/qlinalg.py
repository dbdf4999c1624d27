"""Exact dense linear algebra on tensor powers of an N-dimensional space.

A QMatrix acts on p tensor legs; its composite indices flatten the leg
tuple (i_1, ..., i_p) big-endian: r = sum (i_t - 1) N^(p-t).  Entries lie
in any ring that multiplies with exact scalars on both sides: Rat or
RatQ scalars, or free-algebra polynomials (ncalg.NCPoly), mixed freely.
The ints 0/1 are backend-neutral constants, 0 is every ring's zero and
zero tests use truthiness.  Products keep the order of their factors;
rows_times also multiplies a block of rows that is not square.
This module alone works on tensor legs: embed places any operator on
any run of consecutive legs, trace_weight builds C^(x)k from it, and
r_trace is the one full R-trace, Tr(X.C^(x)p).
The one exact elimination, echelon, needs scalar entries; the inverse,
the rank, the rank factorization P = U.E of a projector (rank_factor)
and the degree-2 rule tables of rewrite are read off it.

The q-antisymmetrizer and q-symmetrizer towers grow one level at a time
by tower_step; their holder (rcatalog.HeckeSymmetry) keeps the levels.
rank_of reads (rank, image dimensions) off such a tower and skew_inverse,
which returns (Psi, C), takes the top antisymmetrizer from its caller, so
neither builds a projector.  The skew inverse Psi comes from one
inversion of a reshuffle of R, and its calibrated partial trace is the
trace weight C.
"""

from __future__ import annotations

from .scalar import inv as scalar_inv


class QLinError(Exception):
    pass


class SkewInverseError(QLinError):
    pass


class CalibrationError(QLinError):
    pass


class RankError(QLinError):
    pass


class FactorError(QLinError):
    pass


class QMatrix:
    __slots__ = ("N", "p", "rows")

    def __init__(self, N, p, rows):
        dim = N ** p
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise QLinError("expected a %d x %d matrix" % (dim, dim))
        self.N = N
        self.p = p
        self.rows = rows

    @property
    def dim(self):
        return self.N ** self.p

    @classmethod
    def zeros(cls, N, p):
        dim = N ** p
        return cls(N, p, [[0] * dim for _ in range(dim)])

    @classmethod
    def identity(cls, N, p):
        out = cls.zeros(N, p)
        for i in range(N ** p):
            out.rows[i][i] = 1
        return out

    def __add__(self, other):
        self._compat(other)
        return QMatrix(self.N, self.p,
                       [[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._compat(other)
        return QMatrix(self.N, self.p,
                       [[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            self._compat(other)
            return QMatrix(self.N, self.p,
                           rows_times(self.rows, other.rows, self.dim))
        return self.scale(other)

    def scale(self, c):
        if not c:
            return QMatrix.zeros(self.N, self.p)
        return QMatrix(self.N, self.p,
                       [[c * v if v else 0 for v in row] for row in self.rows])

    def __neg__(self):
        return QMatrix(self.N, self.p,
                       [[-v if v else 0 for v in row] for row in self.rows])

    def shifted(self, c):
        """Add the scalar c on the diagonal."""
        rows = [list(r) for r in self.rows]
        for i in range(self.dim):
            rows[i][i] = rows[i][i] + c
        return QMatrix(self.N, self.p, rows)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.N != other.N or self.p != other.p:
            return False
        dim = self.dim
        for i in range(dim):
            ra, rb = self.rows[i], other.rows[i]
            for j in range(dim):
                if ra[j] != rb[j]:
                    return False
        return True

    def is_zero(self):
        return all(not v for row in self.rows for v in row)

    def _compat(self, other):
        if self.N != other.N or self.p != other.p:
            raise QLinError("mismatched shapes: (%d legs, N=%d) vs (%d legs, N=%d)"
                            % (self.p, self.N, other.p, other.N))

    def __repr__(self):
        return "QMatrix(N=%d, p=%d)" % (self.N, self.p)


def rows_times(rows, other, width):
    """Rows of the product of a block of rows with the matrix whose rows
    (each of length width) are other.  A scalar entry starts from its
    first product; a polynomial entry is summed in one dict of its own
    (ncalg.add_product), which no partial sum copies."""
    from .ncalg import NCPoly, add_product  # ncalg builds on this module
    out = []
    for arow in rows:
        orow = [None] * width
        for a, brow in zip(arow, other):
            if not a:
                continue
            apoly = isinstance(a, NCPoly)
            for j, b in enumerate(brow):
                if not b:
                    continue
                v = orow[j]
                if type(v) is dict:
                    add_product(v, a, b)
                elif apoly or isinstance(b, NCPoly):
                    orow[j] = acc = {"": v} if v else {}
                    add_product(acc, a, b)
                elif v is None:
                    orow[j] = a * b
                else:
                    orow[j] = v + a * b
        out.append([0 if v is None else
                    NCPoly._raw(v) if type(v) is dict else v for v in orow])
    return out


def embed(X, i, p):
    """Place X on legs i .. i + X.p - 1 of a p-leg space, with the
    identity on every other leg: I^(x)(i-1) (x) X (x) I^(x)(p-i-X.p+1)."""
    last = i + X.p - 1
    if not (1 <= i and last <= p):
        raise QLinError("legs %d..%d out of range for %d legs" % (i, last, p))
    N, dim = X.N, X.dim
    pre = N ** (i - 1)
    post = N ** (p - last)
    out = QMatrix.zeros(N, p)
    for x in range(dim):
        xrow = X.rows[x]
        for y in range(dim):
            v = xrow[y]
            if not v:
                continue
            for a in range(pre):
                base_r = (a * dim + x) * post
                base_c = (a * dim + y) * post
                for b in range(post):
                    out.rows[base_r + b][base_c + b] = v
    return out


def partial_trace(X, leg, weight):
    """Weighted partial trace over one leg of a p-leg operator, p >= 2;
    the weight is a 1-leg operator applied before tracing."""
    N, p = X.N, X.p
    if p < 2:
        raise QLinError("a partial trace needs at least two legs; "
                        "use r_trace for the full trace")
    if not (1 <= leg <= p):
        raise QLinError("leg %d out of range for %d legs" % (leg, p))
    div = N ** (p - leg)
    out = QMatrix.zeros(N, p - 1)
    dim = X.dim
    for r in range(dim):
        xrow = X.rows[r]
        s = (r // div) % N
        r2 = (r // (div * N)) * div + r % div
        for c in range(dim):
            v = xrow[c]
            if not v:
                continue
            k = (c // div) % N
            w = weight.rows[k][s]
            if not w:
                continue
            c2 = (c // (div * N)) * div + c % div
            out.rows[r2][c2] = out.rows[r2][c2] + w * v
    return out


def trace_weight(C, k):
    """C^(x)k on k legs, the product of C placed on each leg."""
    out = embed(C, 1, k)
    for leg in range(2, k + 1):
        out = out * embed(C, leg, k)
    return out


def r_trace(X, c_matrix):
    """The R-trace over every leg of X, Tr(X.W) = sum X[r][c] W[c][r] with
    the trace weight W = C^(x)X.p; a ring element."""
    w = trace_weight(c_matrix, X.p).rows
    acc = 0
    for r, xrow in enumerate(X.rows):
        for c, v in enumerate(xrow):
            if v and w[c][r]:
                acc = acc + w[c][r] * v
    return acc


def matrix_inverse(M):
    """M^(-1), read off the reduced row-echelon form [I | M^(-1)] of
    [M | I]."""
    dim = M.dim
    rows = echelon([list(r) + [1 if i == j else 0 for j in range(dim)]
                    for i, r in enumerate(M.rows)])
    if not rows[-1][dim - 1]:
        raise QLinError("matrix is singular")
    return QMatrix(M.N, M.p, [r[dim:] for r in rows])


def echelon(rows):
    """The nonzero rows of the reduced row-echelon form of the matrix with
    the given rows, by exact elimination: each row's first nonzero entry,
    its pivot, is 1, and every other row is 0 in that column."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pv = scalar_inv(work[rank][col])
        prow = [v * pv if v else 0 for v in work[rank]]
        work[rank] = prow
        for r in range(len(work)):
            f = work[r][col]
            if f and r != rank:
                work[r] = [a - f * b if b else a for a, b in zip(work[r], prow)]
        rank += 1
    return work[:rank]


def matrix_rank(M):
    return len(echelon(M.rows))


def check_braid(R):
    """R12 R23 R12 == R23 R12 R23 on three legs."""
    r12 = embed(R, 1, 3)
    r23 = embed(R, 2, 3)
    return (r12 * r23 * r12) == (r23 * r12 * r23)


def check_hecke(R, cfg):
    """(qI - R)(q^(-1) I + R) == 0."""
    ident = QMatrix.identity(R.N, 2)
    lhs = (ident.scale(cfg.qpow(1)) - R) * (ident.scale(cfg.qpow(-1)) + R)
    return lhs.is_zero()


def _flip_matrix(N):
    out = QMatrix.zeros(N, 2)
    for a in range(N):
        for b in range(N):
            out.rows[a * N + b][b * N + a] = 1
    return out


def skew_inverse(R, a_top, cfg):
    """Solve Tr_2(R_12 Psi_23) = P_13 for Psi and pick the partial trace
    of Psi that is the trace weight C: the one whose normalization
    <A^(m)> = q^(-m^2) holds on the top antisymmetrizer a_top = A^(m).
    Returns (Psi, C)."""
    N = R.N
    # reshuffle legs so the defining contraction becomes matrix inversion
    t = QMatrix.zeros(N, 2)
    for a in range(N):
        for b in range(N):
            for d in range(N):
                for y in range(N):
                    v = R.rows[a * N + b][d * N + y]
                    if v:
                        t.rows[a * N + d][y * N + b] = v
    try:
        tinv = matrix_inverse(t)
    except QLinError:
        raise SkewInverseError("braiding is not skew-invertible")
    # Psi[(y,c)][(b,f)] = T^(-1)[(y,b)][(f,c)]
    psi = QMatrix(N, 2, [[tinv.rows[y * N + b][f * N + c] or 0
                          for b in range(N) for f in range(N)]
                         for y in range(N) for c in range(N)])
    ident = QMatrix.identity(N, 1)
    if partial_trace(embed(R, 1, 3) * embed(psi, 2, 3), 2, ident) \
            != _flip_matrix(N):
        raise SkewInverseError("skew inverse failed its defining contraction")

    # Structurally the trace weight is the leg-1 trace; the normalization
    # corrects the assignment if that choice fails it.
    m = a_top.p
    target = cfg.qpow(-m * m)
    for weight in (partial_trace(psi, 1, ident), partial_trace(psi, 2, ident)):
        if r_trace(a_top, weight) == target:
            return psi, weight
    raise CalibrationError("neither partial trace satisfies the normalization")


def tower_step(R, prev, cfg, sign):
    """Level j of a projector tower from level j-1 (prev, on j-1 legs):
    pad.mid.pad / [j]_q with pad = prev on the first j-1 legs and
    mid = q^(j-1) I - [j-1]_q R_(j-1) for the q-antisymmetrizer A^(j)
    (sign -1), mid = q^(1-j) I + [j-1]_q R_(j-1) for the q-symmetrizer
    S^(j) (sign +1).  Both towers start from the identity on one leg."""
    j = prev.p + 1
    pad = embed(prev, 1, j)
    mid = QMatrix.identity(R.N, j).scale(cfg.qpow(-sign * (j - 1)))
    rj = embed(R, j - 1, j).scale(cfg.qnum(j - 1))
    mid = mid + rj if sign > 0 else mid - rj
    return (pad * mid * pad).scale(scalar_inv(cfg.qnum(j)))


def rank_of(antisym, N, cap=6):
    """Smallest m with a rank-one A^(m) and a vanishing A^(m+1), read off
    the tower antisym(k) = A^(k) on an N-dimensional space.  Returns
    (m, dims), where dims records dim Im A^(k) for k = 1 .. m+1."""
    dims = [N]
    prev = N
    for k in range(2, cap + 2):
        d = matrix_rank(antisym(k))
        dims.append(d)
        if d == 0:
            if prev != 1:
                raise RankError(
                    "antisymmetrizer tower collapses without passing rank one")
            return k - 1, dims
        prev = d
    raise RankError("rank exceeds the probe cap %d" % (cap,))


def rank_factor(P):
    """Rank factorization P = U.E of an idempotent P of rank r: E is the
    r rows of echelon(P.rows) and U the r columns of P at their pivots, so
    E.U = I_r; returned as (columns of U, rows of E), both empty at
    rank 0.  Both equations are checked (FactorError)."""
    E = echelon(P.rows)
    r = len(E)
    U = [[row[j] for row in P.rows]
         for j in (next(j for j, v in enumerate(e) if v) for e in E)]
    urows = [[u[i] for u in U] for i in range(P.dim)]
    if rows_times(urows, E, P.dim) != P.rows:
        raise FactorError("P is not U.E")
    if rows_times(E, urows, r) != [[1 if s == t else 0 for t in range(r)]
                                   for s in range(r)]:
        raise FactorError("E.U is not the identity; P is not idempotent")
    return U, E
