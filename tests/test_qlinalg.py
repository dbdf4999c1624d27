import random
from fractions import Fraction
from math import comb

import pytest

from qcapelli.capelli import RewriteContext
from qcapelli.ncalg import NCPoly, gen_matrix
from qcapelli.qlinalg import (
    CalibrationError,
    FactorError,
    QLinError,
    QMatrix,
    RankError,
    check_braid,
    check_hecke,
    embed,
    matrix_inverse,
    matrix_rank,
    partial_trace,
    r_trace,
    rank_factor,
    rank_of,
    skew_inverse,
    trace_weight,
)
from qcapelli.rcatalog import dj, flip
from qcapelli.scalar import QConfig, parse_scalar, scalar_to_text
from test_rcatalog import conjugate


def rand_qmatrix(rng, N, p, density=0.6):
    out = QMatrix.zeros(N, p)
    dim = N ** p
    for i in range(dim):
        for j in range(dim):
            if rng.random() < density:
                out.rows[i][j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return out


def kron(A, B):
    """A (x) B with A on the leading legs, entry by entry."""
    return QMatrix(A.N, A.p + B.p,
                   [[a * b if a and b else 0 for a in arow for b in brow]
                    for arow in A.rows for brow in B.rows])


def test_embed_is_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        A = rand_qmatrix(rng, 2, 2)
        B = rand_qmatrix(rng, 2, 2)
        for i in (1, 2):
            assert embed(A * B, i, 3) == embed(A, i, 3) * embed(B, i, 3)
        # X (x) I on the leading legs, I (x) X on the trailing ones
        assert embed(A, 1, 3) == kron(A, QMatrix.identity(2, 1))
        assert embed(A, 2, 3) == kron(QMatrix.identity(2, 1), A)
        C = rand_qmatrix(rng, 2, 1)
        assert embed(C, 1, 3) == kron(C, QMatrix.identity(2, 2))
        assert embed(C, 3, 3) == kron(QMatrix.identity(2, 2), C)
    assert embed(QMatrix.identity(2, 2), 1, 3) == QMatrix.identity(2, 3)
    for i, p in ((0, 3), (3, 3), (1, 1)):
        with pytest.raises(QLinError):
            embed(A, i, p)
    # generator-valued and mixed scalar/generator factors
    M1 = embed(gen_matrix("m", 2), 1, 2)
    D1 = embed(gen_matrix("d", 2), 1, 2)
    S = rand_qmatrix(rng, 2, 2)
    for A, B in ((M1, D1), (D1, M1), (S, M1), (M1, S), (S * D1, M1 * S)):
        for i in (1, 2):
            assert embed(A * B, i, 3) == embed(A, i, 3) * embed(B, i, 3)
    assert embed(M1, 1, 3) == kron(M1, QMatrix.identity(2, 1))
    assert embed(M1, 2, 3) == kron(QMatrix.identity(2, 1), M1)
    assert M1 * D1 != D1 * M1


def test_mixed_products_associate():
    sym = dj(2)
    X = embed(gen_matrix("m", 2), 1, 2)
    S, T = sym.R, sym.R_inv
    assert (S * X) * T == S * (X * T)
    assert not (S * X * T).is_zero()


def test_shifted_zero_diagonal_reduces():
    sym = dj(2)
    ctx = RewriteContext(sym)
    q = sym.q_config.q()
    X = gen_matrix("m", 2)
    X.rows[0][0] = 0
    Y = X.shifted(q)
    assert Y.rows[0][0] == q  # a bare scalar entry
    assert ctx.reduce_poly(Y.rows[0][0]) == NCPoly.from_word("", q)
    assert ctx.reduce_poly(Y.rows[1][1]) == X.rows[1][1] + q
    assert ctx.reduce_poly(0).is_zero()


def test_embed_disjoint_legs_commute():
    rng = random.Random(12)
    A = rand_qmatrix(rng, 2, 2)
    B = rand_qmatrix(rng, 2, 2)
    assert embed(A, 1, 4) * embed(B, 3, 4) == embed(B, 3, 4) * embed(A, 1, 4)


def test_partial_trace_factorizes_disjoint_products():
    rng = random.Random(13)
    A = rand_qmatrix(rng, 2, 1)
    B = rand_qmatrix(rng, 2, 1)
    W = rand_qmatrix(rng, 2, 1)
    # X = A on leg 1 times B on leg 2
    X = QMatrix.zeros(2, 2)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    X.rows[a * 2 + b][c * 2 + d] = A.rows[a][c] * B.rows[b][d]
    t2 = partial_trace(X, 2, W)
    scale = r_trace(B, W)
    assert t2 == A.scale(scale)
    assert r_trace(X, W) == r_trace(t2, W) == r_trace(A, W) * scale
    # one leg left is a full trace, which only r_trace takes
    with pytest.raises(QLinError):
        partial_trace(t2, 1, W)


def test_braid_and_hecke_checks():
    cfg = QConfig.symbolic()
    assert check_braid(dj(2, cfg).R)
    f = flip(3)
    assert check_braid(f.R)
    assert check_hecke(f.R, f.q_config)
    one = QMatrix(1, 2, [[QConfig.fixed(Fraction(3, 5)).qpow(1)]])
    assert check_braid(one)
    assert check_hecke(one, QConfig.fixed(Fraction(3, 5)))
    rng = random.Random(14)
    bad = rand_qmatrix(rng, 2, 2)
    assert not check_braid(bad)


def test_skew_inverse_values_and_round_trip():
    s1 = dj(1)
    assert scalar_to_text(s1.psi.rows[0][0]) == "q^(-1)"
    assert scalar_to_text(s1.c_matrix.rows[0][0]) == "q^(-1)"
    s2 = dj(2)
    cfg = s2.q_config
    psi, c_matrix = skew_inverse(s2.R, s2.antisym(2), cfg)
    assert psi == s2.psi
    expect = [[cfg.qpow(-1), 0], [0, cfg.qpow(-3)]]
    assert c_matrix.rows == expect
    assert s2.c_matrix.rows == expect
    # round trip: Tr_2(R_12 psi_23) = P_13
    N = 2
    r12 = embed(s2.R, 1, 3)
    psi23 = embed(psi, 2, 3)
    traced = partial_trace(r12 * psi23, 2, QMatrix.identity(N, 1))
    p13 = QMatrix.zeros(N, 2)
    for a in range(N):
        for b in range(N):
            p13.rows[a * N + b][b * N + a] = 1
    assert traced == p13
    f = flip(2)
    assert f.c_matrix == QMatrix.identity(2, 1)
    assert r_trace(QMatrix.identity(2, 1), f.c_matrix) == 2
    assert skew_inverse(f.R, f.antisym(2), f.q_config)[1] == f.c_matrix
    # the calibration needs A^(m): a lower level fails the normalization
    with pytest.raises(CalibrationError):
        skew_inverse(s2.R, s2.antisym(1), cfg)


def test_symmetrizer_tower_properties():
    for sym in (dj(2), flip(2), dj(3, QConfig.fixed(Fraction(3, 5)))):
        R, cfg = sym.R, sym.q_config
        for k in range(1, sym.rank + 2):
            A = sym.antisym(k)
            S = sym.ssym(k)
            assert A * A == A
            assert S * S == S
            if k > 1:
                a_prev = embed(sym.antisym(k - 1), 1, k)
                assert A == A * a_prev
                assert A == a_prev * A
                rinv = matrix_inverse(R)
                for i in range(1, k):
                    ri = embed(R, i, k)
                    rii = embed(rinv, i, k)
                    assert A * ri == A.scale(-cfg.qpow(-1))
                    assert ri * A == A.scale(-cfg.qpow(-1))
                    assert A * rii == A.scale(-cfg.qpow(1))
                    assert S * ri == S.scale(cfg.qpow(1))
                    assert ri * S == S.scale(cfg.qpow(1))
                    assert S * rii == S.scale(cfg.qpow(-1))
    with pytest.raises(QLinError):
        sym.antisym(0)
    with pytest.raises(QLinError):
        sym.ssym(0)


def test_antisymmetrizer_explicit_dj2():
    sym = dj(2)
    cfg = sym.q_config
    q = cfg.qpow(1)
    inv2 = 1 / cfg.qnum(2)
    expect = QMatrix.zeros(2, 2)
    expect.rows[1][1] = cfg.qpow(-1) * inv2
    expect.rows[1][2] = -inv2
    expect.rows[2][1] = -inv2
    expect.rows[2][2] = q * inv2
    assert sym.antisym(2) == expect


def test_trace_normalization():
    for sym in (dj(2), dj(3, QConfig.fixed(Fraction(3, 5))), flip(2), flip(3)):
        m = sym.rank
        top = sym.antisym(m)
        assert sym.r_trace(top) == sym.q_config.qpow(-m * m)


def test_r_trace_of_identity_is_trace_of_weight():
    sym = dj(2)
    C = sym.c_matrix
    val = sym.r_trace(QMatrix.identity(2, 1))
    assert val == C.rows[0][0] + C.rows[1][1]
    # Tr(X.W) = sum X[r][c] W[c][r] with W = C (x) ... (x) C
    rng = random.Random(16)
    W1 = rand_qmatrix(rng, 2, 1, density=0.9)
    for p in (1, 2, 3):
        W = trace_weight(W1, p)
        want = W1
        for _ in range(p - 1):
            want = kron(want, W1)
        assert W == want
        X = rand_qmatrix(rng, 2, p)
        assert r_trace(X, W1) == sum(X.rows[r][c] * W.rows[c][r]
                                     for r in range(X.dim)
                                     for c in range(X.dim))


def test_rank_detection():
    cfg = QConfig.fixed(Fraction(3, 5))
    for N in (1, 2, 3):
        sym = dj(N, cfg)
        rank, dims = rank_of(sym.antisym, N)
        assert rank == N == sym.rank
        assert dims[-1] == 0
        assert dims[-2] == 1
        assert dims == sym.rank_dims
    with pytest.raises(RankError):
        rank_of(dj(3, cfg).antisym, 3, cap=2)


def test_matrix_inverse_and_rank():
    rng = random.Random(15)
    for _ in range(5):
        M = rand_qmatrix(rng, 2, 2, density=0.9)
        if matrix_rank(M) < M.dim:
            continue
        assert M * matrix_inverse(M) == QMatrix.identity(2, 2)
    assert matrix_rank(QMatrix.zeros(2, 2)) == 0
    assert matrix_rank(QMatrix.identity(2, 2)) == 4
    for singular in (QMatrix.zeros(2, 2), dj(2).antisym(2)):
        with pytest.raises(QLinError):
            matrix_inverse(singular)


def test_rank_factor_gauge_and_errors():
    sym = dj(2)
    (u,), (v,) = rank_factor(sym.antisym(2))
    nz = [x for x in v if x]
    assert nz[0] == 1
    pairing = sum((a * b for a, b in zip(v, u)), sym.q_config.zero())
    assert pairing == 1
    A = sym.antisym(2)
    for i in range(4):
        for j in range(4):
            expect = u[i] * v[j] if (u[i] and v[j]) else 0
            assert A.rows[i][j] == expect
    # rank two but not idempotent: E.U = 2 I
    with pytest.raises(FactorError):
        rank_factor(QMatrix.identity(2, 1).scale(Fraction(2)))


def test_rank_one_factor_matches_hand_value():
    sym = dj(2)
    cfg = sym.q_config
    (u,), (v,) = rank_factor(sym.antisym(2))
    q = cfg.qpow(1)
    assert v == [0, cfg.one(), -q, 0]
    inv2 = 1 / cfg.qnum(2)
    assert u == [0, cfg.qpow(-1) * inv2, -inv2, 0]


def _prod(a, b, width):
    """Rows of the product of two blocks of scalar rows."""
    return [[sum((x * row[j] for x, row in zip(arow, b) if x and row[j]), 0)
             for j in range(width)] for arow in a]


@pytest.mark.parametrize("label", ["dj2", "dj3q", "flip2", "conj2"])
def test_rank_factor_of_every_projector(label):
    sym = {"dj2": lambda: dj(2),
           "dj3q": lambda: dj(3, QConfig.fixed(Fraction(3, 5))),
           "flip2": lambda: flip(2),
           "conj2": lambda: conjugate(2, [[2, 1], [1, 1]])}[label]()
    N = sym.N
    cases = [(sym.antisym(k), sym.rank_dims[k - 1])
             for k in range(1, sym.rank + 2)]
    cases += [(sym.ssym(k), comb(N + k - 1, k)) for k in (2, 3)]
    assert cases[sym.rank][1] == 0  # A^(m+1) = 0 has rank 0
    for P, rank in cases:
        u, e = rank_factor(P)
        assert len(u) == len(e) == rank == matrix_rank(P)
        urows = [[col[i] for col in u] for i in range(P.dim)]
        assert _prod(urows, e, P.dim) == P.rows
        assert _prod(e, urows, rank) == [[1 if s == t else 0
                                          for t in range(rank)]
                                         for s in range(rank)]
        assert _prod(e, P.rows, P.dim) == e
