"""Commutative Weyl algebra oracle.

A from-scratch implementation of polynomial differential operators in the
N*N matrix variables, used to cross-check the main engine at the
classical point.  It deliberately shares no algebra with the rewrite
machinery, only the sparse accumulator ncalg.add_term: elements are
exponent-vector dictionaries over plain fractions, and products are
normal-ordered through the binomial contraction formula.

Generators: position variables m(i,j) and derivatives d(i,j), where
d(i,j) differentiates m(j,i), so the commutator [d(i,j), m(k,s)] equals
1 exactly when i = s and k = j.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .ncalg import add_term


class WeylError(Exception):
    pass


def _slot(i, j, N):
    if not (1 <= i <= N and 1 <= j <= N):
        raise WeylError("index (%d, %d) out of range for N = %d" % (i, j, N))
    return (i - 1) * N + (j - 1)


def _pair(s, N):
    # derivative slot (i, j) contracts with position slot (j, i)
    i, j = divmod(s, N)
    return j * N + i


class WeylElement:
    """Finite sum of normal-ordered monomials m^v d^u with exact
    rational coefficients; v and u are exponent tuples of length N*N."""

    __slots__ = ("N", "terms")

    def __init__(self, N, terms=None):
        self.N = N
        self.terms = terms or {}

    @classmethod
    def zero(cls, N):
        return cls(N)

    @classmethod
    def constant(cls, N, value):
        value = Fraction(value)
        blank = (0,) * (N * N)
        return cls(N, {(blank, blank): value} if value else {})

    @classmethod
    def m_gen(cls, i, j, N):
        v = [0] * (N * N)
        v[_slot(i, j, N)] = 1
        return cls(N, {(tuple(v), (0,) * (N * N)): Fraction(1)})

    @classmethod
    def d_gen(cls, i, j, N):
        u = [0] * (N * N)
        u[_slot(i, j, N)] = 1
        return cls(N, {((0,) * (N * N), tuple(u)): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, WeylElement):
            return self.N == other.N and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == WeylElement.constant(self.N, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.N, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.constant(self.N, other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.N != other.N:
            raise WeylError("mixed sizes %d and %d" % (self.N, other.N))
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return WeylElement(self.N, out)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement(self.N, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.constant(self.N, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return WeylElement.zero(self.N)
            return WeylElement(self.N,
                               {k: c * f for k, c in self.terms.items()})
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.N != other.N:
            raise WeylError("mixed sizes %d and %d" % (self.N, other.N))
        out = {}
        for (va, ua), ca in self.terms.items():
            for (vb, ub), cb in other.terms.items():
                for key, w in _contract(self.N, va, ua, vb, ub):
                    add_term(out, key, ca * cb * w)
        return WeylElement(self.N, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __repr__(self):
        return "WeylElement(N=%d, %d terms)" % (self.N, len(self.terms))


def _contract(N, va, ua, vb, ub):
    """Normal ordering of (m^va d^ua)(m^vb d^ub): every derivative slot s
    of ua contracts against position slot pair(s) of vb any number of
    times, weighted by falling-factorial counts."""
    nn = N * N
    active = [s for s in range(nn) if ua[s] and vb[_pair(s, N)]]
    ranges = [range(min(ua[s], vb[_pair(s, N)]) + 1) for s in active]
    for picks in itertools.product(*ranges):
        w = 1
        vv = list(vb)
        uu = list(ua)
        for s, t in zip(active, picks):
            if t:
                p = _pair(s, N)
                w *= comb(ua[s], t) * comb(vb[p], t) * factorial(t)
                vv[p] -= t
                uu[s] -= t
        v_out = tuple(x + y for x, y in zip(va, vv))
        u_out = tuple(x + y for x, y in zip(uu, ub))
        yield (v_out, u_out), Fraction(w)


def m_matrix(N):
    return [[WeylElement.m_gen(i, j, N) for j in range(1, N + 1)]
            for i in range(1, N + 1)]


def d_matrix(N):
    return [[WeylElement.d_gen(i, j, N) for j in range(1, N + 1)]
            for i in range(1, N + 1)]


def mat_product(A, B):
    N = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(N)),
                 WeylElement.zero(A[0][0].N)) for j in range(N)]
            for i in range(N)]


def add_diagonal(A, shifts):
    N = len(A)
    if len(shifts) != N:
        raise WeylError("need %d diagonal shifts, got %d" % (N, len(shifts)))
    out = [row[:] for row in A]
    for j in range(N):
        out[j][j] = out[j][j] + Fraction(shifts[j])
    return out


def column_determinant(A):
    """Sum over permutations of signed products taken in column order:
    the factor from column 1 first, then column 2, and so on."""
    N = len(A)
    total = WeylElement.zero(A[0][0].N)
    for perm in itertools.permutations(range(N)):
        sign = 1
        for a in range(N):
            for b in range(a + 1, N):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = WeylElement.constant(A[0][0].N, sign)
        for col in range(N):
            prod = prod * A[perm[col]][col]
        total = total + prod
    return total


def capelli_sides(N, shifts):
    """The two sides of the classical Capelli identity: the matrix
    M D + diag(shifts), whose column determinant is the left side, and
    the right side det(M) det(D)."""
    M = m_matrix(N)
    D = d_matrix(N)
    return (add_diagonal(mat_product(M, D), shifts),
            column_determinant(M) * column_determinant(D))


def capelli_residual(N, shifts):
    """column_determinant(M D + diag(shifts)) - det(M) det(D)."""
    rows, rhs = capelli_sides(N, shifts)
    return column_determinant(rows) - rhs


def capelli_check(N):
    """The factorization holds with the staircase diagonal shift
    N-1, N-2, ..., 0 and, for N >= 2, fails without it."""
    staircase = [N - j for j in range(1, N + 1)]
    with_shift = capelli_residual(N, staircase)
    report = {
        "N": N,
        "shifts": staircase,
        "holds": with_shift.is_zero(),
        "control_fails": True,
    }
    if N >= 2:
        report["control_fails"] = not capelli_residual(N, [0] * N).is_zero()
    return report
