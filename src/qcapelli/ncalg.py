"""Free noncommutative polynomials over the quantum-double generators.

Words are strings: generator m_i^j is the uppercase letter at offset
(i-1)N + (j-1) from 'A', derivative d_i^j the lowercase letter at the
same offset from 'a'.  The monomial order is shortlex on (length, string),
which sorts by total degree first and then places derivative letters
above position letters (lowercase > uppercase), row-major within a kind.

NCPoly multiplies with exact scalars on both sides, so matrices of
polynomials are plain qlinalg.QMatrix values: the generating matrices and
their braided copies below are QMatrix objects with NCPoly entries.
"""

from __future__ import annotations

from .qlinalg import QMatrix, embed


MAX_N = 5  # 26 letters per case bounds the alphabet


class NCError(Exception):
    pass


def m_char(i, j, N):
    return chr(ord("A") + (i - 1) * N + (j - 1))


def d_char(i, j, N):
    return chr(ord("a") + (i - 1) * N + (j - 1))


def word_key(w):
    return (len(w), w)


class NCPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def _raw(cls, terms):
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({word: coeff})

    @classmethod
    def zero(cls):
        return cls._raw({})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, NCPoly):
            out = dict(self.terms)
            for w, c in other.terms.items():
                acc = out.get(w, 0) + c
                if acc:
                    out[w] = acc
                else:
                    out.pop(w, None)
            return NCPoly._raw(out)
        return self + NCPoly.from_word("", other) if other else self

    __radd__ = __add__

    def __neg__(self):
        return NCPoly._raw({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, NCPoly):
            return self + (-other)
        return self + NCPoly.from_word("", -other) if other else self

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            out = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    w = wa + wb
                    acc = out.get(w, 0) + ca * cb
                    if acc:
                        out[w] = acc
                    else:
                        out.pop(w, None)
            return NCPoly._raw(out)
        if not other:
            return NCPoly.zero()
        return NCPoly._raw({w: other * c for w, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with every word
        if not other:
            return NCPoly.zero()
        return NCPoly._raw({w: other * c for w, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.terms == other.terms
        if not other:
            return not self.terms
        return self.terms == {"": other}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = ["%r: %r" % (w, c) for w, c in
                sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))[:4]]
        more = "" if len(self.terms) <= 4 else ", +%d terms" % (len(self.terms) - 4)
        return "NCPoly({%s}%s)" % (", ".join(bits), more)


def gen_matrix(kind, N):
    """Generating matrix with single-word entries: row i, column j holds
    the generator with lower index i and upper index j."""
    if N > MAX_N:
        raise NCError("N > %d exceeds the letter alphabet" % (MAX_N,))
    char = m_char if kind == "m" else d_char
    if kind not in ("m", "d"):
        raise NCError("unknown generator kind %r" % (kind,))
    rows = [[NCPoly.from_word(char(i + 1, j + 1, N)) for j in range(N)]
            for i in range(N)]
    return QMatrix(N, 1, rows)


def copy_up(X, R, R_inv, i):
    """Conjugate by the braiding on legs (i, i+1): R_i X R_i^(-1)."""
    return embed(R, i, X.p) * X * embed(R_inv, i, X.p)
