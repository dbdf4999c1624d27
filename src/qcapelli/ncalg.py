"""Free noncommutative polynomials over the quantum-double generators.

Words are strings: generator m_i^j is the uppercase letter at offset
(i-1)N + (j-1) from 'A', derivative d_i^j the lowercase letter at the
same offset from 'a'.  The monomial order is shortlex on (length, string),
which sorts by total degree first and then places derivative letters
above position letters (lowercase > uppercase), row-major within a kind.

NCPoly multiplies with exact scalars on both sides, so matrices of
polynomials are plain qlinalg.QMatrix values: the generating matrices
below are QMatrix objects with NCPoly entries.

Every sparse sum of the engine goes through one first-touch accumulator,
add_term: a new word stores its coefficient as it is (no 0 + c), a word
already present adds, and a sum that cancels deletes the word, so no
zero is ever stored.  add_product accumulates a whole product a.b the
same way.  Both grow only a dict their caller created and owns; the
terms of an NCPoly never change after it is built.
"""

from __future__ import annotations

from .qlinalg import QMatrix


MAX_N = 5  # 26 letters per case bounds the alphabet
POSITION_LETTERS = "".join(chr(ord("A") + i) for i in range(MAX_N * MAX_N))


class NCError(Exception):
    pass


def m_char(i, j, N):
    return chr(ord("A") + (i - 1) * N + (j - 1))


def d_char(i, j, N):
    return chr(ord("a") + (i - 1) * N + (j - 1))


def word_key(w):
    return (len(w), w)


def add_term(terms, w, c):
    """terms[w] += c in place, for a nonzero c: a new word stores c as it
    is, and a sum that cancels deletes the word."""
    old = terms.get(w)
    if old is None:
        terms[w] = c
    else:
        c = old + c
        if c:
            terms[w] = c
        else:
            del terms[w]


def add_product(terms, a, b):
    """terms += a.b in place, for nonzero a and b, each an NCPoly or a
    scalar; a scalar factor multiplies from the left, as in NCPoly."""
    if isinstance(a, NCPoly):
        if isinstance(b, NCPoly):
            bterms = b.terms.items()
            for wa, ca in a.terms.items():
                for wb, cb in bterms:
                    add_term(terms, wa + wb, ca * cb)
        else:
            for w, c in a.terms.items():
                add_term(terms, w, b * c)
    elif isinstance(b, NCPoly):
        for w, c in b.terms.items():
            add_term(terms, w, a * c)
    else:
        add_term(terms, "", a * b)


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
                add_term(out, w, c)
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
            add_product(out, self, other)
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
