"""Exact coefficient arithmetic over the deformation parameter q.

Two interchangeable backends:

* fixed: q is a concrete rational; scalars are ``Rat``, a subclass of
  ``fractions.Fraction`` whose arithmetic skips Fraction's numeric-tower
  dispatch.  ``QConfig`` is where every fixed-backend scalar comes from.
* symbolic: scalars are rational functions of q with Laurent-polynomial
  numerators (class ``RatQ``), kept in a canonical form so equality is
  structural.

Plain ints 0 and 1 are accepted anywhere as backend-neutral constants.
Mixing a Fraction with a RatQ raises ``BackendMismatch``.  Plain
``Fraction`` remains the coefficient type of ``LaurentPoly`` and of the
Weyl oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ScalarError(Exception):
    pass


class BackendMismatch(ScalarError):
    """A fixed-backend scalar met a symbolic-backend scalar."""


class ScalarParseError(ScalarError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class ConfigError(ScalarError):
    pass


# Rat reads and writes Fraction's two slots directly
if Fraction.__slots__ != ("_numerator", "_denominator"):
    raise ScalarError(
        "fractions.Fraction has the slots %r, not the pair "
        "('_numerator', '_denominator') that Rat reads and writes"
        % (Fraction.__slots__,))


def _rat(n, d):
    # a Rat from n/d already in lowest terms with d > 0
    r = object.__new__(Rat)
    r._numerator = n
    r._denominator = d
    return r


def _sum(na, da, nb, db):
    # na/da + nb/db in lowest terms (Knuth, TAOCP 2, 4.5.1): with
    # g = gcd(da, db), only gcd(t, g) can divide the numerator t
    g = gcd(da, db)
    if g == 1:
        return _rat(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def _prod(na, da, nb, db):
    # (na/da)(nb/db) in lowest terms by cross-cancellation, for da, db > 0
    g1 = gcd(na, db)
    g2 = gcd(nb, da)
    return _rat((na // g1) * (nb // g2), (da // g2) * (db // g1))


def _parts(b):
    # (numerator, denominator) of an int or Fraction operand, else None
    tb = type(b)
    if tb is Rat or tb is Fraction:
        return b._numerator, b._denominator
    if tb is int:
        return b, 1
    return None


class Rat(Fraction):
    """The fixed-backend scalar: a Fraction whose arithmetic with an int,
    a Fraction or a Rat reads the two slots directly, cancels by Knuth's
    gcds and builds its result without Fraction's constructor.  Every
    result is a Rat in lowest terms with a positive denominator, so the
    inherited equality, hashing, comparisons and str stay valid.  Any
    other operand gets NotImplemented, so a ring element's reflected
    operator or RatQ's mismatch check takes over."""

    __slots__ = ()

    def __add__(a, b):
        tb = type(b)
        if tb is Rat or tb is Fraction:
            return _sum(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        if tb is int:
            d = a._denominator
            return _rat(a._numerator + b * d, d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        p = _parts(b)
        if p is None:
            return NotImplemented
        return _sum(a._numerator, a._denominator, -p[0], p[1])

    def __rsub__(a, b):
        p = _parts(b)
        if p is None:
            return NotImplemented
        return _sum(p[0], p[1], -a._numerator, a._denominator)

    def __mul__(a, b):
        tb = type(b)
        if tb is int:
            if b == 1:
                return a
            n, d = a._numerator, a._denominator
        elif tb is Rat or tb is Fraction:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            if db != 1:
                if da != 1:
                    return _prod(na, da, nb, db)
                if na == 1 and tb is Rat:
                    return b
                n, d, b = nb, db, na
            elif nb == 1:
                return a
            else:
                n, d, b = na, da, nb
        else:
            return NotImplemented
        # (n/d) times the int b
        g = gcd(b, d)
        if g == 1:
            return _rat(n * b, d)
        return _rat(n * (b // g), d // g)

    __rmul__ = __mul__

    def __truediv__(a, b):
        p = _parts(b)
        if p is None:
            return NotImplemented
        nb, db = p
        if not nb:
            raise ZeroDivisionError("division of %s by zero" % (a,))
        if nb < 0:
            nb, db = -nb, -db
        return _prod(a._numerator, a._denominator, db, nb)

    def __rtruediv__(a, b):
        p = _parts(b)
        if p is None:
            return NotImplemented
        na, da = a._numerator, a._denominator
        if not na:
            raise ZeroDivisionError("division of %s by zero" % (b,))
        if na < 0:
            na, da = -na, -da
        return _prod(p[0], p[1], da, na)

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __pow__(a, n):
        if type(n) is not int:
            return NotImplemented
        num, den = a._numerator, a._denominator
        if n >= 0:
            return _rat(num ** n, den ** n)
        if not num:
            raise ZeroDivisionError("zero to the negative power %d" % (n,))
        if num < 0:
            num, den = -num, -den
        return _rat(den ** -n, num ** -n)

    def __bool__(a):
        # an int numerator: no bool() call needed
        return a._numerator != 0


_RZERO = _rat(0, 1)
_RONE = _rat(1, 1)


def _coef(c):
    """c as a stored coefficient: an int, or a Fraction that is not an
    integer.  Floats are refused, since a binary float is not the rational
    number its decimal text shows."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise ScalarError("a coefficient must be an int or a Fraction, not %r"
                      % (c,))


def _quo(a, b):
    # exact quotient of two stored coefficients, never a float
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _trim(offset, coeffs):
    # strip zero coefficients from both ends, adjusting the offset, and
    # store integral Fractions as ints
    lo = 0
    hi = len(coeffs)
    while lo < hi and not coeffs[lo]:
        lo += 1
    while hi > lo and not coeffs[hi - 1]:
        hi -= 1
    if lo == hi:
        return 0, ()
    t = tuple(coeffs[lo:hi])
    if Fraction in map(type, t):
        t = tuple([c if type(c) is int or c.denominator != 1 else c.numerator
                   for c in t])
    return offset + lo, t


class LaurentPoly:
    """Laurent polynomial in q with rational coefficients.

    Stored as an exponent offset plus a dense coefficient tuple whose first
    and last entries are nonzero (the zero polynomial is offset 0, empty
    tuple).  A coefficient is an int when it is an integer and a Fraction
    otherwise, so equal polynomials are structurally equal.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset=0, coeffs=()):
        self.offset, self.coeffs = _trim(offset, [_coef(c) for c in coeffs])

    @classmethod
    def _raw(cls, offset, coeffs):
        p = object.__new__(cls)
        p.offset, p.coeffs = _trim(offset, coeffs)
        return p

    @classmethod
    def const(cls, c):
        return cls(0, (c,))

    @classmethod
    def q_power(cls, n):
        return cls._raw(n, (1,))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponent range")
        return self.offset

    @property
    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponent range")
        return self.offset + len(self.coeffs) - 1

    def shift(self, k):
        if not k or not self.coeffs:
            return self
        p = object.__new__(LaurentPoly)
        p.offset, p.coeffs = self.offset + k, self.coeffs
        return p

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        acc = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs, self.offset - lo):
            acc[i] = c
        for i, c in enumerate(other.coeffs, other.offset - lo):
            acc[i] += c
        return LaurentPoly._raw(lo, acc)

    def __neg__(self):
        return LaurentPoly._raw(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            f = _coef(other)
            if not f:
                return _LZERO
            return LaurentPoly._raw(self.offset, [c * f for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return _LZERO
        acc = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, i):
                if b:
                    acc[j] += a * b
        return LaurentPoly._raw(self.offset + other.offset, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def __repr__(self):
        return "LaurentPoly(%r)" % (_poly_text(self),)


_LZERO = LaurentPoly()
_LONE = LaurentPoly.const(1)


def _poly_divmod(a, b):
    # ordinary polynomial division; both operands must have offset >= 0
    assert b.coeffs and b.offset >= 0 and (not a.coeffs or a.offset >= 0)
    ra = [0] * (a.offset + len(a.coeffs)) if a.coeffs else []
    for i, c in enumerate(a.coeffs, a.offset):
        ra[i] = c
    rb = [0] * b.offset + list(b.coeffs)
    db = len(rb) - 1
    lead = rb[db]
    quot = [0] * max(len(ra) - db, 0)
    while len(ra) - 1 >= db and ra:
        da = len(ra) - 1
        f = ra[da] if lead == 1 else _quo(ra[da], lead)
        quot[da - db] = f
        for i in range(db + 1):
            ra[da - db + i] -= f * rb[i]
        while ra and not ra[-1]:
            ra.pop()
    return LaurentPoly._raw(0, quot), LaurentPoly._raw(0, ra)


def _poly_gcd(a, b):
    # monic gcd of two ordinary polynomials (offset >= 0), not both zero
    while b.coeffs:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lc = a.coeffs[-1]
    if lc != 1:
        a = a * _quo(1, lc)
    return a


def _den_gcd(a, d):
    """The monic gcd of a Laurent polynomial a and an ordinary polynomial d
    with nonzero constant term, or None when it is 1.  Powers of q divide
    no such d, so a is first shifted to an ordinary polynomial; a monomial
    or a constant shares no factor with d."""
    if len(a.coeffs) == 1 or len(d.coeffs) == 1:
        return None
    g = _poly_gcd(a.shift(-a.offset), d)
    return None if len(g.coeffs) == 1 else g


def _exquo(a, g):
    # a / g for a Laurent polynomial a and a divisor g of it from _den_gcd
    quot, _ = _poly_divmod(a.shift(-a.offset), g)
    return quot.shift(a.offset)


def _ratq(num, den):
    # a RatQ from parts already in canonical form
    r = object.__new__(RatQ)
    r.num, r.den = num, den
    return r


class RatQ:
    """Rational function of q in canonical form.

    The denominator is an ordinary polynomial with nonzero constant term,
    monic, and coprime to the numerator (any overall power of q is carried
    by the numerator), so two equal rational functions are structurally
    equal.  Zero is 0/1.

    The constructor reaches this form through a polynomial gcd.  The
    arithmetic keeps it with gcds only where a factor can cancel: none when
    an operand is zero or an int or both denominators are 1, one against
    the common denominator when the two are equal, and otherwise Henrici's
    cross-cancellation (Knuth, TAOCP 2, 4.5.1), whose sum is already
    canonical when gcd(b, d) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if num.is_zero():
            self.num, self.den = _LZERO, _LONE
            return
        a, b = num.min_exp, den.min_exp
        n0, d0 = num.shift(-a), den.shift(-b)
        g = _poly_gcd(n0, d0)
        if len(g.coeffs) > 1:
            n0, _ = _poly_divmod(n0, g)
            d0, _ = _poly_divmod(d0, g)
        lc = d0.coeffs[-1]
        if lc != 1:
            inv = _quo(1, lc)
            n0 = n0 * inv
            d0 = d0 * inv
        self.num = n0.shift(a - b)
        self.den = d0

    @classmethod
    def q_power(cls, n):
        return _ratq(LaurentPoly.q_power(n), _LONE)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RatQ):
            return other
        if isinstance(other, int):
            if not other:
                return _ZERO
            return _ratq(LaurentPoly._raw(0, (int(other),)), _LONE)
        if isinstance(other, Fraction):
            raise BackendMismatch(
                "cannot combine a fixed-backend Fraction with a symbolic scalar")
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c.coeffs:
            return self
        if not a.coeffs:
            return other
        if b == d:
            t = a + c
            if not t.coeffs:
                return _ZERO
            g = _den_gcd(t, b)
            if g is None:
                return _ratq(t, b)
            return _ratq(_exquo(t, g), _exquo(b, g))
        # b != d, so the canonical forms of a/b and -c/d differ and the
        # sum is nonzero
        g = _den_gcd(b, d)
        if g is None:
            return _ratq(a * d + c * b, b * d)
        b1 = _exquo(b, g)
        t = a * _exquo(d, g) + c * b1
        g2 = _den_gcd(t, g)
        if g2 is None:
            return _ratq(t, b1 * d)
        return _ratq(_exquo(t, g2), b1 * _exquo(d, g2))

    __radd__ = __add__

    def __neg__(self):
        return _ratq(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is int:
            if not other:
                return _ZERO
            return _ratq(self.num * other, self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _times(self, other)

    __rmul__ = __mul__

    def _inverse(self):
        c = self.num
        if not c.coeffs:
            raise ZeroDivisionError("division by zero scalar")
        c0, d = c.shift(-c.offset), self.den.shift(-c.offset)
        lc = c0.coeffs[-1]
        if lc != 1:
            inv = _quo(1, lc)
            c0, d = c0 * inv, d * inv
        return _ratq(d, c0)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _times(self, other._inverse())

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _times(other, self._inverse())

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        acc = _ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, RatQ):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == _LONE and self.num == LaurentPoly.const(other)
        if isinstance(other, Fraction):
            raise BackendMismatch(
                "cannot compare a fixed-backend Fraction with a symbolic scalar")
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its coefficient, so RatQ(n) and n hash alike
        n = self.num
        if len(self.den.coeffs) == 1 and not n.offset and len(n.coeffs) < 2:
            return hash(n.coeffs[0]) if n.coeffs else 0
        return hash((n, self.den))

    def __repr__(self):
        return "RatQ(%r)" % (scalar_to_text(self),)


def _times(x, y):
    # product of two canonical RatQs by Henrici's cross-cancellation:
    # (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)), g1 = gcd(a, d),
    # g2 = gcd(c, b)
    a, b, c, d = x.num, x.den, y.num, y.den
    if not a.coeffs or not c.coeffs:
        return _ZERO
    g1 = _den_gcd(a, d)
    if g1 is not None:
        a, d = _exquo(a, g1), _exquo(d, g1)
    g2 = _den_gcd(c, b)
    if g2 is not None:
        c, b = _exquo(c, g2), _exquo(b, g2)
    return _ratq(a * c, b * d)


_ZERO = _ratq(_LZERO, _LONE)
_ONE = _ratq(_LONE, _LONE)


class QConfig:
    """Chooses the scalar backend and carries the working value of q.

    Fixed mode pins q to a rational outside {0, 1, -1}; the flip symmetry
    is the one construction allowed to set allow_unit and work at q = 1.
    """

    __slots__ = ("mode", "q_value", "allow_unit")

    def __init__(self, mode, q_value=None, allow_unit=False):
        if mode not in ("fixed", "symbolic"):
            raise ConfigError("unknown scalar mode %r" % (mode,))
        if mode == "fixed":
            if q_value is None:
                raise ConfigError("fixed mode needs a rational q")
            if isinstance(q_value, float):
                raise ConfigError("fixed q must be exact, not the float %r"
                                  % (q_value,))
            q_value = Rat(q_value)
            if q_value == 0 or q_value == -1 or (q_value == 1 and not allow_unit):
                raise ConfigError("fixed q must avoid 0 and +/-1 (got %s)" % (q_value,))
        else:
            if q_value is not None:
                raise ConfigError("symbolic mode takes no q value")
        self.mode = mode
        self.q_value = q_value
        self.allow_unit = allow_unit

    @classmethod
    def fixed(cls, q, allow_unit=False):
        return cls("fixed", q, allow_unit)

    @classmethod
    def symbolic(cls):
        return cls("symbolic")

    def describe(self):
        if self.mode == "fixed":
            return "fixed(q=%s)" % (self.q_value,)
        return "symbolic"

    def zero(self):
        return _RZERO if self.mode == "fixed" else RatQ(0)

    def one(self):
        return _RONE if self.mode == "fixed" else RatQ(1)

    def q(self):
        return self.q_value if self.mode == "fixed" else RatQ.q_power(1)

    def from_fraction(self, c):
        return Rat(c) if self.mode == "fixed" else RatQ(Fraction(c))

    def qpow(self, n):
        if self.mode == "fixed":
            return self.q_value ** n
        return RatQ.q_power(n)

    def qnum(self, k):
        """The symmetric q-integer q^(k-1) + q^(k-3) + ... + q^(1-k)."""
        if k < 0:
            raise ValueError("qnum needs k >= 0")
        if self.mode == "fixed":
            acc = _RZERO
            for i in range(k):
                acc += self.q_value ** (k - 1 - 2 * i)
            return acc
        if k == 0:
            return RatQ(0)
        return RatQ(LaurentPoly(1 - k, [1 - i % 2 for i in range(2 * k - 1)]))

    def parse(self, text):
        return parse_scalar(text, self)


def inv(a):
    if is_zero(a):
        raise ZeroDivisionError("inverse of zero scalar")
    if isinstance(a, RatQ):
        return a._inverse()
    if isinstance(a, int):
        # keep +/-1 backend-neutral so mixed matrices stay pure
        return a if a in (1, -1) else Rat(1, a)
    return 1 / a


def is_zero(a):
    return not a


# --- parsing -------------------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := factor (('*' | '/') factor)*
# factor := '-' factor | atom ('^' exponent)?
# atom   := integer | 'q' | '(' expr ')'
# exponent := integer | '(' '-'? integer ')'
#
# Negative exponents must be parenthesized: q^(-1).  Digits are the ASCII
# 0-9 alone: str.isdigit also admits superscripts and other scripts' digits.


def _is_digit(ch):
    return "0" <= ch <= "9"


class _Parser:
    def __init__(self, text, cfg):
        self.text = text
        self.cfg = cfg
        self.pos = 0

    def error(self, message):
        raise ScalarParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def expr(self):
        acc = self.term()
        while True:
            if self.take("+"):
                acc = acc + self.term()
            elif self.take("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            if self.take("*"):
                acc = acc * self.factor()
            elif self.take("/"):
                self.skip_ws()
                at = self.pos
                divisor = self.factor()
                if not divisor:
                    raise ScalarParseError("division by zero", at)
                acc = acc / divisor
            else:
                return acc

    def factor(self):
        if self.take("-"):
            return -self.factor()
        self.skip_ws()
        at = self.pos
        base = self.atom()
        if self.take("^"):
            n = self.exponent()
            if n < 0 and not base:
                raise ScalarParseError("zero to a negative power", at)
            return base ** n
        return base

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return inner
        if ch == "q":
            self.pos += 1
            return self.cfg.q()
        if _is_digit(ch):
            return self.cfg.from_fraction(self.integer())
        self.error("expected a number, 'q', or '('")

    def exponent(self):
        if self.take("("):
            sign = -1 if self.take("-") else 1
            n = self.integer()
            if not self.take(")"):
                self.error("expected ')'")
            return sign * n
        return self.integer()


def parse_scalar(text, cfg):
    p = _Parser(text, cfg)
    value = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return value


def _frac_text(c):
    return str(c)


def _poly_text(p):
    if p.is_zero():
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        e = p.offset + i
        if e == 0:
            body = _frac_text(abs(c))
        else:
            head = "q" if e == 1 else ("q^%d" % e if e > 0 else "q^(%d)" % e)
            body = head if abs(c) == 1 else "%s*%s" % (_frac_text(abs(c)), head)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def scalar_to_text(s):
    """Render a scalar in the grammar accepted by parse_scalar."""
    if isinstance(s, (int, Fraction)):
        return str(Fraction(s))
    if isinstance(s, RatQ):
        if s.den == _LONE:
            return _poly_text(s.num)
        return "(%s)/(%s)" % (_poly_text(s.num), _poly_text(s.den))
    raise ScalarError("not a scalar: %r" % (s,))
