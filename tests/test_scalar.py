import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from qcapelli.ncalg import NCPoly
from qcapelli.scalar import (
    BackendMismatch,
    LaurentPoly,
    QConfig,
    Rat,
    RatQ,
    ScalarError,
    ScalarParseError,
    ConfigError,
    _poly_gcd,
    inv,
    is_zero,
    parse_scalar,
    scalar_to_text,
)


def reciprocal_q(p):
    """The Laurent polynomial p with q replaced by q^(-1)."""
    return LaurentPoly(-(p.offset + len(p.coeffs) - 1), reversed(p.coeffs))


def value_at(x, q0):
    """Reference: the value of a RatQ at q = q0 != 0, by evaluating its
    numerator and denominator term by term; ZeroDivisionError when q0 is
    a root of the denominator."""
    q0 = Fraction(q0)

    def laurent(p):
        return sum((c * q0 ** (p.offset + i) for i, c in enumerate(p.coeffs)),
                   Fraction(0))

    return laurent(x.num) / laurent(x.den)


def rand_fraction(rng, height=20):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_ratq(rng):
    num = LaurentPoly(rng.randint(-3, 3),
                      [rand_fraction(rng, 4) for _ in range(rng.randint(1, 4))])
    den = LaurentPoly(0, [Fraction(rng.randint(1, 3))] +
                      [rand_fraction(rng, 3) for _ in range(rng.randint(0, 3))])
    if den.is_zero():
        den = LaurentPoly.const(1)
    return RatQ(num, den)


def test_field_axioms_fixed():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert a + b == b + a
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        if not is_zero(a):
            assert a * inv(a) == 1


def test_field_axioms_symbolic():
    rng = random.Random(2)
    for _ in range(60):
        a, b, c = (rand_ratq(rng) for _ in range(3))
        assert a + b == b + a
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        if not is_zero(a):
            assert a * inv(a) == RatQ(1)


def test_canonical_form_is_unique():
    rng = random.Random(3)
    for _ in range(60):
        a = rand_ratq(rng)
        g = rand_ratq(rng)
        if is_zero(g):
            continue
        b = RatQ(a.num * g.num, a.den * g.num)  # multiply num and den by same poly
        assert a == b
        assert hash(a) == hash(b)
    # denominator is monic with nonzero constant term, lowest exponent 0
    s = RatQ(LaurentPoly.q_power(3), LaurentPoly(1, [Fraction(2), Fraction(2)]))
    assert s.den.min_exp == 0
    assert s.den.coeffs[-1] == 1
    assert s.den.coeffs[0] != 0
    z = RatQ(0)
    assert z.num.is_zero() and z.den == LaurentPoly.const(1)


def test_symbolic_ops_commute_with_evaluation():
    rng = random.Random(4)
    points = [Fraction(2), Fraction(3, 5), Fraction(7, 2)]
    for _ in range(40):
        a, b = rand_ratq(rng), rand_ratq(rng)
        for q0 in points:
            try:
                va, vb = value_at(a, q0), value_at(b, q0)
                assert value_at(a + b, q0) == va + vb
                assert value_at(a * b, q0) == va * vb
            except ZeroDivisionError:
                continue


def test_qnum_basics():
    sym = QConfig.symbolic()
    fx = QConfig.fixed(Fraction(3, 5))
    assert is_zero(sym.qnum(0))
    assert sym.qnum(1) == RatQ(1)
    assert sym.qnum(2) == parse_scalar("q + q^(-1)", sym)
    assert sym.qnum(3) == parse_scalar("q^2 + 1 + q^(-2)", sym)
    for k in range(7):
        assert value_at(sym.qnum(k), Fraction(3, 5)) == fx.qnum(k)
    # palindromic under q -> 1/q
    for k in range(1, 11):
        n = sym.qnum(k)
        assert reciprocal_q(n.num) == n.num
    # at q = 1 the q-integer is the ordinary integer
    one = QConfig.fixed(1, allow_unit=True)
    for k in range(9):
        assert one.qnum(k) == k


def test_qnum_product_identity():
    # (k)_q * (q - q^(-1)) telescopes to q^k - q^(-k)
    sym = QConfig.symbolic()
    q = sym.q()
    for k in range(1, 9):
        lhs = sym.qnum(k) * (q - q ** (-1))
        assert lhs == q ** k - q ** (-k)


def test_parser_round_trip_and_cases():
    sym = QConfig.symbolic()
    q = sym.q()
    assert parse_scalar("q - q^(-1)", sym) == q - q ** (-1)
    assert is_zero(parse_scalar("0", sym))
    assert parse_scalar("(q^2 - 1)/(q - 1)", sym) == q + 1
    assert parse_scalar("2*q^3 - 7/3", sym) == 2 * q ** 3 - RatQ(Fraction(7, 3))
    fx = QConfig.fixed(Fraction(3, 5))
    assert parse_scalar("q - q^(-1)", fx) == Fraction(3, 5) - Fraction(5, 3)
    assert parse_scalar("-q^2", fx) == -Fraction(9, 25)
    rng = random.Random(5)
    for _ in range(60):
        s = rand_ratq(rng)
        assert parse_scalar(scalar_to_text(s), sym) == s
    for _ in range(40):
        f = rand_fraction(rng)
        assert parse_scalar(scalar_to_text(f), fx) == f


def test_parser_errors_carry_position():
    sym = QConfig.symbolic()
    with pytest.raises(ScalarParseError):
        parse_scalar("q +", sym)
    with pytest.raises(ScalarParseError):
        parse_scalar("q^-1", sym)  # negative exponent must be parenthesized
    with pytest.raises(ScalarParseError):
        parse_scalar("(q", sym)
    with pytest.raises(ScalarParseError):
        parse_scalar("q q", sym)
    try:
        parse_scalar("1 + %", sym)
    except ScalarParseError as e:
        assert e.position == 4


@pytest.mark.parametrize("text, position", [
    ("q^\u00b2", 2),        # superscript two
    ("\u0663", 0),          # Arabic-Indic three
    ("2\u0663", 1),
    ("q^(-\u00b9)", 4),
])
def test_only_ascii_digits_are_digits(text, position):
    for cfg in (QConfig.symbolic(), QConfig.fixed("3/5")):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar(text, cfg)
        assert err.value.position == position


def test_pole_and_zero_division():
    sym = QConfig.symbolic()
    s = parse_scalar("1/(q - 1)", sym)
    with pytest.raises(ZeroDivisionError):
        value_at(s, 1)
    assert value_at(s, 2) == 1
    with pytest.raises(ZeroDivisionError):
        inv(RatQ(0))


@pytest.mark.parametrize("text, q, position", [
    ("1/0", "symbolic", 2),
    ("1/(q - q)", "symbolic", 2),
    ("0^(-1)", "symbolic", 0),
    ("q/(q-q)", "3/5", 2),
    ("1/0", "3/5", 2),
    ("2 + (1 - 1)^(-2)", "3/5", 4),
])
def test_division_by_zero_is_a_parse_error(text, q, position):
    cfg = QConfig.symbolic() if q == "symbolic" else QConfig.fixed(q)
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text, cfg)
    assert err.value.position == position


def test_backend_mismatch_raises():
    sym = QConfig.symbolic()
    with pytest.raises(BackendMismatch):
        Fraction(1, 2) + sym.q()
    with pytest.raises(BackendMismatch):
        sym.q() * Fraction(2)
    # plain ints are backend-neutral constants
    assert 1 + sym.q() == sym.q() + 1
    assert 1 + Fraction(1, 2) == Fraction(3, 2)


def test_qconfig_guards():
    with pytest.raises(ConfigError):
        QConfig.fixed(0)
    with pytest.raises(ConfigError):
        QConfig.fixed(1)
    with pytest.raises(ConfigError):
        QConfig.fixed(-1)
    QConfig.fixed(1, allow_unit=True)
    with pytest.raises(ConfigError):
        QConfig("symbolic", q_value=2)


def test_scalar_text_examples():
    sym = QConfig.symbolic()
    assert scalar_to_text(sym.qnum(2)) == "q + q^(-1)"
    assert scalar_to_text(RatQ(0)) == "0"
    assert scalar_to_text(Fraction(-3, 7)) == "-3/7"
    s = RatQ(1) / (sym.q() - 1)
    assert scalar_to_text(s) == "(1)/(q - 1)"


def test_hash_agrees_with_int_equality():
    assert RatQ(1) == 1
    assert len({RatQ(1), 1}) == 1
    for n in (0, 1, -1, 7, -12, 2 ** 70):
        assert RatQ(n) == n and hash(RatQ(n)) == hash(n)
        assert {n: "int"}[RatQ(n)] == "int"
    sym = QConfig.symbolic()
    assert sym.qnum(3) / sym.qnum(3) == 1
    assert hash(sym.qnum(3) / sym.qnum(3)) == hash(1)
    assert hash(sym.q() - sym.q()) == hash(0)


def test_floats_are_refused():
    with pytest.raises(ScalarError):
        LaurentPoly(0, [0.1])
    with pytest.raises(ScalarError):
        LaurentPoly.const(0.5)
    with pytest.raises(ScalarError):
        QConfig.fixed(0.1)
    with pytest.raises(ScalarError):
        RatQ(0.5)
    with pytest.raises(ScalarError):
        RatQ(LaurentPoly.q_power(1), 2.0)
    with pytest.raises(TypeError):
        LaurentPoly.q_power(1) * 0.5
    # exact inputs of the same values are fine, and integers are stored as int
    assert LaurentPoly(0, [Fraction(1, 10)]).coeffs == (Fraction(1, 10),)
    assert type(LaurentPoly(0, [Fraction(4, 2)]).coeffs[0]) is int
    assert QConfig.fixed("1/10").q_value == Fraction(1, 10)
    assert RatQ(Fraction(1, 2)) * 2 == 1


def assert_canonical(r):
    """The canonical form of a RatQ: the denominator has offset 0, is monic
    with a nonzero constant term and is coprime to the numerator; every
    coefficient is an int or a Fraction that is not an integer."""
    assert isinstance(r, RatQ)
    for p in (r.num, r.den):
        for c in p.coeffs:
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1), p
    if r.num.is_zero():
        assert r.num.offset == 0 and r.den.coeffs == (1,) and r.den.offset == 0
        return
    assert r.den.offset == 0 and r.den.coeffs[-1] == 1 and r.den.coeffs[0]
    n0 = LaurentPoly(0, r.num.coeffs)
    assert _poly_gcd(n0, r.den).coeffs == (1,)


def scalar_pool(rng):
    """Operands of every kind the arithmetic treats apart: zero, ints,
    denominator 1, one shared denominator, coprime denominators, and
    denominators with a common factor such as [2]_q and [2]_q [3]_q."""
    sym = QConfig.symbolic()
    q2, q3 = sym.qnum(2), sym.qnum(3)
    dens = [LaurentPoly.const(1), q2.num, (q2 * q3).num, q3.num,
            LaurentPoly(0, [3, 2]), LaurentPoly(0, [1, -1]),
            LaurentPoly(0, [-1, 0, 1]), LaurentPoly(0, [Fraction(1, 2), 1])]

    def num():
        coeffs = [rng.choice((rng.randint(-3, 3), rand_fraction(rng, 4)))
                  for _ in range(rng.randint(1, 4))]
        return LaurentPoly(rng.randint(-2, 2), coeffs)

    pool = [0, 1, -2, 5, RatQ(0), RatQ(3), RatQ(Fraction(-1, 2)), q2, q3,
            RatQ(1) / q2, RatQ(1) / (q2 * q3), q3 / q2]
    for den in dens:
        for _ in range(3):
            pool.append(RatQ(num(), den))
    return pool


def test_arithmetic_matches_the_general_constructor():
    rng = random.Random(19)
    pool = scalar_pool(rng)

    def parts(x):
        x = x if isinstance(x, RatQ) else RatQ(x)
        return x.num, x.den

    for x in pool:
        for y in pool:
            if not (isinstance(x, RatQ) or isinstance(y, RatQ)):
                continue
            (a, b), (c, d) = parts(x), parts(y)
            expected = [(x + y, RatQ(a * d + c * b, b * d)),
                        (x - y, RatQ(a * d - c * b, b * d)),
                        (x * y, RatQ(a * c, b * d))]
            if c.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                expected.append((x / y, RatQ(a * d, b * c)))
            for got, ref in expected:
                assert_canonical(got)
                assert got == ref and hash(got) == hash(ref)
        if isinstance(x, RatQ) and not x.is_zero():
            for n in (-3, -1, 0, 2, 3):
                got = x ** n
                assert_canonical(got)
                ref = RatQ(1)
                for _ in range(abs(n)):
                    ref = RatQ(ref.num * x.num, ref.den * x.den)
                if n < 0:
                    ref = RatQ(ref.den, ref.num)
                assert got == ref and hash(got) == hash(ref)


# --- the fixed backend's Rat ----------------------------------------------


def rat_operands(rng):
    """Each value of a pool as a Fraction and a Rat, and as an int when it
    is one: zero, units, other ints, denominator 1, equal denominators
    (x/6), coprime denominators (3/5, -5/7) and denominators that share a
    factor (2/9, 4/15, -3/10, 25/12), plus seeded random values whose
    denominators are products of small primes."""
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
              Fraction(-7), Fraction(12), Fraction(1, 6), Fraction(5, 6),
              Fraction(-7, 6), Fraction(3, 5), Fraction(-5, 7),
              Fraction(2, 9), Fraction(4, 15), Fraction(-3, 10),
              Fraction(25, 12)]
    for _ in range(8):
        den = rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 15, 35))
        values.append(Fraction(rng.randint(-40, 40), den))
    out = []
    for v in values:
        out += [v, Rat(v)]
        if v.denominator == 1:
            out.append(v.numerator)
    return out


def assert_lowest_terms(x, ref):
    assert x == ref and hash(x) == hash(ref)
    assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_rat_matches_fraction():
    rng = random.Random(26)
    pool = rat_operands(rng)
    for x in pool:
        for y in pool:
            has_rat = Rat in (type(x), type(y))
            if not has_rat:
                continue
            fx, fy = Fraction(x), Fraction(y)
            for op in BINARY_OPS:
                if op is operator.truediv and not fy:
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                    continue
                got = op(x, y)
                assert_lowest_terms(got, op(fx, fy))
                assert type(got) is Rat
        if type(x) is Rat:
            assert_lowest_terms(-x, -Fraction(x))
            assert type(-x) is Rat
            assert bool(x) is bool(Fraction(x))
            for n in (-3, -1, 0, 1, 2, 5):
                if n < 0 and not x:
                    with pytest.raises(ZeroDivisionError):
                        x ** n
                    continue
                got = x ** n
                assert_lowest_terms(got, Fraction(x) ** n)
                assert type(got) is Rat


def test_rat_times_one_is_itself():
    for a in (Rat(3, 5), Rat(-7), Rat(0), Rat(1)):
        for one in (1, Rat(1)):
            assert a * one == a and one * a == a
        assert a * 1 is a
        assert 1 * a is a


def test_rat_refuses_symbolic_scalars_and_leaves_polynomials_to_ncpoly():
    a, s = Rat(2, 3), RatQ.q_power(1)
    for op in BINARY_OPS:
        with pytest.raises(BackendMismatch):
            op(a, s)
        with pytest.raises(BackendMismatch):
            op(s, a)
    p = NCPoly.from_word("A", Rat(1, 2))
    for got in (a * p, p * a):
        assert got.terms == {"A": Fraction(1, 3)}
        assert type(got.terms["A"]) is Rat
    assert (a + p).terms == {"": a, "A": Fraction(1, 2)}
    assert (a - p).terms == {"": a, "A": Fraction(-1, 2)}


def test_fixed_scalars_come_from_qconfig_as_rat():
    cfg = QConfig.fixed(Fraction(3, 5))
    for x in (cfg.q_value, cfg.q(), cfg.zero(), cfg.one(), cfg.qpow(-2),
              cfg.from_fraction(Fraction(7, 4)), cfg.from_fraction(3),
              cfg.qnum(3), cfg.parse("(q^2 - 1)/(2*q)")):
        assert type(x) is Rat
    assert cfg.qnum(2) == Fraction(3, 5) + Fraction(5, 3)


def test_an_unknown_fraction_layout_fails_at_import():
    code = ("import fractions\n"
            "fractions.Fraction.__slots__ = ('_n', '_d')\n"
            "import qcapelli.scalar\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "ScalarError" in done.stderr and "_numerator" in done.stderr
