import operator
import random
from fractions import Fraction

import pytest

from qcapelli.ncalg import (
    NCError,
    NCPoly,
    add_term,
    d_char,
    gen_matrix,
    m_char,
    word_key,
)
from qcapelli.qlinalg import QMatrix, embed, partial_trace, r_trace, rows_times
from qcapelli.rcatalog import dj
from qcapelli.rewrite import (
    CompletedSystem,
    Rewriter,
    derive_exchange,
    normal_order,
    reduce,
)
from qcapelli.scalar import QConfig
from test_rewrite import apply_derivative, copy_up


def test_char_round_trip():
    # letters decode by their offset from 'A' / 'a', as the commutative
    # specialization reads them, and the two kinds never share a letter
    for N in (1, 2, 3):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                m, d = m_char(i, j, N), d_char(i, j, N)
                assert m < "a" <= d
                assert divmod(ord(m) - ord("A"), N) == (i - 1, j - 1)
                assert divmod(ord(d) - ord("a"), N) == (i - 1, j - 1)


def test_word_order_degree_first_then_d_over_m():
    # degree dominates; within a degree lowercase (derivative) letters win
    words = ["", "A", "a", "AA", "Aa", "aA", "aa", "B", "b"]
    ranked = sorted(words, key=word_key)
    assert ranked.index("") == 0
    assert ranked.index("AA") > ranked.index("b")
    assert ranked.index("a") > ranked.index("B")
    assert ranked.index("aA") > ranked.index("Aa")
    assert ranked.index("aa") == len(ranked) - 1


def test_ncpoly_ring_axioms():
    rng = random.Random(21)

    def rand_poly():
        out = NCPoly.zero()
        for _ in range(rng.randint(0, 4)):
            w = "".join(rng.choice("ABab") for _ in range(rng.randint(0, 3)))
            out = out + NCPoly.from_word(w, Fraction(rng.randint(-4, 4)))
        return out

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
    x = NCPoly.from_word("A")
    y = NCPoly.from_word("a")
    assert x * y != y * x  # letters do not commute
    assert (x * y).terms == {"Aa": 1}


def test_scalar_coefficient_interplay():
    x = NCPoly.from_word("Ab", Fraction(2))
    assert Fraction(1, 2) * x == NCPoly.from_word("Ab")
    assert (x + 3).terms.get("", 0) == 3
    assert x * Fraction(0) == NCPoly.zero()


def test_counit():
    # acting on the unit applies the counit: derivative letters die,
    # constants survive, position letters are outside the domain
    N = 2
    table = derive_exchange(dj(N, QConfig.fixed(Fraction(3, 5))))
    unit = NCPoly.from_word("")
    d = NCPoly.from_word(d_char(1, 2, N), Fraction(5))
    assert apply_derivative(d, unit, table).is_zero()
    assert apply_derivative(NCPoly.from_word("", Fraction(7, 2)) + d, unit,
                            table) == Fraction(7, 2)
    assert apply_derivative(d * d, unit, table).is_zero()
    with pytest.raises(NCError):
        apply_derivative(NCPoly.from_word(m_char(1, 1, N)), unit, table)


def test_gen_matrix_layout():
    M = gen_matrix("m", 2)
    assert M.rows[0][1].terms == {m_char(1, 2, 2): 1}
    D = gen_matrix("d", 3)
    assert D.rows[2][0].terms == {d_char(3, 1, 3): 1}
    with pytest.raises(Exception):
        gen_matrix("x", 2)


def test_matrix_products_respect_order():
    N = 2
    M = gen_matrix("m", N)
    D = gen_matrix("d", N)
    L = M * D
    # entry (1,1) is sum over s of m_1^s d_s^1
    expect = NCPoly.from_word(m_char(1, 1, N) + d_char(1, 1, N)) + \
        NCPoly.from_word(m_char(1, 2, N) + d_char(2, 1, N))
    assert L.rows[0][0] == expect


def test_scalar_matrix_products_match_embedding():
    rng = random.Random(22)
    sym = dj(2, QConfig.fixed(Fraction(3, 5)))
    M1 = embed(gen_matrix("m", 2), 1, 2)
    left = sym.R * M1
    right = M1 * sym.R
    # scalars commute with words entrywise, so (R M1)_ij words equal M1-words
    for row in left.rows:
        for v in row:
            for w in (v.terms if v else ()):
                assert len(w) == 1 and w < "a"
    assert left != right  # R and M1 do not commute as matrices


def test_copy_up_down_inverse():
    sym = dj(2)
    M1 = embed(gen_matrix("m", 2), 1, 2)
    up = copy_up(M1, sym.R, sym.R_inv, 1)
    back = embed(sym.R_inv, 1, 2) * up * embed(sym.R, 1, 2)
    assert back == M1
    assert up != M1


def test_embed_tail_and_trace_of_generators():
    sym = dj(2)
    M = gen_matrix("m", 2)
    M1 = embed(M, 1, 2)
    trace_c = r_trace(QMatrix.identity(2, 1), sym.c_matrix)
    t2 = partial_trace(M1, 2, sym.c_matrix)
    assert t2 == M.scale(trace_c)
    tr = r_trace(M1, sym.c_matrix)
    direct = r_trace(M, sym.c_matrix) * trace_c
    assert tr == direct


def _plain(x):
    return x.v if isinstance(x, Counting) else x


class Counting:
    """An exact scalar that logs each addition and product it takes part
    in as (op, left, right), with plain operands, to a shared list."""

    __slots__ = ("v", "log")

    def __init__(self, v, log):
        self.v = Fraction(v)
        self.log = log

    def _op(self, name, fn, a, b):
        self.log.append((name, a, b))
        return Counting(fn(a, b), self.log)

    def __add__(self, other):
        return self._op("add", operator.add, self.v, _plain(other))

    def __radd__(self, other):
        return self._op("add", operator.add, _plain(other), self.v)

    def __mul__(self, other):
        return self._op("mul", operator.mul, self.v, _plain(other))

    def __rmul__(self, other):
        return self._op("mul", operator.mul, _plain(other), self.v)

    def __neg__(self):
        return Counting(-self.v, self.log)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        return self.v == _plain(other)

    def __hash__(self):
        return hash(self.v)


def _ops(log, name):
    return [entry for entry in log if entry[0] == name]


def test_sums_over_distinct_words_add_nothing():
    # a word seen for the first time stores its coefficient as it is
    log = []
    a = NCPoly({"A": Counting(2, log), "B": Counting(3, log)})
    b = NCPoly({"a": Counting(5, log), "b": Counting(7, log)})
    assert (a + b).terms == {"A": 2, "B": 3, "a": 5, "b": 7}
    assert (a * b).terms == {"Aa": 10, "Ab": 14, "Ba": 15, "Bb": 21}
    block = rows_times([[a, b]], [[b, 0], [0, a]], 2)
    assert block == [[a * b, b * a]]
    assert not _ops(log, "add")
    # a scalar entry starts from its first product: one addition for two
    del log[:]
    row = rows_times([[Counting(2, log), Counting(3, log)]],
                     [[Counting(5, log)], [Counting(7, log)]], 1)
    assert row == [[31]]
    assert [op[1:] for op in _ops(log, "add")] == [(10, 21)]


def test_reduce_merges_under_an_irreducible_prefix_without_products():
    log = []
    sys_m = CompletedSystem("m", 2, {"BA": {"AB": Counting(2, log)}}, {})
    sys_d = CompletedSystem("d", 2, {"ba": {"ab": Counting(5, log)}}, {})
    table = Rewriter({})
    x = NCPoly({"Aba": Counting(3, log), "BAa": Counting(7, log)})
    out = reduce(x, sys_m, sys_d, table)
    assert out.terms == {"Aab": 15, "ABa": 14}
    products = [op[1:] for op in _ops(log, "mul")]
    assert 1 not in {f for pair in products for f in pair}
    assert sorted(products) == [(2, 7), (3, 5)]


def test_normal_order_passes_ordered_words_without_products():
    log = []
    table = derive_exchange(dj(2, QConfig.fixed("3/5")))
    x = NCPoly({w: Counting(c, log) for c, w in
                enumerate(["", "A", "b", "ABab", "Ab", "DCBAdcba"], 1)})
    assert normal_order(x, table).terms == x.terms
    assert log == []
    assert table._nf == {}
    # unordered words that differ in their position prefix look up one
    # tail
    y = NCPoly({"AbA": Counting(1, log), "BbA": Counting(2, log)})
    normal_order(y, table)
    assert [w for w, nf in table._nf.items() if nf is not None] == ["bA"]


def test_cancelling_sum_deletes_the_word():
    terms = {"A": Fraction(1)}
    add_term(terms, "A", Fraction(-1))
    assert terms == {}
    a = NCPoly({"A": Fraction(1), "B": Fraction(2)})
    assert (a + NCPoly({"A": Fraction(-1)})).terms == {"B": 2}
    # A.B and AB.1 land on one word and cancel
    x = NCPoly({"A": Fraction(1), "AB": Fraction(1)})
    y = NCPoly({"B": Fraction(1), "": Fraction(-1)})
    assert (x * y).terms == {"A": -1, "ABB": 1}
    # in a matrix product the cancelled entry is the zero polynomial
    block = rows_times([[x, -x]], [[y], [y]], 1)
    assert block[0][0].terms == {}


def test_sums_and_products_leave_their_operands_alone():
    a = NCPoly({"A": Fraction(2), "Ab": Fraction(-1)})
    b = NCPoly({"A": Fraction(-2), "b": Fraction(3)})
    operands = (a, b)
    before = [dict(p.terms) for p in operands]
    results = [a + b, b + a, a - b, a * b, b * a,
               NCPoly.zero() + a, a + NCPoly.zero()]
    results += [v for row in rows_times([[a, b], [Fraction(2), 0]],
                                        [[b, 0], [a, Fraction(1, 2)]], 2)
                for v in row if isinstance(v, NCPoly)]
    # grow every result: no operand may see it
    for r in results:
        add_term(r.terms, "Z", Fraction(1))
    assert [dict(p.terms) for p in operands] == before
    assert all(r.terms is not p.terms for r in results for p in operands)
