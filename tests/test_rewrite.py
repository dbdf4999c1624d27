import itertools
import random
from fractions import Fraction

import pytest

from qcapelli.capelli import RewriteContext, _lift
from qcapelli.ncalg import (
    NCError,
    NCPoly,
    add_term,
    d_char,
    gen_matrix,
    m_char,
    word_key,
)
from qcapelli.qlinalg import QMatrix, embed, matrix_inverse
from qcapelli.rcatalog import dj, flip
from qcapelli.rewrite import (
    BadSpecializationError,
    CapacityError,
    DegreeCapError,
    Rewriter,
    complete,
    derive_dd_rules,
    derive_exchange,
    derive_re_rules,
    exchange_round_trip_ok,
    max_degrees,
    normal_order,
    reduce,
)
from qcapelli.scalar import QConfig


def copy_up(X, R, R_inv, i):
    """Reference: conjugate by the braiding on legs (i, i+1),
    R_i X R_i^(-1)."""
    return embed(R, i, X.p) * X * embed(R_inv, i, X.p)


def matrix_copies(sym, kind, k):
    """Reference: the braided copies X_ov1 .. X_ovk on k tensor legs by
    the recursion X_ov(i+1) = R_i X_ovi R_i^(-1), one dense matrix each:
    the definition the factored copies of capelli are compared with."""
    out = [embed(gen_matrix(kind, sym.N), 1, k)]
    for i in range(1, k):
        out.append(copy_up(out[-1], sym.R, sym.R_inv, i))
    return out


def m_alphabet(N):
    return [m_char(i, j, N) for i in range(1, N + 1) for j in range(1, N + 1)]


def d_alphabet(N):
    return [d_char(i, j, N) for i in range(1, N + 1) for j in range(1, N + 1)]


def count_irreducible(system, max_len, alphabet):
    """Number of words irreducible under system of each length
    0..max_len.  Every prefix of an irreducible word is irreducible, so
    each word is grown from one, and only its suffixes can be redexes."""
    counts = [1]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w for w in (u + ch for u in frontier for ch in alphabet)
                    if not any(w[-L:] in system.rules for L in system.lengths
                               if L <= len(w))]
        counts.append(len(frontier))
    return counts


def relation_entries(braiding, x1):
    # entries of R X1 R X1 - X1 R X1 R, assembled through the matrix ops
    diff = braiding * (x1 * braiding) * x1 - x1 * braiding * x1 * braiding
    return [v for row in diff.rows for v in row if v]


def test_exchange_single_generator_rule():
    sym = dj(1)
    table = derive_exchange(sym)
    q = sym.q_config
    assert table.rules == {"aA": {"Aa": q.qpow(-2), "": q.qpow(-1)}}


def test_exchange_classical_limit_is_leibniz():
    sym = flip(2)
    table = derive_exchange(sym)
    one = Fraction(1)
    for i in range(1, 3):
        for j in range(1, 3):
            for u in range(1, 3):
                for v in range(1, 3):
                    key = d_char(i, j, 2) + m_char(u, v, 2)
                    want = {m_char(u, v, 2) + d_char(i, j, 2): one}
                    if (i, j) == (v, u):
                        want[""] = one
                    assert table.rules[key] == want


def exchange_by_inversion(sym):
    """Reference solve of the permutation relation, independent of the
    skew inverse: invert the reshuffle T[(c,f)][(x,u)] = R[(x,c)][(u,f)]
    and apply it to the right-hand side."""
    N, R = sym.N, sym.R
    m1 = embed(gen_matrix("m", N), 1, 2)
    d1 = embed(gen_matrix("d", N), 1, 2)
    rhs = (R * m1 * sym.R_inv * d1 * sym.R_inv).shifted(1)
    t = QMatrix.zeros(N, 2)
    for c, f, x, u in itertools.product(range(N), repeat=4):
        t.rows[c * N + f][x * N + u] = R.rows[x * N + c][u * N + f]
    tinv = matrix_inverse(t)
    rules = {}
    for a, e, x, u in itertools.product(range(N), repeat=4):
        poly = NCPoly.zero()
        for c, f in itertools.product(range(N), repeat=2):
            w = tinv.rows[x * N + u][c * N + f]
            if w:
                poly = poly + w * rhs.rows[a * N + c][e * N + f]
        rules[d_char(a + 1, x + 1, N) + m_char(u + 1, e + 1, N)] = poly.terms
    return rules


def test_exchange_matches_the_inversion_reference():
    # a local import: test_rcatalog imports this module at load time
    from test_rcatalog import conjugate, twist

    q35 = QConfig.fixed(Fraction(3, 5))
    for sym in (dj(2), dj(3, q35), flip(2), conjugate(2, [[2, 1], [1, 1]]),
                twist(3, Fraction(7, 3))):
        assert derive_exchange(sym).rules == exchange_by_inversion(sym)


def test_exchange_round_trip():
    for sym in (dj(2), dj(3), flip(2)):
        table = derive_exchange(sym)
        assert len(table.rules) == sym.N ** 4
        assert exchange_round_trip_ok(sym, table)


def test_position_rules_frozen_dj2():
    sym = dj(2)
    q = sym.q_config
    rules = derive_re_rules(sym).rules
    gap = q.one() - q.qpow(-2)
    expected = {
        "BA": {"AB": q.qpow(2)},
        "CA": {"AC": q.qpow(-2)},
        "CB": {"BC": q.one(), "AA": gap, "AD": -gap},
        "DA": {"AD": q.one()},
        "DB": {"BD": q.one(), "AB": gap},
        "DC": {"CD": q.one(), "AC": -(q.qpow(-2) - q.qpow(-4))},
    }
    assert set(rules) == set(expected)
    for lhs, rhs in expected.items():
        assert rules[lhs] == rhs


def test_rule_counts_match_relation_module_rank():
    for sym in (dj(2), dj(3), flip(2)):
        n2 = sym.N ** 2
        want = n2 * (n2 - 1) // 2
        assert len(derive_re_rules(sym).rules) == want
        assert len(derive_dd_rules(sym).rules) == want


@pytest.mark.parametrize("q", ["3/5", "symbolic"])
def test_degree_two_tables_are_interreduced(q):
    cfg = QConfig.symbolic() if q == "symbolic" else QConfig.fixed(q)
    sym = dj(3, cfg)
    for kind, derive, braiding in (("m", derive_re_rules, sym.R),
                                   ("d", derive_dd_rules, sym.R_inv)):
        rules = derive(sym).rules
        for lhs, rhs in rules.items():
            for w in rhs:
                assert word_key(w) < word_key(lhs)
                assert not any(other in w for other in rules)
        x1 = embed(gen_matrix(kind, 3), 1, 2)
        system = Rewriter(rules)
        for p in relation_entries(braiding, x1):
            assert system.nf_terms(p.terms) == {}


def test_completion_yields_flat_dimension_counts():
    sym = dj(2)
    cm = complete(derive_re_rules(sym), 4)
    cd = complete(derive_dd_rules(sym), 4)
    flat = [1, 4, 10, 20, 35]
    assert count_irreducible(cm, 4, m_alphabet(2)) == flat
    assert count_irreducible(cd, 4, d_alphabet(2)) == flat
    assert len(cm.rules) == 6
    assert cm.stats["input_rules"] == 6


def test_completion_flat_counts_dj3_fixed_q():
    sym = dj(3, QConfig.fixed("3/5"))
    cm = complete(derive_re_rules(sym), 3)
    cd = complete(derive_dd_rules(sym), 3)
    flat = [1, 9, 45, 165]
    assert count_irreducible(cm, 3, m_alphabet(3)) == flat
    assert count_irreducible(cd, 3, d_alphabet(3)) == flat


def test_completed_systems_kill_their_defining_relations():
    # regression: interreduction once flipped a sign and silently enlarged
    # the derivative-side ideal
    for sym in (dj(2), dj(3, QConfig.fixed("3/5"))):
        m1 = embed(gen_matrix("m", sym.N), 1, 2)
        d1 = embed(gen_matrix("d", sym.N), 1, 2)
        cm = complete(derive_re_rules(sym), 4)
        cd = complete(derive_dd_rules(sym), 4)
        for p in relation_entries(sym.R, m1):
            assert not cm.nf_terms(p.terms)
        for p in relation_entries(sym.R_inv, d1):
            assert not cd.nf_terms(p.terms)


def test_completion_is_deterministic():
    sym = dj(2)
    first = complete(derive_dd_rules(sym), 4)
    second = complete(derive_dd_rules(sym), 4)
    assert first.rules == second.rules
    assert first.stats == second.stats


def test_completion_rule_cap():
    sym = dj(2)
    with pytest.raises(CapacityError):
        complete(derive_dd_rules(sym), 4, rule_cap=3)


def rand_mixed_poly(rng, cfg, N, m_deg, d_deg, terms=4):
    ms = m_alphabet(N)
    ds = d_alphabet(N)
    out = NCPoly.zero()
    for _ in range(terms):
        word = [rng.choice(ms) for _ in range(rng.randint(0, m_deg))]
        word += [rng.choice(ds) for _ in range(rng.randint(0, d_deg))]
        rng.shuffle(word)
        coeff = cfg.from_fraction(Fraction(rng.randint(-3, 3)))
        out = out + NCPoly.from_word("".join(word), coeff)
    return out


def _accumulate(terms, w, c):
    acc = terms.get(w, 0) + c
    if acc:
        terms[w] = acc
    else:
        terms.pop(w, None)


def normal_order_by(x, table, pick):
    """Normal ordering by the exchange rules without a memo, rewriting the
    derivative-position adjacency that pick chooses among all of them."""
    todo = dict(x.terms)
    out = {}
    while todo:
        w, c = todo.popitem()
        redexes = [i for i in range(len(w) - 1) if w[i:i + 2] in table.rules]
        if not redexes:
            _accumulate(out, w, c)
            continue
        i = pick(redexes)
        for rep, coeff in table.rules[w[i:i + 2]].items():
            _accumulate(todo, w[:i] + rep + w[i + 2:], c * coeff)
    return NCPoly(out)


def test_normal_order_strategy_independence():
    sym = dj(2)
    table = derive_exchange(sym)
    rng = random.Random(77)
    cfg = sym.q_config
    for _ in range(20):
        x = rand_mixed_poly(rng, cfg, 2, 2, 2)
        x = x * cfg.q() + NCPoly.from_word("", cfg.qpow(-1))
        left = normal_order(x, table)
        right = normal_order_by(x, table, lambda redexes: redexes[-1])
        shuffled = normal_order_by(x, table,
                                   random.Random(rng.randint(0, 9999)).choice)
        assert left == right == shuffled
        for w in left.terms:
            assert all(not (w[i] >= "a" > w[i + 1]) for i in range(len(w) - 1))


@pytest.mark.parametrize("N,q", [(2, None), (3, "3/5")])
def test_normal_order_tail_path_matches_the_reference(N, q):
    sym = dj(N) if q is None else dj(N, QConfig.fixed(q))
    cfg = sym.q_config
    table = derive_exchange(sym)
    ms, ds = m_alphabet(N), d_alphabet(N)
    rng = random.Random(404 + N)
    ordered = 0
    for _ in range(25):
        terms = {}
        for _ in range(5):
            tm = [rng.choice(ms) for _ in range(rng.randint(1, 2))]
            td = [rng.choice(ds) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.5:
                ordered += 1
                tail = tm + td
            else:
                # a derivative letter first and a position letter after it
                rest = tm[1:] + td[1:]
                rng.shuffle(rest)
                tail = td[:1] + rest + tm[:1]
            prefix = "".join(rng.choice(ms) for _ in range(rng.randint(0, 3)))
            terms[prefix + "".join(tail)] = cfg.from_fraction(
                Fraction(rng.randint(1, 4)))
        x = NCPoly(terms)
        assert normal_order(x, table) == normal_order_by(
            x, table, lambda redexes: redexes[0])
    assert 25 < ordered < 100


def test_irreducible_word_is_scanned_once(monkeypatch):
    from qcapelli import rewrite

    system = complete(derive_re_rules(dj(2)), 3)
    scans = []
    find = rewrite._find_redex

    def counted(w, rules, lengths):
        scans.append(w)
        return find(w, rules, lengths)

    monkeypatch.setattr(rewrite, "_find_redex", counted)
    fresh = Rewriter(system.rules)
    words = ["".join(p) for p in itertools.product(m_alphabet(2), repeat=3)]
    irreducible = [w for w in words if fresh.nf_word(w) is None]
    assert irreducible and len(irreducible) < len(words)
    assert len(scans) == len(set(scans))
    del scans[:]
    for w in words:
        fresh.nf_word(w)
    assert scans == []


def test_reduce_is_a_projection():
    sym = dj(2)
    table = derive_exchange(sym)
    cm = complete(derive_re_rules(sym), 4)
    cd = complete(derive_dd_rules(sym), 4)
    cfg = sym.q_config
    rng = random.Random(101)
    for _ in range(15):
        x = rand_mixed_poly(rng, cfg, 2, 2, 2)
        once = reduce(x, cm, cd, table)
        twice = reduce(once, cm, cd, table)
        assert once == twice
        assert reduce(x - once, cm, cd, table).is_zero()


def test_reduce_constant_on_ideal_translates():
    sym = dj(2)
    table = derive_exchange(sym)
    cm = complete(derive_re_rules(sym), 4)
    cd = complete(derive_dd_rules(sym), 4)
    m1 = embed(gen_matrix("m", 2), 1, 2)
    d1 = embed(gen_matrix("d", 2), 1, 2)
    cfg = sym.q_config
    rng = random.Random(55)
    rel_m = relation_entries(sym.R, m1)
    rel_d = relation_entries(sym.R_inv, d1)
    for _ in range(10):
        x = rand_mixed_poly(rng, cfg, 2, 1, 1, terms=3)
        g = rng.choice(rel_m) * cfg.from_fraction(Fraction(rng.randint(1, 3)))
        h = rng.choice(rel_d)
        shifted = x + g * NCPoly.from_word(rng.choice(d_alphabet(2))) \
            + NCPoly.from_word(rng.choice(m_alphabet(2))) * h
        assert reduce(shifted, cm, cd, table) == reduce(x, cm, cd, table)


def test_reduce_respects_products():
    sym = dj(2)
    table = derive_exchange(sym)
    cm = complete(derive_re_rules(sym), 4)
    cd = complete(derive_dd_rules(sym), 4)
    cfg = sym.q_config
    rng = random.Random(31)
    for _ in range(10):
        a = rand_mixed_poly(rng, cfg, 2, 1, 1, terms=3)
        b = rand_mixed_poly(rng, cfg, 2, 1, 1, terms=3)
        direct = reduce(a * b, cm, cd, table)
        staged = reduce(reduce(a, cm, cd, table) * reduce(b, cm, cd, table),
                        cm, cd, table)
        assert direct == staged


def reduce_per_term(x, sys_m, sys_d, table):
    """Reference: reduce the position prefix and the derivative suffix of
    every normal-ordered word on its own."""
    out = {}
    for w, c in normal_order(x, table).terms.items():
        cut = next((i for i, ch in enumerate(w) if ch >= "a"), len(w))
        for wm, cm in sys_m.nf_terms({w[:cut]: 1}).items():
            for wd, cd in sys_d.nf_terms({w[cut:]: 1}).items():
                add_term(out, wm + wd, c * cm * cd)
    return NCPoly(out)


@pytest.mark.parametrize("N,q,count", [(2, None, 74), (3, "3/5", 405)])
def test_grouped_reduce_matches_the_per_term_reference(N, q, count):
    # the unreduced assembly gives large inputs; a local import, as above
    from test_capelli import unreduced_sides

    sym = dj(N) if q is None else dj(N, QConfig.fixed(q))
    ctx = RewriteContext(sym)
    sys_m, sys_d = ctx.system("m", 2), ctx.system("d", 2)
    entries = 0
    for variant in ("column", "row"):
        u, lhs, rhs = unreduced_sides(sym, 2, variant)
        for block in (lhs, rhs):
            for row in block + _lift(u, block, sym.N, 2).rows:
                for v in row:
                    if v:
                        entries += 1
                        assert reduce(v, sys_m, sys_d, ctx.table).terms == \
                            reduce_per_term(v, sys_m, sys_d, ctx.table).terms
    assert entries == count


def test_max_degrees():
    p = NCPoly.from_word("AAb") + NCPoly.from_word("aab")
    assert max_degrees(p) == (2, 3)
    assert max_degrees(NCPoly.zero()) == (0, 0)


@pytest.mark.parametrize("N,q", [(2, None), (3, "3/5")])
def test_normal_forms_do_not_depend_on_the_completion_degree(N, q):
    # homogeneous rules: the rules no longer than j, and with them the
    # normal form of a word of degree j, are the same at every cap >= j
    sym = dj(N) if q is None else dj(N, QConfig.fixed(q))
    table = derive_exchange(sym)
    rules = {"m": derive_re_rules(sym), "d": derive_dd_rules(sym)}
    systems = {d: [complete(rules[kind], d) for kind in "md"] for d in (2, 3)}
    letters = {kind: [char(i, j, N) for i in range(1, N + 1)
                      for j in range(1, N + 1)]
               for kind, char in (("m", m_char), ("d", d_char))}
    rng = random.Random(25)
    for _ in range(150):
        word = ([rng.choice(letters["m"]) for _ in range(rng.randint(0, 2))]
                + [rng.choice(letters["d"]) for _ in range(rng.randint(0, 2))])
        rng.shuffle(word)
        x = NCPoly.from_word("".join(word))
        assert reduce(x, *systems[2], table) == reduce(x, *systems[3], table)


def test_reduce_degree_cap():
    sym = dj(2)
    table = derive_exchange(sym)
    cm = complete(derive_re_rules(sym), 4)
    cd = complete(derive_dd_rules(sym), 4)
    with pytest.raises(DegreeCapError):
        reduce(NCPoly.from_word("AAAAA"), cm, cd, table)


class _CollapsedSymmetry:
    """Scalar multiple of the identity: a Hecke symmetry whose position
    relations all vanish, the degenerate picture a bad q value produces."""

    def __init__(self, q0):
        self.N = 2
        self.q_config = QConfig.fixed(q0)
        qv = self.q_config.from_fraction(Fraction(q0))
        self.R = QMatrix.identity(2, 2).scale(qv)
        self.R_inv = QMatrix.identity(2, 2).scale(self.q_config.one() / qv)

    def rebuild_at(self, probe):
        return dj(2, QConfig.fixed(probe))


def test_bad_specialization_guard():
    with pytest.raises(BadSpecializationError) as err:
        derive_re_rules(_CollapsedSymmetry(Fraction(3, 5)))
    assert "resample q" in str(err.value)


def apply_derivative(a, b, table):
    """Action of a derivative-side polynomial on a position-side one:
    permute a past b and apply the counit to the derivative remainder."""
    for w in a.terms:
        if any(ch < "a" for ch in w):
            raise NCError("left factor must be a derivative polynomial")
    for w in b.terms:
        if any(ch >= "a" for ch in w):
            raise NCError("right factor must be a position polynomial")
    ordered = normal_order(a * b, table)
    return NCPoly({w: c for w, c in ordered.terms.items()
                   if all(ch < "a" for ch in w)})


def test_derivative_action_on_second_copy_is_inverse_braiding():
    for sym in (dj(2), flip(2), dj(3, QConfig.fixed("3/5"))):
        N = sym.N
        table = derive_exchange(sym)
        d1 = embed(gen_matrix("d", N), 1, 2)
        m2 = copy_up(embed(gen_matrix("m", N), 1, 2),
                     sym.R, sym.R_inv, 1)
        dim = N * N
        for r in range(dim):
            for c in range(dim):
                acted = NCPoly.zero()
                for k in range(dim):
                    if d1.rows[r][k] and m2.rows[k][c]:
                        acted = acted + apply_derivative(
                            d1.rows[r][k], m2.rows[k][c], table)
                assert set(acted.terms) <= {""}
                assert acted.terms.get("", 0) == sym.R_inv.rows[r][c]


def test_derivative_action_classical_product_rule():
    sym = flip(2)
    table = derive_exchange(sym)
    a = NCPoly.from_word("a")
    aa = NCPoly.from_word("AA")
    acted = apply_derivative(a, aa, table)
    assert acted == NCPoly.from_word("A", Fraction(2))


def test_derivative_action_domain_checks():
    sym = dj(2)
    table = derive_exchange(sym)
    with pytest.raises(NCError):
        apply_derivative(NCPoly.from_word("A"), NCPoly.from_word("A"), table)
    with pytest.raises(NCError):
        apply_derivative(NCPoly.from_word("a"), NCPoly.from_word("b"), table)
