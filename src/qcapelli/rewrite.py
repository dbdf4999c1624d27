"""Rewriting machinery for the quantum double.

Every rewrite goes through one class, Rewriter: oriented rules
lhs -> {word: coeff} applied at the leftmost redex, with a per-word
normal-form memo.  It serves three rule tables:

* the exchange table (derive_exchange), read once per symmetry off the
  skew inverse Psi, which solves the permutation relation
  D1 R M1 = R M1 R^(-1) D1 R^(-1) + I, moves every derivative letter
  right of every position letter (normal_order);
* completion (complete) reduces each new relation and interreduces the
  rules with a fresh Rewriter over the current rules;
* the completed systems (CompletedSystem) of the position and derivative
  ideals, closed under overlap resolution up to a degree cap.

reduce is the canonical form map: normal order, then reduce the position
prefix and the derivative suffix of each word by the two systems, once
per prefix for the sum of its suffixes.  A polynomial reduces to zero
exactly when it lies in the two-sided ideal generated by the relations,
up to the tested confluence of the combined system.  Every sum here
accumulates through ncalg.add_term.
"""

from __future__ import annotations

import heapq

from .ncalg import (
    POSITION_LETTERS,
    NCPoly,
    add_term,
    d_char,
    gen_matrix,
    m_char,
    word_key,
)
from .qlinalg import echelon, embed
from .scalar import inv as scalar_inv


class RewriteError(Exception):
    pass


class BadSpecializationError(RewriteError):
    """The working q is a degeneration point of the relation module."""


class CapacityError(RewriteError):
    """A configured resource cap was exceeded."""


class DegreeCapError(RewriteError):
    """Input exceeds the degree the completed system covers."""


def _find_redex(w, rules, lengths):
    for i in range(len(w)):
        for L in lengths:
            if i + L > len(w):
                break
            if w[i:i + L] in rules:
                return i, L
    return None


class Rewriter:
    """Oriented rules lhs -> {word: coeff}, applied at the leftmost redex
    (shortest left side first), with a per-word normal-form memo.

    Leftmost reduction is a well-defined linear map even for rules that
    are not confluent.  The memo holds for the rules it was built with:
    after a rule changes, build a new Rewriter.  It keeps every word it
    has scanned: a word that reduces maps to its normal form, an
    irreducible one to None, so no word is scanned for a redex twice and
    an irreducible word costs no product.
    """

    __slots__ = ("rules", "lengths", "_nf")

    def __init__(self, rules):
        self.rules = rules
        self.lengths = sorted({len(w) for w in rules})
        self._nf = {}

    def nf_word(self, w):
        """Normal form of w as {word: coeff}, or None when w is
        irreducible.  The dict belongs to the memo: read it, never
        change it."""
        cache = self._nf
        if w in cache:
            return cache[w]
        rules, lengths = self.rules, self.lengths
        redex = _find_redex(w, rules, lengths)
        if redex is None:
            cache[w] = None
            return None
        stack = [(w, redex)]
        while stack:
            top, (i, L) = stack[-1]
            if top in cache:
                stack.pop()
                continue
            pre, suf = top[:i], top[i + L:]
            rhs = rules[top[i:i + L]]
            subs = [(pre + wr + suf, cr) for wr, cr in rhs.items()]
            missing = []
            for s, _ in subs:
                if s not in cache:
                    redex = _find_redex(s, rules, lengths)
                    if redex is None:
                        cache[s] = None
                    else:
                        missing.append((s, redex))
            if missing:
                stack.extend(missing)
                continue
            res = {}
            for s, cr in subs:
                nf = cache[s]
                if nf is None:
                    add_term(res, s, cr)
                else:
                    for w2, c2 in nf.items():
                        add_term(res, w2, cr * c2)
            cache[top] = res
            stack.pop()
        return cache[w]

    def nf_terms(self, terms):
        out = {}
        for w, c in terms.items():
            nf = self.nf_word(w)
            if nf is None:
                add_term(out, w, c)
            else:
                for w2, c2 in nf.items():
                    add_term(out, w2, c * c2)
        return out


def _permutation_relation(sym):
    """D1, R M1 and the right side R M1 R^(-1) D1 R^(-1) + I of the
    permutation relation D1 (R M1) = R M1 R^(-1) D1 R^(-1) + I on two
    legs, each built once."""
    N = sym.N
    d1 = embed(gen_matrix("d", N), 1, 2)
    rm1 = sym.R * embed(gen_matrix("m", N), 1, 2)
    return d1, rm1, (rm1 * sym.R_inv * d1 * sym.R_inv).shifted(1)


def derive_exchange(sym):
    """Solve the permutation relation for every generator pair: the
    Rewriter taking each word 'dM' to its normal-ordered form, a sum of
    'Md' words plus a constant on the empty word.

    For fixed outer indices the unknowns enter through the reshuffle of R
    whose inverse defines the skew inverse, so the table is read off the
    validated Psi of the symmetry: the coefficient of rhs[(a,c)][(e,f)] in
    the rule for d_a^x m_u^e is Psi[(f,u)][(c,x)].
    """
    N = sym.N
    psi = sym.psi
    rhs = _permutation_relation(sym)[2]

    rules = {}
    for a in range(N):
        for e in range(N):
            for x in range(N):
                for u in range(N):
                    poly = NCPoly.zero()
                    for c in range(N):
                        for f in range(N):
                            w = psi.rows[f * N + u][c * N + x]
                            if w:
                                poly = poly + w * rhs.rows[a * N + c][e * N + f]
                    for word in poly.terms:
                        if word and not (len(word) == 2
                                         and word[0] < "a" <= word[1]):
                            raise RewriteError(
                                "exchange solution has an impossible word %r"
                                % (word,))
                    key = d_char(a + 1, x + 1, N) + m_char(u + 1, e + 1, N)
                    rules[key] = poly.terms
    return Rewriter(rules)


def exchange_round_trip_ok(sym, table):
    """Rebuild both sides of the permutation relation through the table."""
    d1, rm1, rhs = _permutation_relation(sym)
    for lrow, rrow in zip((d1 * rm1).rows, rhs.rows):
        for v, want in zip(lrow, rrow):
            if (normal_order(v, table) if v else 0) != want:
                return False
    return True


def normal_order(x, table):
    """Eliminate every derivative-before-position adjacency by the
    exchange table.  Terminates because each swap lowers (length,
    inversion count); the result does not depend on which adjacency is
    rewritten first (tested, not assumed).

    Position letters start no exchange redex, so a word p.t whose prefix
    p holds only position letters has the normal form p.nf(t): a word
    that is already ordered (M*d*) passes as it is, and only the tail t
    of any other word is looked up, so words that differ in their
    position prefix share one memo entry."""
    out = {}
    nf_word = table.nf_word
    for w, c in x.terms.items():
        t = w.lstrip(POSITION_LETTERS)
        nf = None if not t or t.islower() else nf_word(t)
        if nf is None:
            add_term(out, w, c)
            continue
        p = w[:len(w) - len(t)]
        for w2, c2 in nf.items():
            add_term(out, p + w2, c * c2)
    return NCPoly._raw(out)


class RuleSet:
    """Oriented homogeneous rules over a single letter kind, with how the
    specialization guard ended: "checked", "skipped: no rebuilder" or
    "not applicable" (symbolic q, or q = 1)."""

    __slots__ = ("kind", "rules", "guard")

    def __init__(self, kind, rules, guard="not applicable"):
        if kind not in ("m", "d"):
            raise RewriteError("rule kind must be 'm' or 'd'")
        for lhs, rhs in rules.items():
            for w in rhs:
                if len(w) != len(lhs):
                    raise RewriteError("rule %r is not homogeneous" % (lhs,))
                if word_key(w) >= word_key(lhs):
                    raise RewriteError("rule %r is not order-decreasing" % (lhs,))
        self.kind = kind
        self.rules = rules
        self.guard = guard


def _orient(terms):
    """Orient the nonzero combination terms (consumed) as the rule
    lead -> rhs that sets it to zero, lead being its largest word."""
    lead = max(terms, key=word_key)
    piv = scalar_inv(terms.pop(lead))
    return lead, {w: -c * piv for w, c in terms.items()}


def _relation_rows(braiding, x1):
    """The entries of R X1 R X1 - X1 R X1 R as coefficient rows over their
    words, which are sorted largest first: a row's first nonzero entry is
    its leading word.  Returns (words, rows)."""
    diff = braiding * (x1 * braiding) * x1 - x1 * braiding * x1 * braiding
    polys = [v.terms for row in diff.rows for v in row if v]
    words = sorted({w for p in polys for w in p}, key=word_key, reverse=True)
    return words, [[p.get(w, 0) for w in words] for p in polys]


def _derive_rules(sym, kind):
    """The degree-2 rule table, read off the reduced row-echelon form of
    the relation rows: each row's pivot word rewrites to minus the rest of
    its row (_orient's orientation).  No pivot word occurs in another row,
    so the table is interreduced."""
    N = sym.N
    x1 = embed(gen_matrix(kind, N), 1, 2)
    braiding = sym.R if kind == "m" else sym.R_inv
    words, rows = _relation_rows(braiding, x1)
    rules = {}
    for row in echelon(rows):
        piv = next(j for j, v in enumerate(row) if v)
        rules[words[piv]] = {words[j]: -v for j, v in enumerate(row)
                             if v and j != piv}
    cfg = sym.q_config
    if cfg.mode != "fixed" or cfg.allow_unit:
        return RuleSet(kind, rules)
    # the relation rank at the working q must not drop below the rank at
    # a nearby probe of the same family
    base_count = len(rules)
    q0 = cfg.q_value
    probes = [q0 + s for s in (1, 2, 3, 4) if q0 + s not in (0, 1, -1)][:2]
    for probe in probes:
        alt = sym.rebuild_at(probe)
        if alt is None:
            return RuleSet(kind, rules, "skipped: no rebuilder")
        alt_braiding = alt.R if kind == "m" else alt.R_inv
        alt_count = len(echelon(_relation_rows(alt_braiding, x1)[1]))
        if base_count < alt_count:
            raise BadSpecializationError(
                "bad specialization at q = %s: relation rank %d drops "
                "below the rank %d seen at q = %s; resample q"
                % (q0, base_count, alt_count, probe))
        if base_count == alt_count:
            break
    return RuleSet(kind, rules, "checked")


def derive_re_rules(sym):
    """Oriented rules for the position-side defining ideal."""
    return _derive_rules(sym, "m")


def derive_dd_rules(sym):
    """Oriented rules for the derivative-side defining ideal; the inverse
    braiding plays the role of R there."""
    return _derive_rules(sym, "d")


class CompletedSystem(Rewriter):
    """Rule system closed under overlap resolution up to a degree cap."""

    __slots__ = ("kind", "degree", "stats")

    def __init__(self, kind, degree, rules, stats):
        super().__init__(rules)
        self.kind = kind
        self.degree = degree
        self.stats = stats


def _spoly(rules, w, u, v, offset):
    """Difference of the two reductions of the ambiguity word w, where w
    starts with u and contains v at the given offset."""
    suf = w[len(u):]
    left = {wr + suf: cr for wr, cr in rules[u].items()}
    pre, post = w[:offset], w[offset + len(v):]
    for wr, cr in rules[v].items():
        add_term(left, pre + wr + post, -cr)
    return left


def _overlap_words(u, v, degree):
    """Ambiguity words for the ordered rule pair (u, v): proper
    suffix-prefix overlaps and full containments, within the degree cap."""
    out = []
    for k in range(1, min(len(u), len(v))):
        if len(u) + len(v) - k <= degree and u[len(u) - k:] == v[:k]:
            out.append((u + v[k:], len(u) - k))
    if len(v) < len(u):
        start = 0
        while True:
            at = u.find(v, start)
            if at < 0:
                break
            out.append((u, at))
            start = at + 1
    return out


def complete(ruleset, degree, rule_cap=4000):
    """Knuth-Bendix style completion truncated at the degree cap.

    Every unresolved overlap whose ambiguity word fits inside the cap is
    reduced both ways; nonzero differences become new rules, existing
    rules are interreduced against them, and the loop runs to exhaustion.
    """
    rules = {}
    agenda = [dict({lhs: 1}, **{w: -c for w, c in rhs.items()})
              for lhs, rhs in ruleset.rules.items()]
    heap = []
    seen_pairs = set()
    stats = {"input_rules": len(ruleset.rules), "spolys": 0, "added": 0}

    def enqueue_pairs(lhs):
        for other in list(rules):
            for a, b in ((lhs, other), (other, lhs)):
                for w, offset in _overlap_words(a, b, degree):
                    key = (w, a, b, offset)
                    if key not in seen_pairs:
                        seen_pairs.add(key)
                        heapq.heappush(heap, (word_key(w), w, a, b, offset))

    def absorb(poly):
        nf = Rewriter(rules).nf_terms(poly)
        if not nf:
            return
        lead, rhs = _orient(nf)
        # retire rules whose left side the new rule now reduces
        stale = [other for other in rules if other != lead and lead in other]
        rules[lead] = rhs
        stats["added"] += 1
        if len(rules) > rule_cap:
            raise CapacityError(
                "completion exceeded the rule cap %d" % (rule_cap,))
        for other in stale:
            old = rules.pop(other)
            agenda.append(dict({other: 1}, **{w: -c for w, c in old.items()}))
        # a rule change invalidates the memo, so rebuild after each one
        system = Rewriter(rules)
        for other, rhs2 in list(rules.items()):
            red = system.nf_terms(rhs2)
            if red != rhs2:
                rules[other] = red
                system = Rewriter(rules)
        enqueue_pairs(lead)

    while agenda or heap:
        if agenda:
            absorb(agenda.pop())
            continue
        _, w, u, v, offset = heapq.heappop(heap)
        if u not in rules or v not in rules:
            continue
        stats["spolys"] += 1
        absorb(_spoly(rules, w, u, v, offset))

    return CompletedSystem(ruleset.kind, degree, rules, stats)


def reduce(x, sys_m, sys_d, table):
    """Canonical form: normal-order the letter kinds, then reduce each
    segment to its ideal normal form.  Words are grouped by their position
    prefix, so each prefix's normal form multiplies the reduced sum of
    its derivative suffixes once; under an irreducible prefix that sum is
    merged as it is.  Every ordered word must fit the degree caps: its
    prefix that of sys_m, its suffix that of sys_d."""
    cap_m, cap_d = sys_m.degree, sys_d.degree
    suffixes = {}
    for w, c in normal_order(x, table).terms.items():
        t = w.lstrip(POSITION_LETTERS)
        prefix = w[:len(w) - len(t)]
        if len(prefix) > cap_m or len(t) > cap_d:
            raise DegreeCapError(
                "degrees (%d, %d) of %r exceed the completed caps (%d, %d)"
                % (len(prefix), len(t), w, cap_m, cap_d))
        suffixes.setdefault(prefix, {})[t] = c
    out = {}
    for prefix, terms in suffixes.items():
        tail = sys_d.nf_terms(terms)
        head = sys_m.nf_word(prefix)
        if head is None:
            for wd, cd in tail.items():
                add_term(out, prefix + wd, cd)
            continue
        for wm, cm in head.items():
            for wd, cd in tail.items():
                add_term(out, wm + wd, cm * cd)
    return NCPoly._raw(out)


def max_degrees(x):
    """The most position and the most derivative letters in one word of
    x, in one pass over its words."""
    md = dd = 0
    for w in x.terms:
        m = sum(1 for ch in w if ch < "a")
        md = max(md, m)
        dd = max(dd, len(w) - m)
    return md, dd
