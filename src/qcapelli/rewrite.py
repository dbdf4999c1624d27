"""Rewriting machinery for the quantum double.

Three layers:

* ExchangeTable: moves every derivative letter to the right of every
  position letter, derived once per symmetry from the permutation
  relation D1 R M1 = R M1 R^(-1) D1 R^(-1) + I.
* RuleSet / CompletedSystem: oriented rules for the two defining ideals
  (position side and derivative side), completed by resolving overlap
  ambiguities up to a degree cap.
* reduce: the canonical form map; a polynomial reduces to zero exactly
  when it lies in the two-sided ideal generated by the relations, up to
  the tested confluence of the combined system.
"""

from __future__ import annotations

import heapq

from .ncalg import NCError, NCPoly, d_char, gen_matrix, m_char, word_key
from .qlinalg import QMatrix, embed_tail, matrix_inverse
from .scalar import inv as scalar_inv


class RewriteError(Exception):
    pass


class BadSpecializationError(RewriteError):
    """The working q is a degeneration point of the relation module."""


class CapacityError(RewriteError):
    """A configured resource cap was exceeded."""


class DegreeCapError(RewriteError):
    """Input exceeds the degree the completed system covers."""


class ExchangeTable:
    """For each derivative-position letter pair the normal-ordered form:
    word 'dM' maps to a list of ('Md', coeff) terms plus a constant."""

    __slots__ = ("N", "rules")

    def __init__(self, N, rules):
        self.N = N
        self.rules = rules

    def entry(self, dm_word):
        return self.rules[dm_word]


def derive_exchange(sym):
    """Solve the permutation relation for every generator pair.

    The unknowns for fixed outer indices enter through the invertible
    reshuffle of R that also defines the skew inverse, so one exact
    matrix inversion yields the whole table.
    """
    N = sym.N
    R, Rinv = sym.R, sym.R_inv
    m1 = embed_tail(gen_matrix("m", N), 2)
    d1 = embed_tail(gen_matrix("d", N), 2)
    rhs = (R * m1 * Rinv * d1 * Rinv).shifted(1)

    t = QMatrix.zeros(N, 2)
    for c in range(N):
        for f in range(N):
            for x in range(N):
                for u in range(N):
                    v = R.rows[x * N + c][u * N + f]
                    if v:
                        t.rows[c * N + f][x * N + u] = v
    try:
        tinv = matrix_inverse(t)
    except Exception as e:
        raise RewriteError(
            "exchange solve failed on a skew-invertible input: %s" % (e,))

    rules = {}
    for a in range(N):
        for e in range(N):
            for x in range(N):
                for u in range(N):
                    poly = NCPoly.zero()
                    trow = tinv.rows[x * N + u]
                    for c in range(N):
                        for f in range(N):
                            w = trow[c * N + f]
                            if w:
                                poly = poly + w * rhs.rows[a * N + c][e * N + f]
                    pairs = []
                    const = 0
                    for word, coeff in sorted(poly.terms.items(),
                                              key=lambda kv: word_key(kv[0])):
                        if word == "":
                            const = coeff
                        elif len(word) == 2 and word[0] < "a" <= word[1]:
                            pairs.append((word, coeff))
                        else:
                            raise RewriteError(
                                "exchange solution has an impossible word %r"
                                % (word,))
                    key = d_char(a + 1, x + 1, N) + m_char(u + 1, e + 1, N)
                    rules[key] = (tuple(pairs), const)
    return ExchangeTable(N, rules)


def exchange_round_trip_ok(sym, table):
    """Rebuild both sides of the permutation relation through the table."""
    N = sym.N
    m1 = embed_tail(gen_matrix("m", N), 2)
    d1 = embed_tail(gen_matrix("d", N), 2)
    lhs = d1 * (sym.R * m1)
    rhs = (sym.R * m1 * sym.R_inv * d1 * sym.R_inv).shifted(1)
    for lrow, rrow in zip(lhs.rows, rhs.rows):
        for v, want in zip(lrow, rrow):
            if (normal_order(v, table) if v else 0) != want:
                return False
    return True


def normal_order(x, table, strategy="leftmost", rng=None):
    """Eliminate every derivative-before-position adjacency.

    Terminates because each swap lowers (length, inversion count); the
    strategy choice picks which adjacency to rewrite first and must not
    change the result (tested, not assumed).
    """
    todo = dict(x.terms)
    out = {}
    while todo:
        w, c = todo.popitem()
        redexes = [i for i in range(len(w) - 1)
                   if w[i] >= "a" > w[i + 1]]
        if not redexes:
            acc = out.get(w, 0) + c
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
            continue
        if strategy == "leftmost":
            i = redexes[0]
        elif strategy == "rightmost":
            i = redexes[-1]
        elif strategy == "random":
            i = rng.choice(redexes)
        else:
            raise RewriteError("unknown strategy %r" % (strategy,))
        pairs, const = table.rules[w[i:i + 2]]
        pre, suf = w[:i], w[i + 2:]
        for rep, coeff in pairs:
            nw = pre + rep + suf
            acc = todo.get(nw, 0) + c * coeff
            if acc:
                todo[nw] = acc
            else:
                todo.pop(nw, None)
        if const:
            nw = pre + suf
            acc = todo.get(nw, 0) + c * const
            if acc:
                todo[nw] = acc
            else:
                todo.pop(nw, None)
    return NCPoly(out)


class RuleSet:
    """Oriented homogeneous rules over a single letter kind."""

    __slots__ = ("kind", "rules")

    def __init__(self, kind, rules):
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

    def __len__(self):
        return len(self.rules)


def _rref_rules(polys):
    """Exact row reduction of relation polynomials; returns the oriented,
    interreduced rule dictionary lhs -> {word: coeff}."""
    pivots = {}
    for p in polys:
        row = dict(p)
        while row:
            lead = max(row, key=word_key)
            hit = pivots.get(lead)
            if hit is None:
                piv = scalar_inv(row.pop(lead))
                pivots[lead] = {w: c * piv for w, c in row.items()}
                break
            f = row.pop(lead)
            for w, c in hit.items():
                acc = row.get(w, 0) - f * c
                if acc:
                    row[w] = acc
                else:
                    row.pop(w, None)
    # back-substitute until no tail mentions a pivot word
    changed = True
    while changed:
        changed = False
        for lead in list(pivots):
            tail = pivots[lead]
            for w in list(tail):
                sub = pivots.get(w)
                if sub is None:
                    continue
                f = tail.pop(w)
                for w2, c2 in sub.items():
                    acc = tail.get(w2, 0) - f * c2
                    if acc:
                        tail[w2] = acc
                    else:
                        tail.pop(w2, None)
                changed = True
    return {lead: {w: -c for w, c in tail.items()}
            for lead, tail in pivots.items()}


def _relation_polys(R, X1):
    """Entries of R X1 R X1 - X1 R X1 R as coefficient dictionaries."""
    diff = R * (X1 * R) * X1 - X1 * R * X1 * R
    out = []
    for row in diff.rows:
        for v in row:
            if v:
                out.append(dict(v.terms))
    return out


def _derive_rules(sym, kind, cross_check):
    N = sym.N
    x1 = embed_tail(gen_matrix(kind, N), 2)
    braiding = sym.R if kind == "m" else sym.R_inv
    polys = _relation_polys(braiding, x1)
    rules = _rref_rules(polys)
    if cross_check and sym.q_config.mode == "fixed" and not sym.q_config.allow_unit:
        base_count = len(rules)
        q0 = sym.q_config.q_value
        probes = [q0 + s for s in (1, 2, 3, 4) if q0 + s not in (0, 1, -1)][:2]
        for probe in probes:
            alt = sym.rebuild_at(probe)
            if alt is None:
                break
            alt_braiding = alt.R if kind == "m" else alt.R_inv
            alt_count = len(_rref_rules(_relation_polys(alt_braiding, x1)))
            if base_count < alt_count:
                raise BadSpecializationError(
                    "bad specialization at q = %s: relation rank %d drops "
                    "below the rank %d seen at q = %s; resample q"
                    % (q0, base_count, alt_count, probe))
            if base_count == alt_count:
                break
    return RuleSet(kind, rules)


def derive_re_rules(sym, cross_check=True):
    """Oriented rules for the position-side defining ideal."""
    return _derive_rules(sym, "m", cross_check)


def derive_dd_rules(sym, cross_check=True):
    """Oriented rules for the derivative-side defining ideal; the inverse
    braiding plays the role of R there."""
    return _derive_rules(sym, "d", cross_check)


def _find_redex(w, rules, lengths):
    for i in range(len(w)):
        for L in lengths:
            if i + L > len(w):
                break
            if w[i:i + L] in rules:
                return i, L
    return None


def _nf_dict(terms, rules, lengths):
    todo = dict(terms)
    out = {}
    while todo:
        w, c = todo.popitem()
        hit = _find_redex(w, rules, lengths)
        if hit is None:
            acc = out.get(w, 0) + c
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
            continue
        i, L = hit
        pre, suf = w[:i], w[i + L:]
        for wr, cr in rules[w[i:i + L]].items():
            nw = pre + wr + suf
            acc = todo.get(nw, 0) + c * cr
            if acc:
                todo[nw] = acc
            else:
                todo.pop(nw, None)
    return out


class CompletedSystem:
    """Rule system closed under overlap resolution up to a degree cap."""

    __slots__ = ("kind", "degree", "rules", "lengths", "stats", "_nf")

    def __init__(self, kind, degree, rules, stats):
        self.kind = kind
        self.degree = degree
        self.rules = rules
        self.lengths = sorted({len(w) for w in rules})
        self.stats = stats
        self._nf = {}

    def nf_word(self, w):
        cache = self._nf
        got = cache.get(w)
        if got is not None:
            return got
        stack = [w]
        rules, lengths = self.rules, self.lengths
        while stack:
            top = stack[-1]
            if top in cache:
                stack.pop()
                continue
            hit = _find_redex(top, rules, lengths)
            if hit is None:
                cache[top] = {top: 1}
                stack.pop()
                continue
            i, L = hit
            pre, suf = top[:i], top[i + L:]
            rhs = rules[top[i:i + L]]
            subs = [(pre + wr + suf, cr) for wr, cr in rhs.items()]
            missing = [s for s, _ in subs if s not in cache]
            if missing:
                stack.extend(missing)
                continue
            res = {}
            for s, cr in subs:
                for w2, c2 in cache[s].items():
                    acc = res.get(w2, 0) + cr * c2
                    if acc:
                        res[w2] = acc
                    else:
                        res.pop(w2, None)
            cache[top] = res
            stack.pop()
        return cache[w]

    def nf_terms(self, terms):
        out = {}
        for w, c in terms.items():
            for w2, c2 in self.nf_word(w).items():
                acc = out.get(w2, 0) + c * c2
                if acc:
                    out[w2] = acc
                else:
                    out.pop(w2, None)
        return out

    def count_irreducible(self, max_len, alphabet):
        """Number of irreducible words of each length 0..max_len."""
        counts = [1]
        frontier = [""]
        for _ in range(max_len):
            nxt = []
            for w in frontier:
                for ch in alphabet:
                    nw = w + ch
                    bad = False
                    for L in self.lengths:
                        if L <= len(nw) and nw[-L:] in self.rules:
                            bad = True
                            break
                    if not bad:
                        nxt.append(nw)
            counts.append(len(nxt))
            frontier = nxt
        return counts


def _spoly(rules, w, u, v, offset):
    """Difference of the two reductions of the ambiguity word w, where w
    starts with u and contains v at the given offset."""
    left = {}
    suf = w[len(u):]
    for wr, cr in rules[u].items():
        left[wr + suf] = left.get(wr + suf, 0) + cr
    right = {}
    pre, post = w[:offset], w[offset + len(v):]
    for wr, cr in rules[v].items():
        nw = pre + wr + post
        right[nw] = right.get(nw, 0) + cr
    for nw, cr in right.items():
        acc = left.get(nw, 0) - cr
        if acc:
            left[nw] = acc
        else:
            left.pop(nw, None)
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
    lengths = set()
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
        nf = _nf_dict(poly, rules, sorted(lengths))
        if not nf:
            return
        lead = max(nf, key=word_key)
        piv = scalar_inv(nf.pop(lead))
        rhs = {w: -c * piv for w, c in nf.items()}
        # retire rules whose left side the new rule now reduces
        stale = [other for other in rules
                 if other != lead and lead in
                 (other[i:i + len(lead)] for i in range(len(other) - len(lead) + 1))]
        rules[lead] = rhs
        lengths.add(len(lead))
        stats["added"] += 1
        if len(rules) > rule_cap:
            raise CapacityError(
                "completion exceeded the rule cap %d" % (rule_cap,))
        for other in stale:
            old = rules.pop(other)
            agenda.append(dict({other: 1}, **{w: -c for w, c in old.items()}))
        ls = sorted(lengths)
        for other, rhs2 in list(rules.items()):
            red = _nf_dict(rhs2, rules, ls)
            if red != rhs2:
                rules[other] = red
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


def reduce(x, sys_m, sys_d, table, strategy="leftmost", rng=None):
    """Canonical form: normal-order the letter kinds, then reduce each
    segment to its ideal normal form.  Input must fit the degree caps."""
    md, dd = _max_degrees(x)
    if md > sys_m.degree or dd > sys_d.degree:
        raise DegreeCapError(
            "degrees (%d, %d) exceed the completed caps (%d, %d)"
            % (md, dd, sys_m.degree, sys_d.degree))
    ordered = normal_order(x, table, strategy=strategy, rng=rng)
    out = {}
    for w, c in ordered.terms.items():
        cut = len(w)
        for i, ch in enumerate(w):
            if ch >= "a":
                cut = i
                break
        for wm, cm in sys_m.nf_word(w[:cut]).items():
            base = c * cm
            for wd, cd in sys_d.nf_word(w[cut:]).items():
                nw = wm + wd
                acc = out.get(nw, 0) + base * cd
                if acc:
                    out[nw] = acc
                else:
                    out.pop(nw, None)
    return NCPoly(out)


def _max_degrees(x):
    md = dd = 0
    for w in x.terms:
        m = sum(1 for ch in w if ch < "a")
        md = max(md, m)
        dd = max(dd, len(w) - m)
    return md, dd


def apply_derivative(a, b, table, sys_m=None):
    """Action of a derivative-side polynomial on a position-side one:
    permute a past b and apply the counit to the derivative remainder."""
    for w in a.terms:
        if any(ch < "a" for ch in w):
            raise NCError("left factor must be a derivative polynomial")
    for w in b.terms:
        if any(ch >= "a" for ch in w):
            raise NCError("right factor must be a position polynomial")
    ordered = normal_order(a * b, table)
    out = {}
    for w, c in ordered.terms.items():
        if any(ch >= "a" for ch in w):
            continue
        acc = out.get(w, 0) + c
        if acc:
            out[w] = acc
        else:
            out.pop(w, None)
    if sys_m is not None:
        out = sys_m.nf_terms(out)
    return NCPoly(out)
