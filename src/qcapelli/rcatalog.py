"""Catalog of Hecke symmetries, validated at construction.

Every symmetry that enters the engine passes the same gate: braid
relation, Hecke condition, skew-invertibility (with trace-weight
calibration), and a finite-rank probe of the antisymmetrizer tower.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .qlinalg import (
    QLinError,
    QMatrix,
    antisymmetrizer,
    check_braid,
    check_hecke,
    matrix_inverse,
    r_trace,
    rank_of,
    skew_inverse,
    symmetrizer,
)
from .scalar import QConfig, parse_scalar


class CatalogError(Exception):
    pass


class CatalogValidationError(CatalogError):
    def __init__(self, name, check, detail=""):
        msg = "symmetry %r failed the %s check" % (name, check)
        if detail:
            msg += ": " + detail
        super().__init__(msg)
        self.check = check


class HeckeSymmetry:
    """A validated Hecke symmetry bundled with its derived data."""

    def __init__(self, name, R, q_config, skew, rank_report, rebuilder=None):
        self.name = name
        self.N = R.N
        self.R = R
        self.q_config = q_config
        self.skew = skew
        self.rank_report = rank_report
        self.R_inv = matrix_inverse(R)
        self._rebuilder = rebuilder
        self._anti = {}
        self._symm = {}

    @property
    def rank(self):
        return self.rank_report.rank

    @property
    def c_matrix(self):
        return self.skew.c_matrix

    def antisym(self, k):
        if k not in self._anti:
            self._anti[k] = antisymmetrizer(self.R, k, self.q_config)
        return self._anti[k]

    def ssym(self, k):
        if k not in self._symm:
            self._symm[k] = symmetrizer(self.R, k, self.q_config)
        return self._symm[k]

    def r_trace(self, X, legs):
        return r_trace(X, legs, self.c_matrix)

    def rebuild_at(self, q):
        """The same catalog family at another fixed q, when available."""
        if self._rebuilder is None:
            return None
        return self._rebuilder(QConfig.fixed(q))

    def __repr__(self):
        return "HeckeSymmetry(%r, N=%d, %s)" % (
            self.name, self.N, self.q_config.describe())


def validate_symmetry(R, cfg, name, rank_cap=6, rebuilder=None):
    if not check_braid(R):
        raise CatalogValidationError(name, "braid")
    if not check_hecke(R, cfg):
        raise CatalogValidationError(name, "hecke")
    try:
        report = rank_of(R, cfg, cap=rank_cap)
    except QLinError as e:
        raise CatalogValidationError(name, "rank", str(e))
    try:
        skew = skew_inverse(R, cfg)
    except QLinError as e:
        raise CatalogValidationError(name, "skew-invertibility", str(e))
    return HeckeSymmetry(name, R, cfg, skew, report, rebuilder)


def dj(N, cfg=None):
    """Standard deformation of the flip on an N-dimensional space:
    q on matching diagonal pairs, 1 on swapped pairs, q - q^(-1) above."""
    if cfg is None:
        cfg = QConfig.symbolic()
    q = cfg.qpow(1)
    hop = cfg.qpow(1) - cfg.qpow(-1)
    R = QMatrix.zeros(N, 2)
    for a in range(N):
        for b in range(N):
            if a == b:
                R.rows[a * N + b][a * N + b] = q
            else:
                R.rows[a * N + b][b * N + a] = cfg.one()
                if a < b:
                    R.rows[a * N + b][a * N + b] = hop
    return validate_symmetry(R, cfg, "dj(%d)" % N,
                             rebuilder=lambda c: dj(N, c))


def flip(N):
    """Plain permutation of the two legs; a Hecke symmetry only at q = 1."""
    cfg = QConfig.fixed(1, allow_unit=True)
    R = QMatrix.zeros(N, 2)
    for a in range(N):
        for b in range(N):
            R.rows[a * N + b][b * N + a] = Fraction(1)
    return validate_symmetry(R, cfg, "flip(%d)" % N)


def load(path, name=None):
    """Read a symmetry from a JSON record:

    {"N": 2, "q": "symbolic" or "a/b",
     "entries": [{"i":1,"j":1,"k":1,"l":1,"value":"q"}, ...]}

    Entries are 1-based components of R^{ij}_{kl}; the composite row index
    is (i-1)N + j; omitted entries are zero.
    """
    with open(path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as e:
            raise CatalogError("%s: not valid JSON (%s)" % (path, e))
    for key in ("N", "q", "entries"):
        if key not in record:
            raise CatalogError("%s: missing field %r" % (path, key))
    N = record["N"]
    if not isinstance(N, int) or N < 1:
        raise CatalogError("%s: N must be a positive integer" % (path,))
    qspec = str(record["q"])
    if qspec == "symbolic":
        cfg = QConfig.symbolic()
    else:
        cfg = QConfig.fixed(Fraction(qspec))
    R = QMatrix.zeros(N, 2)
    for ent in record["entries"]:
        try:
            i, j, k, l = ent["i"], ent["j"], ent["k"], ent["l"]
            value = ent["value"]
        except (KeyError, TypeError):
            raise CatalogError("%s: malformed entry %r" % (path, ent))
        if not all(1 <= t <= N for t in (i, j, k, l)):
            raise CatalogError("%s: entry index out of range in %r" % (path, ent))
        R.rows[(i - 1) * N + (j - 1)][(k - 1) * N + (l - 1)] = \
            parse_scalar(str(value), cfg)
    if name is None:
        name = "file:%s" % (os.path.basename(path),)
    return validate_symmetry(R, cfg, name)
