"""Catalog of Hecke symmetries, validated at construction.

A HeckeSymmetry runs four gates as it is built: braid relation, Hecke
condition, a finite-rank probe of the antisymmetrizer tower, and
skew-invertibility (with trace-weight calibration on the top
antisymmetrizer).  A failed gate raises, so no unvalidated symmetry
exists.  Each symmetry holds its two projector towers, the
q-antisymmetrizers A^(k) and the q-symmetrizers S^(k), and builds each
level once: the rank probe, the calibration and every later caller read
the same levels.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .ncalg import MAX_N
from .qlinalg import (
    QLinError,
    QMatrix,
    check_braid,
    check_hecke,
    r_trace,
    rank_of,
    skew_inverse,
    tower_step,
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
    """A Hecke symmetry that has passed the four gates, bundled with what
    they found.

    The gates run in order, and the first that fails raises a
    CatalogValidationError naming it: braid; Hecke, whose
    (q I - R)(q^(-1) I + R) = 0 gives R^(-1) = R - (q - q^(-1)) I; the
    rank probe, which sets rank and rank_dims (dim Im A^(k) for k = 1 ..
    rank+1); and skew-invertibility, which sets the skew inverse psi and
    the trace weight c_matrix."""

    def __init__(self, name, R, q_config, rebuilder=None):
        if not check_braid(R):
            raise CatalogValidationError(name, "braid")
        if not check_hecke(R, q_config):
            raise CatalogValidationError(name, "hecke")
        self.name = name
        self.N = R.N
        self.R = R
        self.q_config = q_config
        self.R_inv = R - QMatrix.identity(R.N, 2).scale(
            q_config.qpow(1) - q_config.qpow(-1))
        self._rebuilder = rebuilder
        self._anti = [QMatrix.identity(R.N, 1)]
        self._symm = [QMatrix.identity(R.N, 1)]
        try:
            self.rank, self.rank_dims = rank_of(self.antisym, self.N)
        except QLinError as e:
            raise CatalogValidationError(name, "rank", str(e))
        try:
            self.psi, self.c_matrix = skew_inverse(
                R, self.antisym(self.rank), q_config)
        except QLinError as e:
            raise CatalogValidationError(name, "skew-invertibility", str(e))

    def _level(self, tower, k, sign):
        if k < 1:
            raise QLinError("tower index must be >= 1")
        while len(tower) < k:
            tower.append(tower_step(self.R, tower[-1], self.q_config, sign))
        return tower[k - 1]

    def antisym(self, k):
        return self._level(self._anti, k, -1)

    def ssym(self, k):
        return self._level(self._symm, k, +1)

    def r_trace(self, X):
        """The R-trace of X over all of its legs."""
        return r_trace(X, self.c_matrix)

    def rebuild_at(self, q):
        """The same catalog family at another fixed q, when available."""
        if self._rebuilder is None:
            return None
        return self._rebuilder(QConfig.fixed(q))

    def __repr__(self):
        return "HeckeSymmetry(%r, N=%d, %s)" % (
            self.name, self.N, self.q_config.describe())


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _zero_braiding(N, where):
    """The zero two-leg matrix every catalog source fills in; N must fit
    the letter alphabet of the double's generators (ncalg.MAX_N)."""
    if not _is_int(N) or not 1 <= N <= MAX_N:
        raise CatalogError("%s: N must be an integer in 1..%d, got %r"
                           % (where, MAX_N, N))
    return QMatrix.zeros(N, 2)


def dj(N, cfg=None):
    """Standard deformation of the flip on an N-dimensional space:
    q on matching diagonal pairs, 1 on swapped pairs, q - q^(-1) above."""
    if cfg is None:
        cfg = QConfig.symbolic()
    q = cfg.qpow(1)
    hop = cfg.qpow(1) - cfg.qpow(-1)
    R = _zero_braiding(N, "dj")
    for a in range(N):
        for b in range(N):
            if a == b:
                R.rows[a * N + b][a * N + b] = q
            else:
                R.rows[a * N + b][b * N + a] = cfg.one()
                if a < b:
                    R.rows[a * N + b][a * N + b] = hop
    return HeckeSymmetry("dj(%d)" % N, R, cfg, rebuilder=lambda c: dj(N, c))


def flip(N):
    """Plain permutation of the two legs; a Hecke symmetry only at q = 1."""
    cfg = QConfig.fixed(1, allow_unit=True)
    R = _zero_braiding(N, "flip")
    for a in range(N):
        for b in range(N):
            R.rows[a * N + b][b * N + a] = cfg.one()
    return HeckeSymmetry("flip(%d)" % N, R, cfg)


def load(path):
    """Read a symmetry from a JSON record:

    {"N": 2, "q": "symbolic" or "a/b",
     "entries": [{"i":1,"j":1,"k":1,"l":1,"value":"q"}, ...]}

    Entries are 1-based components of R^{ij}_{kl}; the composite row index
    is (i-1)N + j; omitted entries are zero.  The symmetry is named
    file:<base name of path>.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except json.JSONDecodeError as e:
        raise CatalogError("%s: not valid JSON (%s)" % (path, e))
    except (OSError, UnicodeDecodeError) as e:
        raise CatalogError("%s: cannot be read as UTF-8 text (%s)"
                           % (path, e))
    if not isinstance(record, dict):
        raise CatalogError("%s: expected a JSON object" % (path,))
    for key in ("N", "q", "entries"):
        if key not in record:
            raise CatalogError("%s: missing field %r" % (path, key))
    N = record["N"]
    R = _zero_braiding(N, path)
    qspec = str(record["q"])
    if qspec == "symbolic":
        cfg = QConfig.symbolic()
    else:
        try:
            cfg = QConfig.fixed(Fraction(qspec))
        except (ValueError, ZeroDivisionError):
            raise CatalogError("%s: q must be 'symbolic' or a rational, "
                               "got %r" % (path, record["q"]))
    if not isinstance(record["entries"], list):
        raise CatalogError("%s: entries must be a list" % (path,))
    for ent in record["entries"]:
        try:
            i, j, k, l = ent["i"], ent["j"], ent["k"], ent["l"]
            value = ent["value"]
        except (KeyError, TypeError):
            raise CatalogError("%s: malformed entry %r" % (path, ent))
        if not all(_is_int(t) and 1 <= t <= N for t in (i, j, k, l)):
            raise CatalogError("%s: entry indices must be integers in "
                               "1..%d in %r" % (path, N, ent))
        R.rows[(i - 1) * N + (j - 1)][(k - 1) * N + (l - 1)] = \
            parse_scalar(str(value), cfg)
    return HeckeSymmetry("file:%s" % (os.path.basename(path),), R, cfg)
