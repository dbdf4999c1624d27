import io
import json
import random
from fractions import Fraction

import pytest

from qcapelli import rcatalog
from qcapelli.capelli import RewriteContext, verify_matrix_identity
from qcapelli.cli import EXIT_PASS, main
from qcapelli.ncalg import gen_matrix
from qcapelli.qlinalg import (
    QMatrix,
    SkewInverseError,
    embed,
    matrix_inverse,
    tower_step,
)
from qcapelli.rcatalog import (
    CatalogError,
    CatalogValidationError,
    HeckeSymmetry,
    dj,
    flip,
    load,
)
from qcapelli.rewrite import complete, derive_dd_rules, derive_re_rules
from qcapelli.scalar import QConfig
from test_rewrite import relation_entries


def test_dj_small_matrices():
    s1 = dj(1)
    assert s1.R.rows == [[s1.q_config.qpow(1)]]
    s2 = dj(2)
    cfg = s2.q_config
    q = cfg.qpow(1)
    hop = q - cfg.qpow(-1)
    expect = QMatrix(2, 2, [
        [q, 0, 0, 0],
        [0, hop, cfg.one(), 0],
        [0, cfg.one(), 0, 0],
        [0, 0, 0, q],
    ])
    assert s2.R == expect
    assert s2.rank == 2


def test_dj3_rank():
    sym = dj(3, QConfig.fixed(Fraction(3, 5)))
    assert sym.rank == 3
    assert sym.rank_dims == [3, 3, 1, 0]


def test_each_tower_level_is_built_once(monkeypatch):
    steps = {-1: 0, 1: 0}

    def counted(R, prev, cfg, sign):
        steps[sign] += 1
        return tower_step(R, prev, cfg, sign)

    monkeypatch.setattr(rcatalog, "tower_step", counted)
    sym = dj(3, QConfig.fixed(Fraction(3, 5)))
    # the rank probe builds A(2), A(3), A(4); the calibration reuses A(3)
    assert steps == {-1: 3, 1: 0}
    for k in range(1, 5):
        sym.antisym(k)
    assert steps == {-1: 3, 1: 0}
    sym.ssym(3)
    sym.ssym(2)
    assert steps == {-1: 3, 1: 2}


def test_a_symmetry_keeps_what_its_gates_found():
    sym = dj(2, QConfig.fixed(Fraction(3, 5)))
    assert (sym.rank, sym.rank_dims) == (2, [2, 1, 0])
    assert sym.psi.p == 2 and sym.c_matrix.p == 1
    assert not hasattr(sym, "skew") and not hasattr(sym, "rank_report")


@pytest.mark.parametrize("gate", ["braid", "hecke", "rank",
                                  "skew-invertibility"])
def test_no_symmetry_is_built_past_a_failed_gate(monkeypatch, gate):
    # criterion 1's controls for the first three gates, at q = 3/5; the
    # skew gate is made to refuse dj(2), which tests its wiring only
    cfg = QConfig.fixed(Fraction(3, 5))
    dj2 = dj(2, cfg)
    g = embed(QMatrix(2, 1, [[1, 1], [0, 1]]), 1, 2)
    g_inv = embed(QMatrix(2, 1, [[1, -1], [0, 1]]), 1, 2)
    R = {"braid": g * dj2.R * g_inv,
         "hecke": flip(2).R,
         "rank": QMatrix.identity(2, 2).scale(cfg.q()),
         "skew-invertibility": dj2.R}[gate]
    reached = []

    def refuse(R, a_top, cfg):
        reached.append(a_top.p)
        raise SkewInverseError("refused")

    monkeypatch.setattr(rcatalog, "skew_inverse", refuse)
    built = []
    with pytest.raises(CatalogValidationError) as err:
        built.append(HeckeSymmetry("control", R, cfg))
    assert err.value.check == gate
    assert "'control' failed the %s check" % gate in str(err.value)
    assert built == []
    # gates run in order: the skew gate runs, on A^(2), only when the
    # three before it pass
    assert reached == ([2] if gate == "skew-invertibility" else [])


def test_flip_is_involutive_at_unit_q():
    f = flip(2)
    assert f.q_config.q_value == 1
    assert f.R * f.R == QMatrix.identity(2, 2)
    assert f.rank == 2


def test_hecke_shortcut_consequence():
    # R^(-1) = R - (q - q^(-1)) I follows from the Hecke condition
    for sym in (dj(2), dj(3, QConfig.fixed(Fraction(2)))):
        cfg = sym.q_config
        hop = cfg.qpow(1) - cfg.qpow(-1)
        assert sym.R_inv == sym.R - QMatrix.identity(sym.N, 2).scale(hop)


def test_rebuild_at_other_q():
    sym = dj(2, QConfig.fixed(Fraction(3, 5)))
    other = sym.rebuild_at(Fraction(7, 2))
    assert other.q_config.q_value == Fraction(7, 2)
    assert other.R.rows[0][0] == Fraction(7, 2)
    assert flip(2).rebuild_at(Fraction(2)) is None


def _dj2_record(qspec):
    entries = []
    vals = {
        (1, 1, 1, 1): "q", (2, 2, 2, 2): "q",
        (1, 2, 1, 2): "q - q^(-1)", (1, 2, 2, 1): "1", (2, 1, 1, 2): "1",
    }
    for (i, j, k, l), v in vals.items():
        entries.append({"i": i, "j": j, "k": k, "l": l, "value": v})
    return {"N": 2, "q": qspec, "entries": entries}


def test_load_round_trip(tmp_path):
    path = tmp_path / "dj2.rmx"
    path.write_text(json.dumps(_dj2_record("symbolic")))
    sym = load(str(path))
    assert sym.R == dj(2).R
    assert sym.name == "file:dj2.rmx"
    path2 = tmp_path / "dj2q.rmx"
    path2.write_text(json.dumps(_dj2_record("3/5")))
    sym2 = load(str(path2))
    assert sym2.q_config.q_value == Fraction(3, 5)
    assert sym2.R == dj(2, QConfig.fixed(Fraction(3, 5))).R


def test_load_rejects_non_hecke(tmp_path):
    # identity braids but is not Hecke
    rec = {"N": 2, "q": "symbolic", "entries": [
        {"i": i, "j": j, "k": i, "l": j, "value": "1"}
        for i in (1, 2) for j in (1, 2)]}
    path = tmp_path / "bad.rmx"
    path.write_text(json.dumps(rec))
    with pytest.raises(CatalogValidationError) as err:
        load(str(path))
    assert err.value.check == "hecke"


def test_load_rejects_non_braid(tmp_path):
    rec = _dj2_record("symbolic")
    rec["entries"][0]["value"] = "q^2"
    path = tmp_path / "bad2.rmx"
    path.write_text(json.dumps(rec))
    with pytest.raises(CatalogValidationError) as err:
        load(str(path))
    assert err.value.check == "braid"


def test_load_structural_errors(tmp_path):
    path = tmp_path / "broken.rmx"
    path.write_text("{not json")
    with pytest.raises(CatalogError):
        load(str(path))
    path.write_text(json.dumps({"N": 2, "entries": []}))
    with pytest.raises(CatalogError):
        load(str(path))
    bad_records = [[], {"N": 2, "q": "1/2", "entries": 7}]
    for field, value in (("N", 0), ("N", 6), ("N", True), ("N", "2"),
                         ("q", "abc"), ("q", "1/0")):
        rec = _dj2_record("symbolic")
        rec[field] = value
        bad_records.append(rec)
    for value in (5, 0, "1", 1.0):
        rec = _dj2_record("symbolic")
        rec["entries"][0]["i"] = value
        bad_records.append(rec)
    for rec in bad_records:
        path.write_text(json.dumps(rec))
        with pytest.raises(CatalogError) as err:
            load(str(path))
        assert not isinstance(err.value, CatalogValidationError)


def test_unreadable_file_is_a_catalog_error(tmp_path):
    # a directory, and a file that is not UTF-8 text
    latin1 = tmp_path / "latin1.rmx"
    latin1.write_bytes(json.dumps(_dj2_record("symbolic")).encode()
                       + b" \xff")
    for path in (tmp_path, latin1):
        with pytest.raises(CatalogError) as err:
            load(str(path))
        assert not isinstance(err.value, CatalogValidationError)


@pytest.mark.parametrize("N", [0, -1, 6])
def test_catalog_families_reject_dimensions_outside_the_alphabet(N):
    for family in (dj, flip):
        with pytest.raises(CatalogError):
            family(N)


# Conjugates (G x G) dj(N) (G x G)^(-1) by small integer G, and the
# multiparameter twist of dj(N), are Hecke symmetries of their own; the
# engine must verify the factorization identity for them as for dj(N).
Q = Fraction(3, 5)


def conjugate(N, G):
    GG = QMatrix(N, 2, [[Fraction(G[a][c] * G[b][d])
                         for c in range(N) for d in range(N)]
                        for a in range(N) for b in range(N)])
    R = GG * dj(N, QConfig.fixed(Q)).R * matrix_inverse(GG)
    return HeckeSymmetry("conj(%d, %s)" % (N, G), R, QConfig.fixed(Q))


def twist(N, t):
    """t on the swap entries above the diagonal, 1/t below."""
    R = QMatrix(N, 2, [list(row) for row in dj(N, QConfig.fixed(Q)).R.rows])
    for a in range(N):
        for b in range(N):
            if a != b:
                R.rows[a * N + b][b * N + a] = t if a < b else 1 / t
    return HeckeSymmetry("twist(%d, %s)" % (N, t), R, QConfig.fixed(Q))


def seeded_invertible(seed, N=2):
    rng = random.Random(seed)
    while True:
        G = [[rng.randint(-2, 2) for _ in range(N)] for _ in range(N)]
        if G[0][0] * G[1][1] != G[0][1] * G[1][0]:
            return G


def assert_factorization_holds(sym):
    ctx = RewriteContext(sym)
    assert sym.rank == sym.N
    assert verify_matrix_identity(ctx, 2, "column").passed()
    assert verify_matrix_identity(ctx, 2, "row").passed()
    assert not verify_matrix_identity(ctx, 2, "column",
                                      alpha=Fraction(7, 2)).passed()


@pytest.mark.parametrize("N,G", [
    (2, [[2, 1], [1, 1]]),
    (2, [[1, 1], [0, 1]]),
    (3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
] + [(2, seeded_invertible(seed)) for seed in range(3)])
def test_conjugate_of_dj(N, G):
    assert_factorization_holds(conjugate(N, G))


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("t", [Fraction(2), Fraction(7, 3)])
def test_multiparameter_twist(N, t):
    assert_factorization_holds(twist(N, t))


UNIPOTENT_3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]


def test_unipotent_conjugate_of_dj3_completes():
    sym = conjugate(3, UNIPOTENT_3)
    for kind, braiding, derive in (("m", sym.R, derive_re_rules),
                                   ("d", sym.R_inv, derive_dd_rules)):
        system = complete(derive(sym), 2)
        assert len(system.rules) == 36
        x1 = embed(gen_matrix(kind, 3), 1, 2)
        for p in relation_entries(braiding, x1):
            assert not system.nf_terms(p.terms)


def test_unipotent_conjugate_of_dj3_factorization():
    assert_factorization_holds(conjugate(3, UNIPOTENT_3))


def write_symmetry(sym, path):
    """Write a fixed-q symmetry as the JSON record rcatalog.load reads."""
    N = sym.N
    entries = [{"i": r // N + 1, "j": r % N + 1, "k": c // N + 1,
                "l": c % N + 1, "value": str(v)}
               for r, row in enumerate(sym.R.rows)
               for c, v in enumerate(row) if v]
    path.write_text(json.dumps({"N": N, "q": str(sym.q_config.q_value),
                                "entries": entries}))


def test_conjugate_verifies_from_a_file(tmp_path):
    sym = conjugate(2, [[2, 1], [1, 1]])
    path = tmp_path / "conj.rmx"
    write_symmetry(sym, path)
    assert load(str(path)).R == sym.R
    for ident in ("th", "th-s"):
        code = main(["verify", "--rmatrix", "file:%s" % path,
                     "--identity", ident, "--k", "2"], out=io.StringIO())
        assert code == EXIT_PASS
