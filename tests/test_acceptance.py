"""Acceptance gate: every numbered criterion runs exactly, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces the criterion's time budget.  The large
non-gating job is opt-in through QCAPELLI_STRETCH=1.
"""

import os

import pytest

from qcapelli import rcatalog, suites
from qcapelli.qlinalg import QMatrix, RankError

# Ten times the slowest of four runs of each criterion alone on a 2-core
# VM (Python 3.11.7), rounded up to whole seconds, at least 5 s.
BUDGETS_S = {1: 5, 2: 5, 3: 5, 4: 5, 5: 5, 6: 5, 7: 5, 8: 5, 9: 5, 10: 5,
             11: 5, 12: 5}


def _run(number, fn):
    res = fn()
    print(res.line())
    failed = [name for name, good in res.checks if not good]
    assert res.ok, "criterion %d failed checks: %s" % (number, failed)
    assert res.seconds < BUDGETS_S[number], (
        "criterion %d took %.1f s, budget %d s"
        % (number, res.seconds, BUDGETS_S[number]))


def test_criterion_01_braiding_validation():
    _run(1, suites.crit_1)


def _refuse(*args):
    raise RankError("refused")


@pytest.mark.parametrize("gate,patches", [
    ("braid", {"check_braid": lambda R: True}),
    # past the Hecke gate, the flip at q = 3/5 has a tower that never
    # vanishes; the refusing probe turns it away quickly, as "rank"
    ("hecke", {"check_hecke": lambda R, cfg: True, "rank_of": _refuse}),
    ("rank", {"rank_of": lambda antisym, N: (1, [N])})])
def test_criterion_01_fails_when_a_gate_lets_its_control_through(
        monkeypatch, gate, patches):
    # build the catalog symmetries first, through the unpatched gates
    for label in ("dj1", "dj2q", "dj3q", "flip2"):
        suites._sym(label)
    for name, fn in patches.items():
        monkeypatch.setattr(rcatalog, name, fn)
    res = suites.crit_1()
    failed = [name for name, good in res.checks if not good]
    assert not res.ok
    assert [name.split()[-2] for name in failed] == [gate]


def test_criterion_02_projector_suite():
    _run(2, suites.crit_2)


def test_criterion_03_trace_normalization():
    _run(3, suites.crit_3)


@pytest.mark.parametrize("label, top", [("dj2", "dj(2) Tr_R A(2)"),
                                        ("dj3q", "dj(3) Tr_R A(3)")])
def test_criterion_03_fails_under_the_plain_trace(monkeypatch, label, top):
    # the control: weight I in place of C misses the top quantum dimension
    sym = suites._sym(label)
    monkeypatch.setattr(sym, "c_matrix", QMatrix.identity(sym.N, 1))
    res = suites.crit_3()
    failed = [name for name, good in res.checks if not good]
    assert not res.ok
    assert top in failed
    assert all(name.startswith(sym.name) for name in failed)


def test_criterion_04_exchange_round_trip():
    _run(4, suites.crit_4)


def test_criterion_05_ideal_preservation():
    _run(5, suites.crit_5)


def test_criterion_06_factorization_identity():
    _run(6, suites.crit_6)


def test_criterion_07_shift_sensitivity():
    _run(7, suites.crit_7)


def test_criterion_08_traced_corollaries():
    _run(8, suites.crit_8)


def test_criterion_09_composite_relation():
    _run(9, suites.crit_9)


def test_criterion_10_general_exchange():
    _run(10, suites.crit_10)


def test_criterion_11_classical_oracle():
    _run(11, suites.crit_11)


def test_criterion_12_multi_point_proof():
    _run(12, suites.crit_12)


@pytest.mark.skipif(not os.environ.get("QCAPELLI_STRETCH"),
                    reason="large non-gating job; set QCAPELLI_STRETCH=1")
def test_criterion_06_stretch_rank_three_top():
    res = suites.stretch_job()
    print(res.line())
    assert res.ok
    assert res.seconds < 3600
