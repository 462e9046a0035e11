"""Each output check accepts lu3q's real output and rejects a wrong value.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
from lu3q.cli import main as lu3q_main  # noqa: E402
from lu3q.fields import field_for_order  # noqa: E402
from lu3q.incidence import build_kim_matrix  # noqa: E402


def _run(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = lu3q_main(argv)
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "stdout": buf.getvalue(), "undetected": []}


def test_closed_form_ranks():
    assert [checks.power_sum(n) for n in range(6)] == [2, 1, 9, 13, 49, 101]
    assert checks.closed_form_ranks(8) == (298, 282)
    assert checks.closed_form_ranks(16) == (1890, 1858)


GOOD_RANK = {"dim_code": 2238, "dim_code_transpose": 2238, "match": True,
             "min_weight_upper_bound": 32, "min_weight_upper_bound_transpose": 32,
             "predicted": 1858, "q": 16, "rank": 1858, "system": "kim"}


@pytest.mark.parametrize("key,value", [
    ("rank", 1859),
    ("rank", 1857),
    ("dim_code", 2239),
    ("dim_code_transpose", 2237),
    ("min_weight_upper_bound", 16),
    ("min_weight_upper_bound_transpose", 0),
])
def test_check_rank_rejects_wrong_value(key, value):
    assert checks.check_rank(16, {"rc": 0, "stdout": json.dumps(GOOD_RANK)}) == []
    bad = dict(GOOD_RANK, **{key: value})
    assert checks.check_rank(16, {"rc": 0, "stdout": json.dumps(bad)})


def test_check_rank_ignores_printed_prediction():
    # The closed form is the benchmark's own; a wrong `predicted` does not help.
    bad = dict(GOOD_RANK, rank=1859, predicted=1859)
    assert checks.check_rank(16, {"rc": 0, "stdout": json.dumps(bad)})


@pytest.fixture(scope="module")
def verify_q4():
    return _run(["verify", "--q", "4", "--checks", "all", "--json"])


def test_digit_escapes():
    assert checks.digit_escapes(2) == 0
    assert checks.digit_escapes(4) == 54


def test_check_verify_accepts_real_output(verify_q4):
    assert checks.check_verify(4, verify_q4, 54) == []


def _edit_row(out: dict, name_part: str, old: str, new: str) -> dict:
    payload = json.loads(out["stdout"])
    hits = 0
    for row in payload["checks"]:
        if name_part in row["name"] and old in row["detail"]:
            row["detail"] = row["detail"].replace(old, new, 1)
            hits += 1
    assert hits == 1
    return dict(out, stdout=json.dumps(payload))


def test_check_verify_rejects_rank_off_by_one(verify_q4):
    assert checks.closed_form_ranks(4) == (50, 42)
    bad = _edit_row(verify_q4, "rank of kim", "rank 42", "rank 43")
    assert checks.check_verify(4, bad, 54)
    bad = _edit_row(verify_q4, "rank of pl ", "rank 50", "rank 49")
    assert checks.check_verify(4, bad, 54)


def test_check_verify_rejects_changed_escape_count(verify_q4):
    assert checks.check_verify(4, verify_q4, 53)
    bad = _edit_row(verify_q4, "digit-tuple span", "54 of 85", "55 of 85")
    assert checks.check_verify(4, bad, 54)


def test_check_verify_rejects_status_and_exit_code(verify_q4):
    payload = json.loads(verify_q4["stdout"])
    payload["checks"][0]["status"] = "FAIL"
    assert checks.check_verify(4, dict(verify_q4, stdout=json.dumps(payload)), 54)
    assert checks.check_verify(4, dict(verify_q4, rc=0), 54)


def test_kim_construction_matches_lu3q():
    for q in (4, 8):
        kim = checks.kim_checks(q)
        H = build_kim_matrix(field_for_order(q)).bits
        assert [sum(1 << int(c) for c in row) for row in kim] == H.rows


SEED, TRIALS, ITERS = 11, 40, 50


@pytest.fixture(scope="module")
def decode_runs():
    kim = checks.kim_checks(8)
    runs = {}
    for decoder, p in (("bitflip", 0.06), ("minsum", 0.08)):
        out = _run(["simulate", "--q", "8", "--system", "kim", "--channel", "bsc",
                    "--decoder", decoder, "--p", repr(p), "--trials", str(TRIALS),
                    "--max-iters", str(ITERS), "--seed", str(SEED)])
        flips = checks.bsc_flips(SEED, TRIALS, 512, p)
        if decoder == "bitflip":
            ref = checks.bitflip_reference(kim, flips, ITERS)
        else:
            ref = checks.minsum_reference(kim, flips, p, ITERS)
        out["undetected"] = [0]
        runs[decoder] = (out, p, ref)
    return runs


def _check_decode(decoder, out, p, ref):
    return checks.check_decode(out, 8, decoder, p, TRIALS, ITERS, SEED, ref)


def _edit_csv(out: dict, column: str, delta: int) -> dict:
    header, row = out["stdout"].splitlines()
    i = header.split(",").index(column)
    cells = row.split(",")
    cells[i] = str(int(cells[i]) + delta)
    return dict(out, stdout=f"{header}\n{','.join(cells)}\n")


def test_references_agree_with_lu3q(decode_runs):
    for decoder, (out, p, ref) in decode_runs.items():
        assert ref[1] > 0, "choose p so that some frames fail"
        assert _check_decode(decoder, out, p, ref) == []


def test_check_decode_rejects_corrupted_bitflip_counts(decode_runs):
    out, p, ref = decode_runs["bitflip"]
    assert _check_decode("bitflip", out, p, (ref[0] + 1, ref[1]))
    assert _check_decode("bitflip", out, p, (ref[0], ref[1] - 1))
    # ber/fer no longer match the edited count
    assert _check_decode("bitflip", _edit_csv(out, "bit_errors", 1), p, ref)


def test_check_decode_rejects_corrupted_minsum_counts(decode_runs):
    out, p, ref = decode_runs["minsum"]
    tol = checks.MINSUM_FRAME_TOLERANCE
    assert _check_decode("minsum", out, p, (ref[0], ref[1] + tol)) == []
    assert _check_decode("minsum", out, p, (ref[0], ref[1] + tol + 1))
    assert _check_decode("minsum", dict(out, undetected=[ref[1] + 1]), p, ref)
    assert _check_decode("minsum", dict(out, undetected=[]), p, ref)
