"""Output checks, each computed apart from the program.

Every ``check_*`` function returns a list of problems; an empty list
means the output is right.  The expected values come from the
benchmark's own computations:

* ranks from the power-sum closed form, not from the ``predicted``
  field lu3q prints;
* the digit-span escape count from a digit-degree scan of the
  ``delta_line`` monomials;
* bit-flipping counts from an independent strict-majority decoder in
  exact integer arithmetic, on the same ``SeedSequence((seed, t))``
  noise;
* min-sum frame errors from an independent normalized min-sum, within
  ``MINSUM_FRAME_TOLERANCE`` frames.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from workloads import CHECK_GROUPS

# A future decoder may add the same messages in another order; a frame
# whose decision rests on a last-digit difference may then flip.  The two
# implementations here add in the same order and agree exactly.
MINSUM_FRAME_TOLERANCE = 2
MINSUM_NORMALIZATION = 0.75

# lu3q's default defining polynomials: the first irreducible one in its
# search order (x^2 + x + 1, x^3 + x + 1, x^4 + x + 1), as bit masks.
_DEFAULT_IRREDUCIBLE = {4: 0b111, 8: 0b1011, 16: 0b10011}

SIM_CSV_HEADER = [
    "q", "system", "transposed", "channel", "p", "decoder", "max_iters",
    "trials", "bit_errors", "frame_errors", "ber", "fer", "seed",
]


# -- closed forms ---------------------------------------------------------


def power_sum(n: int) -> int:
    """s_n for s_0 = 2, s_1 = 1, s_n = s_{n-1} + 4 s_{n-2}."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, b + 4 * a
    return a


def closed_form_ranks(q: int) -> tuple[int, int]:
    """(rank of pl, rank of p1l1 = rank of kim) for q = 2^t."""
    t = q.bit_length() - 1
    if q != 1 << t or t < 1:
        raise ValueError(f"q={q} is not a power of 2")
    s = power_sum(2 * t)
    return 1 + s, 1 + s - 2 ** (t + 1)


def _n_points(q: int) -> int:
    return q**3 + q**2 + q + 1


# -- verify -----------------------------------------------------------------

_DIGIT_SPAN_ROW = "every line class lies in the digit-tuple span"
_ISO_SEARCH_ROW = "explicit permutation equivalence found"


def _expected_skip(q: int, group: str, name: str) -> bool:
    """Rows the README's size policy skips at this q (q even)."""
    if group in ("kernel", "poly", "girth"):
        return q > 8
    return name == _ISO_SEARCH_ROW and q > 4


def digit_escapes(q: int) -> int:
    """Line classes whose indicator has a monomial with a digit of
    degree >= 3, i.e. some binary digit position set in three or more
    of its four exponents."""
    from lu3q.fields import field_for_order
    from lu3q.geometry import enumerate_quadrangle
    from lu3q.polyfn import delta_line

    Q = enumerate_quadrangle(field_for_order(q))
    t = q.bit_length() - 1

    def high_digit(mono) -> bool:
        return any(sum((e >> j) & 1 for e in mono) >= 3 for j in range(t))

    return sum(
        1 for l in range(Q.n_lines) if any(high_digit(m) for m in delta_line(l, Q))
    )


def check_verify(q: int, out: dict, escapes: int | None) -> list[str]:
    """``lu3q verify --q q --checks all --json`` at even q."""
    problems = []
    try:
        payload = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        return [f"verify output is not JSON: {exc}"]
    rank_pl, rank_kim = closed_form_ranks(q)
    expect_fail = 2 < q <= 8  # the refuted digit-span claim
    if out["rc"] != (1 if expect_fail else 0):
        problems.append(f"verify exit code {out['rc']}")
    if payload.get("q") != q or payload.get("ok") is not (not expect_fail):
        problems.append(f"verify header q={payload.get('q')} ok={payload.get('ok')}")
    rows = payload.get("checks", [])
    missing = set(CHECK_GROUPS) - {r["group"] for r in rows}
    if missing:
        problems.append(f"verify groups missing: {sorted(missing)}")

    def numbers(detail: str) -> list[int]:
        return [int(x) for x in re.findall(r"\d+", detail)]

    seen = set()
    for r in rows:
        group, name, status, detail = r["group"], r["name"], r["status"], r["detail"]
        seen.add(name)
        if _expected_skip(q, group, name):
            want = "SKIP"
        elif name == _DIGIT_SPAN_ROW and expect_fail:
            want = "FAIL"
        else:
            want = "PASS"
        if status != want:
            problems.append(f"{group}/{name}: {status}, expected {want}")
        nums = numbers(detail)
        if name == _DIGIT_SPAN_ROW:
            if nums[:2] != [escapes, _n_points(q)]:
                problems.append(
                    f"digit-span escapes {nums[:2]}, expected [{escapes}, {_n_points(q)}]"
                )
        elif group == "rank":
            system = name.split()[3]
            want_rank = rank_pl if system == "pl" else rank_kim
            if nums[:1] != [want_rank]:
                problems.append(f"rank of {system}: {nums[:1]}, closed form {want_rank}")
        elif group == "iso" and status != "SKIP" and name != _ISO_SEARCH_ROW:
            if nums[:2] != [rank_kim, rank_kim]:
                problems.append(f"iso ranks {nums[:2]}, closed form {rank_kim}")
        elif name == "X0 u Y u L1 spans every line and the all-ones vector":
            if nums[:2] != [rank_pl, rank_kim]:
                problems.append(f"span dimensions {nums[:2]}, closed form "
                                f"[{rank_pl}, {rank_kim}]")
        elif name == "point/line totals":
            if nums[:2] != [_n_points(q), _n_points(q)]:
                problems.append(f"point/line totals {nums[:2]}")
    if q <= 8 and _DIGIT_SPAN_ROW not in seen:
        problems.append(f"verify row missing: {_DIGIT_SPAN_ROW}")
    return problems


# -- rank -------------------------------------------------------------------


def check_rank(q: int, out: dict) -> list[str]:
    """``lu3q rank --q q --system kim --json``."""
    try:
        payload = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        return [f"rank output is not JSON: {exc}"]
    problems = []
    _, rank_kim = closed_form_ranks(q)
    if out["rc"] != 0:
        problems.append(f"rank exit code {out['rc']}")
    if payload.get("rank") != rank_kim:
        problems.append(f"rank {payload.get('rank')}, closed form {rank_kim}")
    for key in ("dim_code", "dim_code_transpose"):
        if payload.get(key) != q**3 - rank_kim:
            problems.append(f"{key} {payload.get(key)}, expected q^3 - rank = "
                            f"{q**3 - rank_kim}")
    # Column weight q and girth >= 6 give minimum distance >= q + 1 (Tanner).
    for key in ("min_weight_upper_bound", "min_weight_upper_bound_transpose"):
        w = payload.get(key)
        if not isinstance(w, int) or w < q + 1:
            problems.append(f"{key} {w} is below the Tanner bound q+1 = {q + 1}")
    return problems


# -- decoders ---------------------------------------------------------------


def _gf_mul(a: int, b: int, poly: int, t: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> t:
            a ^= poly
    return out


def kim_checks(q: int) -> np.ndarray:
    """Row r = (a*q + b)*q + c of kim lists its q columns (x*q + y)*q + z,
    y = a x + b, z = a y + c over GF(q)."""
    poly, t = _DEFAULT_IRREDUCIBLE[q], q.bit_length() - 1
    rows = np.zeros((q**3, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                r = (a * q + b) * q + c
                for x in range(q):
                    y = _gf_mul(a, x, poly, t) ^ b
                    z = _gf_mul(a, y, poly, t) ^ c
                    rows[r, x] = (x * q + y) * q + z
    rows.sort(axis=1)
    return rows


def _var_edges(checks: np.ndarray) -> np.ndarray:
    """Per variable, its flat edge ids (check * degree + slot), by check."""
    order = np.argsort(checks.ravel(), kind="stable")
    n = int(checks.max()) + 1
    return order.reshape(n, -1)


def bsc_flips(seed: int, trials: int, n: int, p: float) -> np.ndarray:
    """The noise lu3q draws: trial t uses PCG64(SeedSequence((seed, t)))."""
    out = np.zeros((trials, n), dtype=np.uint8)
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
        out[t] = rng.random(n) < p
    return out


def bitflip_reference(checks: np.ndarray, flips: np.ndarray, max_iters: int):
    """Strict-majority flipping on all frames at once, integers only.

    Returns (bit errors, frame errors) with the zero word sent.
    """
    var_checks = _var_edges(checks) // checks.shape[1]
    degree = var_checks.shape[1]
    bits = flips.astype(np.int64)
    syn = bits[:, checks].sum(axis=2) & 1
    live = np.flatnonzero(syn.any(axis=1))
    for _ in range(max_iters):
        if live.size == 0:
            break
        unsat = syn[live][:, var_checks].sum(axis=2)
        flip = 2 * unsat > degree
        moving = flip.any(axis=1)  # a frame with no flip is stuck
        live, flip = live[moving], flip[moving]
        bits[live] ^= flip
        syn[live] = bits[live][:, checks].sum(axis=2) & 1
        live = live[syn[live].any(axis=1)]
    wrong = bits.sum(axis=1)
    return int(wrong.sum()), int((wrong > 0).sum())


def minsum_reference(checks: np.ndarray, flips: np.ndarray, p: float,
                     max_iters: int, alpha: float = MINSUM_NORMALIZATION):
    """Normalized min-sum, flooding schedule, all frames at once.

    Returns (bit errors, frame errors) with the zero word sent.  Each
    variable's total adds its check messages in check order, and a zero
    total decides 0, as lu3q does.
    """
    m, d = checks.shape
    var_edges = _var_edges(checks)
    llr = (1.0 - 2.0 * flips) * math.log((1 - p) / p)
    hard = (llr < 0).astype(np.int64)
    live = np.flatnonzero((hard[:, checks].sum(axis=2) & 1).any(axis=1))
    c2v = np.zeros((len(flips), m, d))
    total = llr.copy()
    for _ in range(max_iters):
        if live.size == 0:
            break
        v2c = total[live][:, checks] - c2v[live]
        mag = np.abs(v2c)
        sign = np.where(v2c < 0, -1.0, 1.0)
        two = np.partition(mag, 1, axis=2)
        other = np.where(mag == two[:, :, :1], two[:, :, 1:2], two[:, :, :1])
        msg = alpha * sign.prod(axis=2)[:, :, None] * sign * other
        c2v[live] = msg
        flat = msg.reshape(len(live), m * d)
        tot = llr[live].copy()
        for k in range(var_edges.shape[1]):
            tot += flat[:, var_edges[:, k]]
        total[live] = tot
        hard[live] = tot < 0
        live = live[(hard[live][:, checks].sum(axis=2) & 1).any(axis=1)]
    wrong = hard.sum(axis=1)
    return int(wrong.sum()), int((wrong > 0).sum())


def _sim_row(out: dict) -> tuple[dict | None, list[str]]:
    rows = list(csv.reader(io.StringIO(out["stdout"])))
    if out["rc"] != 0 or len(rows) != 2 or rows[0] != SIM_CSV_HEADER:
        return None, [f"simulate output malformed (exit {out['rc']}): {rows[:1]}"]
    return dict(zip(SIM_CSV_HEADER, rows[1])), []


def check_decode(out: dict, q: int, decoder: str, p: float, trials: int,
                 max_iters: int, seed: int, reference: tuple[int, int]) -> list[str]:
    """One ``lu3q simulate`` CSV against the reference decoder's counts."""
    row, problems = _sim_row(out)
    if row is None:
        return problems
    n = q**3
    want = {"q": str(q), "system": "kim", "transposed": "0", "channel": "bsc",
            "p": repr(p), "decoder": decoder, "max_iters": str(max_iters),
            "trials": str(trials), "seed": str(seed)}
    for key, value in want.items():
        if row[key] != value:
            problems.append(f"{decoder}: {key}={row[key]}, expected {value}")
    bit, frame = int(row["bit_errors"]), int(row["frame_errors"])
    if float(row["ber"]) != bit / (trials * n) or float(row["fer"]) != frame / trials:
        problems.append(f"{decoder}: ber/fer do not match the counts")
    ref_bit, ref_frame = reference
    if decoder == "bitflip":
        if (bit, frame) != (ref_bit, ref_frame):
            problems.append(f"bitflip counts {(bit, frame)}, reference "
                            f"{(ref_bit, ref_frame)}")
    else:
        undetected = out["undetected"][0] if out["undetected"] else -1
        if not bit >= frame >= undetected >= 0 or frame > trials:
            problems.append(f"minsum counts inconsistent: bit {bit}, frame {frame}, "
                            f"undetected {undetected}")
        if abs(frame - ref_frame) > MINSUM_FRAME_TOLERANCE:
            problems.append(f"minsum frame errors {frame}, reference {ref_frame} "
                            f"(tolerance {MINSUM_FRAME_TOLERANCE})")
    return problems
