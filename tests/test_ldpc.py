import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lu3q
from lu3q.gf2 import BitMatrix, vec_to_bits
from lu3q.ldpc import (
    ChannelSpec,
    LdpcCode,
    bsc_llr,
    decode_bitflip,
    decode_minsum,
    girth_check,
    simulate,
)


@pytest.fixture(scope="module")
def code2(matrix):
    return LdpcCode(matrix(2, "kim").bits, "kim q=2")


@pytest.fixture(scope="module")
def code8(matrix):
    return LdpcCode(matrix(8, "kim").bits, "kim q=8")


def test_code_dimensions(code2, code8):
    assert (code2.n, code2.k) == (8, 2)
    assert (code8.n, code8.k) == (512, 230)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_girth_ok_for_kim(matrix, q):
    assert girth_check(matrix(q, "kim").bits).ok


def test_girth_ok_for_pl_q2(matrix):
    assert girth_check(matrix(2, "pl").bits).ok


def test_girth_counterexample_smallest():
    rep = girth_check(BitMatrix.from_dense([[1, 1], [1, 1]]))
    assert not rep.ok
    assert rep.rows == (0, 1)
    assert rep.cols == (0, 1)


def test_encode_zero_and_units(code2):
    zero = code2.encode([0, 0])
    assert not zero.any()
    for i in range(code2.k):
        msg = np.zeros(code2.k, dtype=np.uint8)
        msg[i] = 1
        word = code2.encode(msg)
        assert (word == vec_to_bits(code2.generator.basis[i], code2.n)).all()


def test_encode_all_messages_q2(code2):
    for m0 in (0, 1):
        for m1 in (0, 1):
            word = code2.encode([m0, m1])
            assert code2.is_codeword(word)


def test_encode_length_mismatch(code2):
    with pytest.raises(ValueError):
        code2.encode([0, 1, 1])


def test_encode_rejects_corrupted_generator_under_optimize():
    # python -O strips assert statements; the codeword check must survive it
    script = (
        "from lu3q.fields import field_for_order\n"
        "from lu3q.incidence import build_kim_matrix\n"
        "from lu3q.ldpc import LdpcCode\n"
        "code = LdpcCode(build_kim_matrix(field_for_order(2)).bits)\n"
        "code.generator.basis[0] ^= 1\n"
        "try:\n"
        "    code.encode([1, 0])\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('encode returned a non-codeword')\n"
    )
    src = str(Path(lu3q.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_min_weight_estimate_exact_for_tiny_code(code2):
    # k = 2: the estimate over sampled messages must hit the true
    # minimum weight of the three nonzero codewords
    words = []
    for m0 in (0, 1):
        for m1 in (0, 1):
            if m0 or m1:
                words.append(int(code2.encode([m0, m1]).sum()))
    assert code2.min_weight_estimate(seed=3, samples=64) == min(words)


def test_bitflip_keeps_valid_codeword(code2):
    word = code2.encode([1, 1])
    out = decode_bitflip(code2, word)
    assert out.success and out.iterations == 0
    assert (out.bits == word).all()


def test_bitflip_all_ones_is_codeword_q2(code2):
    # pinned: the all-ones vector satisfies every weight-2 check
    out = decode_bitflip(code2, np.ones(8, dtype=np.uint8))
    assert out.success and out.iterations == 0
    assert out.bits.tolist() == [1] * 8


def test_bitflip_corrects_single_error_q8(code8):
    recv = np.zeros(512, dtype=np.uint8)
    recv[77] = 1
    out = decode_bitflip(code8, recv)
    assert out.success and out.iterations == 1
    assert not out.bits.any()


def test_minsum_corrects_single_error_q8(code8):
    recv = np.zeros(512, dtype=np.uint8)
    recv[77] = 1
    llr = (1 - 2.0 * recv) * math.log(0.95 / 0.05)
    out = decode_minsum(code8, llr)
    assert out.success and out.iterations == 1
    assert not out.bits.any()


def test_minsum_strong_positive_llr(code2):
    out = decode_minsum(code2, np.full(8, 9.0))
    assert out.success and out.iterations == 0
    assert not out.bits.any()


def test_bsc_llr_mapping():
    L = math.log(0.9 / 0.1)
    assert bsc_llr(0, 0.1) == pytest.approx(L)
    assert bsc_llr(1, 0.1) == pytest.approx(-L)
    assert bsc_llr(0, 0.0) == math.inf
    assert bsc_llr(1, 0.0) == -math.inf


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelSpec("awgn", 0.1, 0)
    with pytest.raises(ValueError):
        ChannelSpec("bsc", 0.7, 0)


def test_simulate_p0_is_error_free(code2):
    for decoder in ("bitflip", "minsum"):
        rep = simulate(code2, ChannelSpec("bsc", 0.0, 5), decoder=decoder, trials=20)
        assert rep.ber == 0.0 and rep.fer == 0.0


def test_simulate_p_half_pinned_q2(code2):
    # pinned regression fixture, not a theoretical assertion
    rep = simulate(code2, ChannelSpec("bsc", 0.5, 1234), decoder="bitflip", trials=100)
    assert rep.bit_errors == 376
    assert rep.frame_errors == 89
    assert rep.undetected_errors == 28
    assert rep.ber == pytest.approx(0.47)
    assert rep.fer == pytest.approx(0.89)
    assert rep.fer >= 0.5


def test_simulate_deterministic_across_jobs(code2):
    one = simulate(code2, ChannelSpec("bsc", 0.1, 7), decoder="minsum", trials=60, jobs=1)
    four = simulate(code2, ChannelSpec("bsc", 0.1, 7), decoder="minsum", trials=60, jobs=4)
    assert one == four
    assert one.fer == pytest.approx(0.1)
    assert one.ber == pytest.approx(0.025)


def test_simulate_monotonic_smoke_q8(code8):
    # smaller sibling of the acceptance run (which pins 2000 trials)
    lo = simulate(code8, ChannelSpec("bsc", 0.001, 42), decoder="bitflip", trials=200, max_iters=10)
    hi = simulate(code8, ChannelSpec("bsc", 0.1, 42), decoder="bitflip", trials=200, max_iters=10)
    assert lo.fer <= hi.fer
    assert lo.fer == 0.0


def test_simulate_validates_arguments(code2):
    with pytest.raises(ValueError):
        simulate(code2, ChannelSpec("bsc", 0.1, 0), trials=0)
    with pytest.raises(ValueError):
        simulate(code2, ChannelSpec("bsc", 0.1, 0), decoder="turbo", trials=1)


def test_decoder_outputs_labeled_codeword_have_zero_syndrome(code8):
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(10):
        recv = (rng.random(512) < 0.02).astype(np.uint8)
        out = decode_bitflip(code8, recv)
        if out.success:
            assert code8.is_codeword(out.bits)
        llr = (1 - 2.0 * recv) * math.log(0.98 / 0.02)
        out = decode_minsum(code8, llr)
        if out.success:
            assert code8.is_codeword(out.bits)
