import functools
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lu3q
from gf2_oracle import index_rows, transpose
from ldpc_oracle import check_messages as check_messages_reference
from ldpc_oracle import min_weight_estimate as min_weight_reference
from lu3q import ldpc
from lu3q.gf2 import BitMatrix, nullspace
from lu3q.ldpc import (
    ChannelSpec,
    GirthReport,
    LdpcCode,
    bsc_llr,
    decode_bitflip,
    decode_minsum,
    girth_check,
    simulate,
)
from test_acceptance import ALL_Q


@pytest.fixture(scope="module")
def code2(matrix):
    m = matrix(2, "kim")
    return LdpcCode(m.cols, m.n_cols, "kim q=2")


@pytest.fixture(scope="module")
def code8(matrix):
    m = matrix(8, "kim")
    return LdpcCode(m.cols, m.n_cols, "kim q=8")


def test_code_dimensions(code2, code8):
    assert (code2.n, code2.k) == (8, 2)
    assert (code8.n, code8.k) == (512, 230)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_girth_ok_for_kim(matrix, q):
    m = matrix(q, "kim")
    assert girth_check(m.cols, m.n_cols).ok


def test_girth_ok_for_pl_q2(matrix):
    m = matrix(2, "pl")
    assert girth_check(m.cols, m.n_cols).ok


def test_girth_counterexample_smallest():
    rep = girth_check([[0, 1], [0, 1]], 2)
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
        assert (word == code2.generator.basis.to_numpy()[i]).all()


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
        "m = build_kim_matrix(field_for_order(2))\n"
        "code = LdpcCode(m.cols, m.n_cols)\n"
        "code.generator.basis.words[0, 0] ^= 1\n"
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


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("transposed", [False, True])
def test_min_weight_estimate_equals_reference(matrix, q, transposed):
    m = matrix(q, "kim")
    code = LdpcCode(m.cols, m.n_cols)
    code = code.transpose() if transposed else code
    for seed in (0, 1, 1000):
        for samples in (0, 1, 7, 200):
            assert code.min_weight_estimate(seed, samples) == min_weight_reference(
                code, seed, samples)


def test_min_weight_estimate_equals_reference_where_samples_decide():
    # The code spanned by e_i + T (i < 21, T the ones at bits 21..60):
    # its basis rows weigh 41, and a message with an even number c of
    # ones gives a word of weight c, so only the samples find light words.
    # 21 rows also leave a last table of 5 rows.
    k, tail = 21, 40
    T = ((1 << tail) - 1) << k
    dual = nullspace(BitMatrix([(1 << i) | T for i in range(k)], k + tail))
    code = LdpcCode(index_rows(dual.basis), dual.n_cols)
    assert code.k == k
    found = set()
    for seed in range(6):
        for samples in (0, 1, 7, 200):
            estimate = code.min_weight_estimate(seed, samples)
            assert estimate == min_weight_reference(code, seed, samples)
            found.add(estimate)
    assert max(found) == tail + 1 and len(found) > 2


def test_min_weight_estimate_of_zero_code():
    code = LdpcCode(index_rows(BitMatrix.identity(5)), 5)
    assert code.k == 0
    assert code.min_weight_estimate(3) == min_weight_reference(code, 3) == 0


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
    one = simulate(code2, ChannelSpec("bsc", 0.1, 7), decoder="minsum", trials=60)
    again = simulate(code2, ChannelSpec("bsc", 0.1, 7), decoder="minsum", trials=60)
    assert one == again
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
    with pytest.raises(ValueError):
        simulate(code2, ChannelSpec("bsc", 0.1, 0), trials=1, max_iters=-1)
    with pytest.raises(ValueError):
        decode_bitflip(code2, np.zeros(8, dtype=np.uint8), max_iters=-1)


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


# -- one-frame dense references --------------------------------------------
# One frame at a time, int64 mat-vecs on the dense H and np.add.at for the
# min-sum totals.  The min-sum reference has the tie rule: a zero total
# decides the received bit.


def bitflip_reference(H, received, max_iters):
    """(success, bits, iterations, stalled) of dense strict-majority flipping."""
    HT, degrees = H.T, H.sum(axis=0)
    bits = received.astype(np.int64)
    syn = (H @ bits) & 1
    if not syn.any():
        return True, bits.astype(np.uint8), 0, False
    for it in range(1, max_iters + 1):
        flips = (HT @ syn) * 2 > degrees
        if not flips.any():
            return False, bits.astype(np.uint8), it, True
        bits ^= flips
        syn = (H @ bits) & 1
        if not syn.any():
            return True, bits.astype(np.uint8), it, False
    return False, bits.astype(np.uint8), max_iters, False


def minsum_reference(H, llr, max_iters, normalization=0.75):
    """(success, bits, iterations) of dense normalized min-sum."""
    m, n = H.shape
    received = np.signbit(llr)

    def decide(total):
        return ((total < 0) | ((total == 0) & received)).astype(np.uint8)

    hard = decide(llr)
    syn = (H @ hard) & 1
    if not syn.any():
        return True, hard, 0
    degrees = H.sum(axis=1)
    dmax = int(degrees.max())
    var_idx = np.full((m, dmax), n, dtype=np.int64)
    mask = np.zeros((m, dmax), dtype=bool)
    for c in range(m):
        nbrs = np.nonzero(H[c])[0]
        var_idx[c, : len(nbrs)] = nbrs
        mask[c, : len(nbrs)] = True
    llr_ext = np.append(llr, 0.0)
    c2v = np.zeros((m, dmax))
    total_ext = llr_ext.copy()
    for it in range(1, max_iters + 1):
        v2c = total_ext[var_idx] - c2v
        mags = np.where(mask, np.abs(v2c), np.inf)
        signs = np.where(v2c < 0, -1.0, 1.0)
        signs[~mask] = 1.0
        sign_prod = signs.prod(axis=1)
        arg1 = mags.argmin(axis=1)
        min1 = mags[np.arange(m), arg1]
        mags_wo = mags.copy()
        mags_wo[np.arange(m), arg1] = np.inf
        min2 = mags_wo.min(axis=1)
        use_min = np.where(
            np.arange(dmax)[None, :] == arg1[:, None], min2[:, None], min1[:, None]
        )
        c2v = normalization * sign_prod[:, None] * signs * use_min
        c2v[~mask] = 0.0
        total_ext = llr_ext.copy()
        np.add.at(total_ext, var_idx.ravel(), c2v.ravel())
        hard = decide(total_ext[:n])
        syn = (H @ hard) & 1
        if not syn.any():
            return True, hard, it
    return False, hard, max_iters


def girth_reference(H):
    """The pairwise row scan: first row pair sharing two columns."""
    rows = H.rows
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            common = rows[i] & rows[j]
            if common.bit_count() >= 2:
                c1 = (common & -common).bit_length() - 1
                common ^= common & -common
                c2 = (common & -common).bit_length() - 1
                return GirthReport(False, rows=(i, j), cols=(c1, c2))
    return GirthReport(True)


REFERENCE_CODES = [(2, "kim", False), (4, "kim", False), (8, "kim", False),
                   (4, "kim", True), (4, "pl", False)]


@pytest.fixture(scope="module")
def reference_codes(matrix):
    out = {}
    for q, system, transposed in REFERENCE_CODES:
        H = matrix(q, system).bits
        if transposed:
            H = transpose(H)
        out[(q, system, transposed)] = (
            LdpcCode(index_rows(H), H.n_cols), H.to_numpy().astype(np.int64))
    return out


def _noise(code, p, seed, trials):
    return ldpc._bsc_flips(code, ChannelSpec("bsc", p, seed), range(trials))


crossovers = st.one_of(st.just(0.5), st.floats(0.0, 0.5))


@settings(max_examples=25, deadline=None)
@given(key=st.sampled_from(REFERENCE_CODES), seed=st.integers(0, 2**32 - 1),
       p=crossovers, max_iters=st.integers(0, 12))
def test_block_bitflip_equals_reference(reference_codes, key, seed, p, max_iters):
    code, H = reference_codes[key]
    flips = _noise(code, p, seed, 5)
    bits = flips.copy()
    iterations, stalled = ldpc._bitflip(code, bits, max_iters)
    for t in range(flips.shape[1]):
        success, ref_bits, ref_iters, ref_stalled = bitflip_reference(H, flips[:, t], max_iters)
        assert (bits[:, t] == ref_bits).all()
        assert (iterations[t], stalled[t]) == (ref_iters, ref_stalled)
        assert code.is_codeword(bits[:, t]) == success
        single = decode_bitflip(code, flips[:, t], max_iters=max_iters)
        assert (single.success, single.iterations) == (success, ref_iters)
        assert (single.bits == ref_bits).all()


@settings(max_examples=25, deadline=None)
@given(key=st.sampled_from(REFERENCE_CODES), seed=st.integers(0, 2**32 - 1),
       p=crossovers, max_iters=st.integers(0, 12))
def test_block_minsum_equals_reference(reference_codes, key, seed, p, max_iters):
    code, H = reference_codes[key]
    llr = (1.0 - 2.0 * _noise(code, p, seed, 5)) * bsc_llr(0, p)
    hard, iterations = ldpc._minsum(code, llr, max_iters, 0.75)
    for t in range(llr.shape[1]):
        success, ref_bits, ref_iters = minsum_reference(H, llr[:, t], max_iters)
        assert (hard[:, t] == ref_bits).all()
        assert iterations[t] == ref_iters
        assert code.is_codeword(hard[:, t]) == success
        single = decode_minsum(code, llr[:, t], max_iters=max_iters)
        assert (single.success, single.iterations) == (success, ref_iters)
        assert (single.bits == ref_bits).all()


@pytest.mark.parametrize("decoder", ["bitflip", "minsum"])
@pytest.mark.parametrize("key", REFERENCE_CODES)
def test_simulate_counts_equal_reference(reference_codes, key, decoder):
    code, H = reference_codes[key]
    p, seed, trials, max_iters = 0.08, 5, 30, 15
    rep = simulate(code, ChannelSpec("bsc", p, seed), decoder=decoder,
                   trials=trials, max_iters=max_iters)
    flips = _noise(code, p, seed, trials)
    bit_errors = frame_errors = undetected = stuck = 0
    histogram = [0] * (max_iters + 1)
    for t in range(trials):
        if decoder == "bitflip":
            success, bits, iters, stalled = bitflip_reference(H, flips[:, t], max_iters)
        else:
            llr = (1.0 - 2.0 * flips[:, t]) * bsc_llr(0, p)
            success, bits, iters = minsum_reference(H, llr, max_iters)
            stalled = False
        wrong = int(bits.sum())
        bit_errors += wrong
        frame_errors += wrong > 0
        undetected += success and wrong > 0
        stuck += stalled
        histogram[iters] += 1
    assert (rep.bit_errors, rep.frame_errors, rep.undetected_errors) == (
        bit_errors, frame_errors, undetected)
    assert rep.iteration_histogram == tuple(histogram)
    assert rep.stuck == stuck


@pytest.mark.parametrize("decoder,p", [("bitflip", 0.06), ("minsum", 0.08)])
def test_simulate_does_not_depend_on_block_size(code8, monkeypatch, decoder, p):
    channel = ChannelSpec("bsc", p, 11)
    reports = []
    for block in (1, 7, 64):
        monkeypatch.setattr(ldpc, "_BLOCK_BYTES", 8 * code8.checks.size * block)
        reports.append(simulate(code8, channel, decoder=decoder, trials=40, max_iters=20))
    assert reports[0] == reports[1] == reports[2]
    assert sum(reports[0].iteration_histogram) == 40


MESSAGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 9), st.integers(1, 4), st.integers(1, 3)),
       normalization=st.sampled_from([0.75, 1.0]))
def test_check_messages_equal_min1_min2_reference(data, shape, normalization):
    # inf - inf gives NaN magnitudes: the reference makes such a check all NaN
    values = arrays(np.float64, shape, elements=st.sampled_from(MESSAGE_VALUES))
    v2c, c2v = data.draw(values), data.draw(values)
    got, want = c2v.copy(), c2v.copy()
    with np.errstate(invalid="ignore"):
        ldpc._check_messages(v2c.copy(), got, normalization)
        check_messages_reference(v2c.copy(), want, normalization)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_minsum_with_infinite_llrs_equals_min1_min2_kernel(matrix, monkeypatch):
    m = matrix(4, "kim")
    code = LdpcCode(m.cols, m.n_cols)
    rng = np.random.Generator(np.random.PCG64(7))
    shape = (40, code.n)
    mags = np.where(rng.random(shape) < 0.35, math.inf, rng.choice([0.0, 0.5, 2.0], size=shape))
    frames = mags * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    with np.errstate(invalid="ignore"):
        got = [decode_minsum(code, llr, max_iters=20) for llr in frames]
        monkeypatch.setattr(ldpc, "_check_messages", check_messages_reference)
        want = [decode_minsum(code, llr, max_iters=20) for llr in frames]
    for g, w in zip(got, want):
        assert (g.success, g.iterations, g.syndrome_weight) == (
            w.success, w.iterations, w.syndrome_weight)
        assert np.array_equal(g.bits, w.bits)


def test_minsum_rejects_nan_llr(code2):
    llr = np.ones(code2.n)
    llr[[3, 5]] = np.nan
    with pytest.raises(ValueError, match=r"llr\[3\] is NaN"):
        decode_minsum(code2, llr)


def test_minsum_is_channel_symmetric_at_half(code8):
    # Every LLR is +-0.0 at p = 0.5; a zero total must keep the received
    # bit, so the decoder cannot report the all-zero word it was never sent.
    rep = simulate(code8, ChannelSpec("bsc", 0.5, 1), decoder="minsum", trials=20)
    assert rep.fer >= 0.5


def test_edge_layout_is_lazy_and_sparse(matrix):
    m = matrix(4, "kim")
    code = LdpcCode(m.cols, m.n_cols)

    def arrays():
        held = [v for v in vars(code).values() if isinstance(v, np.ndarray)]
        return list({id(a): a for a in held}.values())

    # before decoding the code holds its index rows and nothing else
    assert len(arrays()) == 1 and np.array_equal(arrays()[0], m.cols)
    decode_minsum(code, np.full(code.n, 1.0))
    # after it, those same rows as checks, and var_edges
    assert code.checks is code.cols
    assert sorted(a.shape for a in arrays()) == [(64, 4), (64, 4)]
    assert any(a is code.var_edges for a in arrays())
    # var_edges slot j*m + c is the j-th variable of check c, checks ascending
    slots = code.checks.T.ravel()[code.var_edges]
    assert (slots == np.arange(code.n)[:, None]).all()
    var_checks = code.var_edges % code.m
    assert (np.diff(var_checks, axis=1) > 0).all()


def test_decoders_reject_irregular_matrix():
    code = LdpcCode(index_rows(BitMatrix.from_dense([[1, 1, 0], [0, 1, 1], [0, 0, 1]])), 3)
    with pytest.raises(ValueError, match="regular"):
        decode_bitflip(code, np.zeros(3, dtype=np.uint8))
    # rows of one weight, columns of two
    code = LdpcCode([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError, match="regular.*column weights range from 1 to 2"):
        decode_bitflip(code, np.zeros(3, dtype=np.uint8))


def test_checks_drop_padding_that_every_row_has(code2):
    padded = np.hstack([np.full((code2.m, 1), -1), code2.cols, np.full((code2.m, 1), -1)])
    assert np.array_equal(LdpcCode(padded, code2.n).checks, code2.checks)


@st.composite
def dense_matrices(draw):
    n_rows, n_cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    cells = draw(st.lists(st.floats(0, 1), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    dense = [[int(cells[i * n_cols + j] < density) for j in range(n_cols)]
             for i in range(n_rows)]
    return BitMatrix.from_dense(dense, n_cols)


@given(dense_matrices())
def test_girth_equals_pairwise_reference(H):
    assert girth_check(index_rows(H), H.n_cols) == girth_reference(H)


@pytest.mark.parametrize("q,system", [(3, "pl"), (4, "p1l1"), (5, "kim")])
def test_girth_equals_pairwise_reference_on_constructed(matrix, q, system):
    m = matrix(q, system)
    H = m.bits
    assert girth_check(m.cols, m.n_cols) == girth_reference(H) == GirthReport(True)
    # add one row covering two columns of row 0: the first pair is (0, m)
    cols = [c for c in range(H.n_cols) if H.get(0, c)][:2]
    bad = BitMatrix(H.rows + [(1 << cols[0]) | (1 << cols[1])], H.n_cols)
    assert girth_check(index_rows(bad), bad.n_cols) == girth_reference(bad) == GirthReport(
        False, rows=(0, H.n_rows), cols=tuple(cols))


@pytest.mark.parametrize("system", ["kim", "pl", "p1l1"])
@pytest.mark.parametrize("q", ALL_Q)
def test_transpose_kernel_equals_full_elimination(matrix, q, system):
    m = matrix(q, system)
    code_t = LdpcCode(m.cols, m.n_cols).transpose()
    ref = nullspace(transpose(m.bits))
    assert code_t.n == m.n_rows
    assert np.array_equal(code_t.cols, index_rows(transpose(m.bits)))
    assert (code_t.generator.basis, code_t.generator.pivot_cols) == (ref.basis, ref.pivot_cols)


@st.composite
def low_rank_matrices(draw):
    """H = A B with A m x r and B r x n, so rank(H) <= r."""
    m, n = draw(st.integers(0, 10)), draw(st.integers(1, 10))
    r = draw(st.integers(0, min(m, n)))
    B = draw(st.lists(st.integers(0, 2**n - 1), min_size=r, max_size=r))
    A = draw(st.lists(st.integers(0, 2**r - 1), min_size=m, max_size=m))
    rows = [functools.reduce(operator.xor, (B[j] for j in range(r) if a >> j & 1), 0)
            for a in A]
    return BitMatrix(rows, n)


@given(st.one_of(low_rank_matrices(), dense_matrices()))
@example(BitMatrix([], 5))  # no rows: P is empty
@example(BitMatrix.zeros(4, 6))  # rank 0: P is empty
@example(BitMatrix([0b011, 0b110, 0b111, 0b101], 3))  # full column rank: k = 0, P is every column
@example(BitMatrix([0b0110, 0b1010, 0b1100], 4))  # rank 2 < 3 rows
def test_transpose_kernel_equals_full_elimination_random(H):
    got = LdpcCode(index_rows(H), H.n_cols).transpose().generator
    ref = nullspace(transpose(H))
    assert (got.basis, got.pivot_cols, got.n_cols) == (ref.basis, ref.pivot_cols, ref.n_cols)
