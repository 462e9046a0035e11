"""LDPC codes on top of the constructed parity-check matrices.

Decoding and channel simulation are numpy-based.  Simulation transmits
the zero codeword (valid on a symmetric channel for a linear code) and
draws each trial's noise from its own generator, PCG64 seeded with
SeedSequence((seed, trial_index)); aggregate counts are plain integer
sums, so reports are bit-identical for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from lu3q.gf2 import BitMatrix, Subspace, nullspace, vec_to_bits


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    p: float
    seed: int

    def __post_init__(self):
        if self.kind != "bsc":
            raise ValueError(f"unsupported channel {self.kind!r}")
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"crossover probability {self.p} outside [0, 0.5]")


@dataclass
class DecodeResult:
    success: bool
    bits: np.ndarray
    iterations: int
    syndrome_weight: int


@dataclass(frozen=True)
class SimReport:
    trials: int
    bit_errors: int
    frame_errors: int
    undetected_errors: int
    ber: float
    fer: float
    decoder: str
    max_iters: int
    seed: int


@dataclass
class GirthReport:
    ok: bool
    rows: tuple[int, int] | None = None
    cols: tuple[int, int] | None = None


class LdpcCode:
    """A binary code given by a parity-check matrix."""

    def __init__(self, H: BitMatrix, provenance: str = ""):
        self.H = H
        self.n = H.n_cols
        self.m = H.n_rows
        self.generator: Subspace = nullspace(H)
        self.k = self.generator.dim
        self.rank = self.n - self.k
        self.provenance = provenance

    # dense arrays for the decoders, built on first use
    _H_np = cached_property(lambda self: self.H.to_numpy())
    _H_i64 = cached_property(lambda self: self._H_np.astype(np.int64))
    _HT_i64 = cached_property(lambda self: np.ascontiguousarray(self._H_i64.T))
    _var_degrees = cached_property(lambda self: self._H_i64.sum(axis=0))

    def encode(self, message) -> np.ndarray:
        message = np.asarray(message, dtype=np.uint8)
        if message.shape != (self.k,):
            raise ValueError(
                f"message length {message.shape} does not match k={self.k}"
            )
        word = 0
        for i in np.nonzero(message)[0]:
            word ^= self.generator.basis[int(i)]
        out = vec_to_bits(word, self.n)
        if self.syndrome(out).any():
            raise RuntimeError("generator basis produced a non-codeword")
        return out

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        return (self._H_np @ bits.astype(np.uint8)) & 1

    def is_codeword(self, bits: np.ndarray) -> bool:
        return not self.syndrome(bits).any()

    def min_weight_estimate(self, seed: int = 0, samples: int = 200) -> int:
        """Upper bound on the minimum distance from sampled codewords."""
        best = min(
            (r.bit_count() for r in self.generator.basis), default=0
        )
        if self.k == 0:
            return 0
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xD15))))
        for _ in range(samples):
            msg = rng.integers(0, 2, size=self.k, dtype=np.uint8)
            if not msg.any():
                continue
            word = 0
            for i in np.nonzero(msg)[0]:
                word ^= self.generator.basis[int(i)]
            w = word.bit_count()
            if 0 < w < best:
                best = w
        return best

    def __repr__(self) -> str:
        return f"LdpcCode(n={self.n}, k={self.k}, checks={self.m}, {self.provenance})"


def girth_check(H: BitMatrix) -> GirthReport:
    """ok iff no two rows share two columns (Tanner girth >= 6)."""
    rows = H.rows
    for i in range(len(rows)):
        ri = rows[i]
        if ri.bit_count() < 2:
            continue
        for j in range(i + 1, len(rows)):
            common = ri & rows[j]
            if common.bit_count() >= 2:
                c1 = (common & -common).bit_length() - 1
                common ^= common & -common
                c2 = (common & -common).bit_length() - 1
                return GirthReport(False, rows=(i, j), cols=(c1, c2))
    return GirthReport(True)


def bsc_llr(bit: int, p: float) -> float:
    """Log-likelihood ratio of a received BSC bit (positive favors 0)."""
    magnitude = math.inf if p == 0.0 else math.log((1 - p) / p)
    return (1 - 2 * bit) * magnitude


def decode_bitflip(code: LdpcCode, received: np.ndarray, max_iters: int = 50) -> DecodeResult:
    """Hard-decision flipping: flip bits violating a strict majority of
    their checks; exact half-splits stay put."""
    bits = np.asarray(received, dtype=np.int64).copy()
    if bits.shape != (code.n,):
        raise ValueError(f"received length {bits.shape} does not match n={code.n}")
    H = code._H_i64
    HT = code._HT_i64
    degrees = code._var_degrees
    syn = (H @ bits) & 1
    if not syn.any():
        return DecodeResult(True, bits.astype(np.uint8), 0, 0)
    for it in range(1, max_iters + 1):
        violations = HT @ syn
        flips = violations * 2 > degrees
        if not flips.any():
            return DecodeResult(False, bits.astype(np.uint8), it, int(syn.sum()))
        bits ^= flips
        syn = (H @ bits) & 1
        if not syn.any():
            return DecodeResult(True, bits.astype(np.uint8), it, 0)
    return DecodeResult(False, bits.astype(np.uint8), max_iters, int(syn.sum()))


def decode_minsum(
    code: LdpcCode,
    llr: np.ndarray,
    max_iters: int = 50,
    normalization: float = 0.75,
) -> DecodeResult:
    """Normalized min-sum with a flooding schedule.

    Check-to-variable messages take the sign product and the scaled
    minimum magnitude over the other edges; hard decisions are tested
    every iteration.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"llr length {llr.shape} does not match n={code.n}")
    if not 0.0 < normalization <= 1.0:
        raise ValueError("normalization must be in (0, 1]")
    H = code._H_np
    m, n = H.shape
    hard = (llr < 0).astype(np.uint8)
    syn = (H @ hard) & 1
    if not syn.any():
        return DecodeResult(True, hard, 0, 0)

    # edge layout: per-check rows padded to the maximum degree
    degrees = H.sum(axis=1)
    dmax = int(degrees.max())
    var_idx = np.full((m, dmax), n, dtype=np.int64)  # n = sentinel slot
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
        hard = (total_ext[:n] < 0).astype(np.uint8)
        syn = (H @ hard) & 1
        if not syn.any():
            return DecodeResult(True, hard, it, 0)
    return DecodeResult(False, hard, max_iters, int(syn.sum()))


def _run_trial(code, channel, decoder, max_iters, normalization, trial):
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((channel.seed, trial)))
    )
    flips = (rng.random(code.n) < channel.p).astype(np.uint8)
    if decoder == "bitflip":
        result = decode_bitflip(code, flips, max_iters=max_iters)
    elif decoder == "minsum":
        llr = (1.0 - 2.0 * flips) * bsc_llr(0, channel.p)
        result = decode_minsum(
            code, llr, max_iters=max_iters, normalization=normalization
        )
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    wrong = int(result.bits.sum())  # transmitted the zero codeword
    frame = wrong > 0
    undetected = result.success and frame
    return wrong, frame, undetected


def simulate(
    code: LdpcCode,
    channel: ChannelSpec,
    decoder: str = "minsum",
    trials: int = 100,
    max_iters: int = 50,
    normalization: float = 0.75,
    jobs: int = 1,
) -> SimReport:
    """Monte-Carlo decoding error rates on the BSC, zero codeword sent.

    Trials run in order on the calling thread.  ``jobs`` is accepted for
    compatibility and does not change the result.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    outcomes = [
        _run_trial(code, channel, decoder, max_iters, normalization, t)
        for t in range(trials)
    ]
    bit_errors = sum(o[0] for o in outcomes)
    frame_errors = sum(1 for o in outcomes if o[1])
    undetected = sum(1 for o in outcomes if o[2])
    return SimReport(
        trials=trials,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        undetected_errors=undetected,
        ber=bit_errors / (trials * code.n),
        fer=frame_errors / trials,
        decoder=decoder,
        max_iters=max_iters,
        seed=channel.seed,
    )
