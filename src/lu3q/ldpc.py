"""LDPC codes on top of the constructed parity-check matrices.

A code holds H as index rows, as ``IncidenceMatrix.cols`` does:
``checks``, the variables of each check, is that array, and
``var_edges``, read from it on first use, the edge slots of each
variable in ascending check order.  Syndromes, the encoder's codeword
check and both decoders run on it.  Bits are packed only to eliminate H,
and the rows of H^T at H's pivot columns for the H^T code; those rows,
and ``girth_check``'s pairs, come from ``transpose_indices``.

Simulation transmits the zero codeword (valid on a symmetric channel for
a linear code) and draws each trial's noise from its own generator,
PCG64 seeded with SeedSequence((seed, trial_index)).  Trials are decoded
in blocks, one frame per column, and a frame leaves its block as soon as
it converges, stalls or reaches the iteration cap.  Every step acts on
each frame alone, and min-sum adds a variable's check messages in
ascending check order, so a frame decodes to the same bits whichever
block it is in.  Aggregate counts are integer sums, so reports are
bit-identical for a fixed seed.

Min-sum's check update gives each edge the least magnitude over the
other edges of its check, from running minima: a forward pass over the
edges before it, a backward pass over those after it.  A minimum is one
of its arguments, so this is bit for bit the min1/min2 rule (the
second-least magnitude on an edge holding the least, the least
elsewhere), ties and signed zeros included.  Only +-inf LLRs make a NaN
magnitude (inf - inf), and a NaN makes its whole check NaN, as under
the min1/min2 rule.  ``decode_minsum`` refuses a NaN LLR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from lu3q.gf2 import BitMatrix, Subspace, nullspace, pack_indices, transpose_indices

# Bytes of float64 check-to-variable messages per simulation block.
_BLOCK_BYTES = 1 << 20


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
    """Error counts of a simulation, with exact decoder statistics.

    ``iteration_histogram[i]`` counts the trials that left the decoder
    after i iterations (0 for a received word that is already a
    codeword); ``stuck`` counts bit-flipping trials that stopped on a
    round with no flip.
    """

    trials: int
    bit_errors: int
    frame_errors: int
    undetected_errors: int
    ber: float
    fer: float
    decoder: str
    max_iters: int
    seed: int
    iteration_histogram: tuple[int, ...]
    stuck: int


@dataclass
class GirthReport:
    ok: bool
    rows: tuple[int, int] | None = None
    cols: tuple[int, int] | None = None


def _degree(degrees: np.ndarray, what: str) -> int:
    """The common number of edges at each node, given the nodes' counts."""
    if degrees.size and (degrees != degrees[0]).any():
        raise ValueError(
            f"the decoders need a regular parity-check matrix; {what} "
            f"weights range from {degrees.min()} to {degrees.max()}"
        )
    return int(degrees[0]) if degrees.size else 0


class LdpcCode:
    """A binary code of length n given by the index rows ``cols`` (m, w)
    of a parity-check matrix: row i lists the columns of the 1s of check
    i in ascending order, and -1 sets no bit, as in ``pack_indices``."""

    def __init__(self, cols: np.ndarray, n: int, provenance: str = ""):
        self.cols = np.asarray(cols, dtype=np.intp)
        self.n = n
        self.m = len(self.cols)
        self.provenance = provenance

    @cached_property
    def generator(self) -> Subspace:
        """The canonical basis of the code, ker(H); eliminated on first use."""
        return nullspace(BitMatrix(pack_indices(self.cols, self.n), self.n))

    @property
    def k(self) -> int:
        return self.generator.dim

    @property
    def rank(self) -> int:
        return self.n - self.k

    def transpose(self, provenance: str = "") -> "LdpcCode":
        """The code with parity-check matrix H^T, its kernel read off this
        code's elimination of H.

        Let R be the highest-bit RREF of H and P its pivot columns, the
        columns that ``generator`` leaves free.  Each row h of H is
        sum_{p in P} h[p] R_p, so H = C R with C = H[:, P], and R has
        full row rank, so ker(H^T) = ker(C^T).  The rows of C^T are the
        rows P of H^T and are independent, and ``nullspace`` returns a
        canonical basis, so the result equals nullspace(H^T) bit for bit.
        """
        in_P = np.ones(self.n, dtype=bool)
        in_P[self.generator.pivot_cols] = False
        cols_t = transpose_indices(self.cols, self.n)
        # the rows P go in reverse order: the same basis, and a faster
        # elimination on kim (rank --q 32 --system kim 72 -> 52 s, 2 cores)
        generator = nullspace(BitMatrix(pack_indices(cols_t[in_P][::-1], self.m), self.m))
        code = LdpcCode(cols_t, self.m, provenance)
        code.generator = generator
        return code

    @cached_property
    def checks(self) -> np.ndarray:
        """(m, d_c): the variables of each check, ascending; ``cols`` unpadded."""
        cols = self.cols
        d_c = _degree(np.count_nonzero(cols >= 0, axis=1), "row")
        return cols if d_c == cols.shape[1] else cols[cols >= 0].reshape(self.m, d_c)

    @cached_property
    def var_edges(self) -> np.ndarray:
        """(n, d_v): the edge slots of each variable, in ascending check order.

        Slot j*m + c is the j-th variable of check c, so the slots index
        ``checks.T`` and the (d_c, m, ...) message arrays, flattened.  They
        are int32 below 2^31 edges; the decoders copy them to intp once
        per call, as np.take would on every call.
        """
        m, d_c = self.checks.shape
        n_edges = m * d_c
        d_v = _degree(np.bincount(self.checks.ravel(), minlength=self.n), "column")
        # edge e = c*d_c + j of variable v gets the key v*n_edges + e, one
        # key per edge, so sorting the keys in place orders the edges by
        # variable, then by check
        keys = np.multiply(self.checks, n_edges, dtype=np.int64)
        keys += np.arange(0, n_edges, d_c)[:, None]
        keys += np.arange(d_c)
        keys = keys.ravel()
        keys.sort()
        edges = np.remainder(keys, n_edges, out=keys)
        slots = np.remainder(edges, d_c, dtype=np.int32 if n_edges < 2**31 else np.intp)
        slots *= m
        slots += np.floor_divide(edges, d_c, out=edges)
        return slots.reshape(self.n, d_v)

    def encode(self, message) -> np.ndarray:
        message = np.asarray(message, dtype=np.uint8)
        if message.shape != (self.k,):
            raise ValueError(
                f"message length {message.shape} does not match k={self.k}"
            )
        word = np.bitwise_xor.reduce(self.generator.basis.words[message != 0], keepdims=True)
        out = BitMatrix(word, self.n).to_numpy()[0]
        if self.syndrome(out).any():
            raise RuntimeError("generator basis produced a non-codeword")
        return out

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """Check parities of ``bits``, shape (n,) or (n, frames)."""
        return _parities(np.asarray(bits).astype(np.uint8), self.checks.T)

    def is_codeword(self, bits: np.ndarray) -> bool:
        return not self.syndrome(bits).any()

    def min_weight_estimate(self, seed: int = 0, samples: int = 200) -> int:
        """Upper bound on the minimum distance: the least weight of a basis
        row or of a sampled nonzero codeword.

        Sample s is the sum of the basis rows its message selects, drawn
        by the s-th ``rng.integers`` call.  The sums of all samples are
        taken eight basis rows at a time, from a table of the 256 sums of
        those rows indexed by each message's byte for them.
        """
        basis = self.generator.basis
        if not basis.n_rows:
            return 0
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xD15))))
        msgs = np.empty((samples, self.k), dtype=np.uint8)
        for msg in msgs:
            msg[:] = rng.integers(0, 2, size=self.k, dtype=np.uint8)
        selects = np.packbits(msgs, axis=1, bitorder="little")  # byte j: rows 8j..8j+7
        width = basis.words.shape[1]
        words = np.zeros((samples, width), dtype=np.uint64)
        table = np.zeros((256, width), dtype=np.uint64)
        for j in range(selects.shape[1]):
            for b, row in enumerate(basis.words[8 * j : 8 * j + 8]):
                np.bitwise_xor(table[: 1 << b], row, out=table[1 << b : 2 << b])
            words ^= table[selects[:, j]]
        weights = np.bitwise_count(words).sum(axis=1)  # 0 only for an all-zero message
        return int(np.min(weights[weights > 0], initial=min(basis.row_weights())))

    def __repr__(self) -> str:
        return f"LdpcCode(n={self.n}, k={self.k}, checks={self.m}, {self.provenance})"


def girth_check(cols: np.ndarray, n_cols: int) -> GirthReport:
    """ok iff no two rows of the index rows ``cols`` share two columns
    (Tanner girth >= 6).

    Each column, a row of the transpose, contributes the pairs of its
    rows; a four-cycle is a row pair contributed twice.  A failing report
    names the lexicographically first such pair and the two lowest
    columns it shares.
    """
    n_rows = len(cols)
    by_col = transpose_indices(cols, n_cols)
    a, b = np.triu_indices(by_col.shape[1], 1)
    # padding ends a row, so a column with a row at slot b has one at a < b
    col, pair = np.nonzero(by_col[:, b] >= 0)
    keys = by_col[col, a[pair]] * n_rows + by_col[col, b[pair]]
    order = np.argsort(keys, kind="stable")  # ascending column within a key
    keys, key_cols = keys[order], col[order]
    repeats = np.flatnonzero(keys[1:] == keys[:-1])
    if not repeats.size:
        return GirthReport(True)
    i = int(repeats[0])
    r1, r2 = divmod(int(keys[i]), n_rows)
    return GirthReport(False, rows=(r1, r2), cols=(int(key_cols[i]), int(key_cols[i + 1])))


def _parities(bits: np.ndarray, check_vars: np.ndarray) -> np.ndarray:
    """Check parities of the uint8 ``bits`` (n, ...), given ``checks.T``.

    The decoders pass ``checks.T`` C-ordered, made once per call: np.take
    copies an index array of any other order on every call.
    """
    return np.bitwise_xor.reduce(np.take(bits, check_vars, axis=0), axis=0) & 1


def bsc_llr(bit: int, p: float) -> float:
    """Log-likelihood ratio of a received BSC bit (positive favors 0)."""
    magnitude = math.inf if p == 0.0 else math.log((1 - p) / p)
    return (1 - 2 * bit) * magnitude


def _bitflip(code: LdpcCode, bits: np.ndarray, max_iters: int):
    """Bit-flipping on the frames in the columns of ``bits`` (n, T), in place.

    Each round flips the bits that violate a strict majority of their
    checks.  Returns each frame's iteration count and whether it stalled
    on a round with no flip.
    """
    iterations = np.zeros(bits.shape[1], dtype=np.intp)
    stalled = np.zeros(bits.shape[1], dtype=bool)
    check_vars = np.ascontiguousarray(code.checks.T)
    var_checks = np.remainder(code.var_edges.T, code.m, order="C", dtype=np.intp)
    half = var_checks.shape[0] // 2
    syn = _parities(bits, check_vars)
    busy = syn.any(axis=0)
    live = np.flatnonzero(busy)
    # live frames are compacted with compress, which keeps arrays C-ordered
    frames, syn = bits.compress(busy, axis=1), syn.compress(busy, axis=1)
    for it in range(1, max_iters + 1):
        if not live.size:
            break
        iterations[live] = it
        flips = np.take(syn, var_checks, axis=0).sum(axis=0, dtype=np.uint16) > half
        moving = flips.any(axis=0)
        stalled[live[~moving]] = True
        frames ^= flips
        syn = _parities(frames, check_vars)
        busy = moving & syn.any(axis=0)
        bits[:, live[~busy]] = frames[:, ~busy]
        live, frames, syn = live[busy], frames.compress(busy, axis=1), syn.compress(busy, axis=1)
    bits[:, live] = frames
    return iterations, stalled


def _decide(total: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Hard decisions; a zero total keeps the received bit."""
    return (total < 0) | ((total == 0) & received)


def _check_messages(v2c: np.ndarray, c2v: np.ndarray, normalization: float) -> None:
    """Overwrite the check-to-variable messages c2v, shape (d_c, m, frames).

    ``v2c`` holds the variables' totals on each edge and is used as
    scratch.  A message takes the sign product and the scaled least
    magnitude over the other edges of its check: the minimum of the
    edges before it, from a forward pass, and of those after it, from a
    backward pass.  A NaN magnitude makes its whole check NaN.
    """
    v2c -= c2v
    neg = v2c < 0
    mags = np.abs(v2c, out=v2c)
    c2v[0] = np.inf
    for j in range(1, len(mags)):  # c2v[j] = min(mags[:j])
        np.minimum(c2v[j - 1], mags[j - 1], out=c2v[j])
    for j in range(len(mags) - 2, -1, -1):  # mags[j] = min(mags[j:])
        np.minimum(c2v[j], mags[j + 1], out=c2v[j])
        np.minimum(mags[j], mags[j + 1], out=mags[j])
    nan = np.isnan(mags[0])  # np.minimum carries a NaN to the all-edge minimum
    if nan.any():
        c2v[:, nan] = np.nan
    c2v *= normalization
    neg ^= np.logical_xor.reduce(neg, axis=0)
    c2v *= 1 - 2 * neg.view(np.int8)  # exact sign flips


def _minsum(code: LdpcCode, llr: np.ndarray, max_iters: int, normalization: float):
    """Normalized min-sum, flooding schedule, on the frames in the columns
    of ``llr`` (n, T).

    Returns the hard decisions (n, T) and each frame's iteration count.
    """
    received = np.signbit(llr)  # a zero LLR keeps its sign bit, -0.0 for a 1
    hard = _decide(llr, received).astype(np.uint8)
    iterations = np.zeros(llr.shape[1], dtype=np.intp)
    check_vars = np.ascontiguousarray(code.checks.T)
    var_edges = np.ascontiguousarray(code.var_edges.T, dtype=np.intp)
    busy = _parities(hard, check_vars).any(axis=0)
    live = np.flatnonzero(busy)
    # llr, received, total and c2v hold the live frames only: they are
    # compacted, and the leaving frames' decisions written out, only on
    # an iteration where a frame leaves
    llr, received = llr.compress(busy, axis=1), received.compress(busy, axis=1)
    total = llr
    c2v = np.zeros((*check_vars.shape, live.size))
    for it in range(1, max_iters + 1):
        if not live.size:
            break
        iterations[live] = it
        _check_messages(np.take(total, check_vars, axis=0), c2v, normalization)
        # each total adds its messages in ascending check order, so the
        # float sums do not depend on the block
        total = llr.copy()
        for slots in var_edges:
            total += np.take(c2v.reshape(-1, live.size), slots, axis=0)
        decided = _decide(total, received)
        busy = _parities(decided.view(np.uint8), check_vars).any(axis=0)
        if it == max_iters:
            hard[:, live] = decided
        elif not busy.all():
            hard[:, live[~busy]] = decided[:, ~busy]
            live, total, c2v = live[busy], total.compress(busy, axis=1), c2v.compress(busy, axis=2)
            llr, received = llr.compress(busy, axis=1), received.compress(busy, axis=1)
    return hard, iterations


def _single(code: LdpcCode, bits: np.ndarray, iterations: np.ndarray) -> DecodeResult:
    weight = int(code.syndrome(bits[:, 0]).sum())
    return DecodeResult(weight == 0, bits[:, 0], int(iterations[0]), weight)


def _check_params(max_iters: int, normalization: float = 0.75) -> None:
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if not 0.0 < normalization <= 1.0:
        raise ValueError("normalization must be in (0, 1]")


def decode_bitflip(code: LdpcCode, received: np.ndarray, max_iters: int = 50) -> DecodeResult:
    """Hard-decision flipping: flip bits violating a strict majority of
    their checks; exact half-splits stay put."""
    bits = np.array(received, dtype=np.uint8)
    if bits.shape != (code.n,):
        raise ValueError(f"received length {bits.shape} does not match n={code.n}")
    _check_params(max_iters)
    bits = bits[:, None]
    iterations, _ = _bitflip(code, bits, max_iters)
    return _single(code, bits, iterations)


def decode_minsum(
    code: LdpcCode,
    llr: np.ndarray,
    max_iters: int = 50,
    normalization: float = 0.75,
) -> DecodeResult:
    """Normalized min-sum with a flooding schedule.

    Check-to-variable messages take the sign product and the scaled
    minimum magnitude over the other edges; hard decisions are tested
    every iteration, and a zero total LLR decides the received bit.
    A NaN LLR is a ValueError; +-inf LLRs are allowed.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"llr length {llr.shape} does not match n={code.n}")
    bad = np.flatnonzero(np.isnan(llr))
    if bad.size:
        raise ValueError(f"llr[{bad[0]}] is NaN")
    _check_params(max_iters, normalization)
    hard, iterations = _minsum(code, llr[:, None], max_iters, normalization)
    return _single(code, hard, iterations)


def _bsc_flips(code: LdpcCode, channel: ChannelSpec, trials: range) -> np.ndarray:
    """Channel flips (n, len(trials)); trial t draws from SeedSequence((seed, t))."""
    flips = np.empty((code.n, len(trials)), dtype=np.uint8)
    for i, t in enumerate(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((channel.seed, t))))
        flips[:, i] = rng.random(code.n) < channel.p
    return flips


def simulate(
    code: LdpcCode,
    channel: ChannelSpec,
    decoder: str = "minsum",
    trials: int = 100,
    max_iters: int = 50,
    normalization: float = 0.75,
) -> SimReport:
    """Monte-Carlo decoding error rates on the BSC, zero codeword sent.

    Trials are decoded in blocks sized so that a block's messages take
    about 1 MB; the result does not depend on the grouping.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if decoder not in ("bitflip", "minsum"):
        raise ValueError(f"unknown decoder {decoder!r}")
    _check_params(max_iters, normalization if decoder == "minsum" else 0.75)
    block = max(1, _BLOCK_BYTES // (8 * max(code.checks.size, 1)))
    histogram = np.zeros(max_iters + 1, dtype=np.int64)
    bit_errors = frame_errors = undetected = stuck = 0
    for start in range(0, trials, block):
        flips = _bsc_flips(code, channel, range(start, min(start + block, trials)))
        if decoder == "bitflip":
            bits = flips
            iterations, stalled = _bitflip(code, bits, max_iters)
            stuck += int(stalled.sum())
        else:
            llr = (1.0 - 2.0 * flips) * bsc_llr(0, channel.p)
            bits, iterations = _minsum(code, llr, max_iters, normalization)
        wrong = bits.sum(axis=0)  # transmitted the zero codeword
        frame = wrong > 0
        success = ~code.syndrome(bits).any(axis=0)
        bit_errors += int(wrong.sum())
        frame_errors += int(frame.sum())
        undetected += int((success & frame).sum())
        histogram += np.bincount(iterations, minlength=max_iters + 1)
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
        iteration_histogram=tuple(int(c) for c in histogram),
        stuck=stuck,
    )
