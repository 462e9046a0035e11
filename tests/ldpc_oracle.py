"""References for ``lu3q.ldpc``: the sampled minimum weight one sample at
a time, and the min1/min2 check update of min-sum.

``LdpcCode.min_weight_estimate`` sums the basis rows of every sample at
once, eight rows at a time through a table of their 256 sums.
``min_weight_estimate`` here draws the same messages and adds each
one's basis rows as Python ints, so the tests can compare the two.

``ldpc._check_messages`` takes each message's magnitude as the least
over the other edges of its check, from running minima.
``check_messages`` is the classic form: the least and second-least
magnitude of each check, min2 on the edges equal to min1 and min1
elsewhere, and a whole check NaN when any of its magnitudes is NaN.
"""

import numpy as np


def min_weight_estimate(code, seed: int = 0, samples: int = 200) -> int:
    """Least weight of a basis row or of a sampled nonzero codeword."""
    basis = code.generator.basis.rows
    best = min((r.bit_count() for r in basis), default=0)
    if code.k == 0:
        return 0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xD15))))
    for _ in range(samples):
        msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        if not msg.any():
            continue
        word = 0
        for i in np.nonzero(msg)[0]:
            word ^= basis[int(i)]
        w = word.bit_count()
        if 0 < w < best:
            best = w
    return best


def check_messages(v2c: np.ndarray, c2v: np.ndarray, normalization: float) -> None:
    """Overwrite c2v (d_c, m, frames) from the totals on each edge, v2c
    (used as scratch), by the min1/min2 rule."""
    v2c -= c2v
    neg = v2c < 0
    mags = np.abs(v2c, out=v2c)
    min1, min2 = mags[0], np.full_like(mags[0], np.inf)
    for row in mags[1:]:
        min2 = np.minimum(min2, np.maximum(min1, row))
        min1 = np.minimum(min1, row)
    np.copyto(c2v, min1)
    np.copyto(c2v, min2, where=mags == min1)  # the minimum's own edge
    c2v *= normalization
    neg ^= np.logical_xor.reduce(neg, axis=0)
    c2v *= 1 - 2 * neg.view(np.int8)  # exact sign flips
