"""The sampled minimum weight one sample at a time: the reference for
``LdpcCode.min_weight_estimate``.

The program sums the basis rows of every sample at once, eight rows at
a time through a table of their 256 sums.  This loop draws the same
messages and adds each one's basis rows as Python ints, so the tests
can compare the two.
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
