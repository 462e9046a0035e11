"""The four workloads: lu3q command lines made from the seed.

Each workload is a list of ``lu3q`` argument vectors that make up one
round; a run repeats whole rounds.  Round r of a run with seed n passes
``--seed round_seed(n, r)`` to lu3q.  A fresh seed per round matters
for decode-q8: how many frames hit the iteration cap depends on the
noise, so the median over rounds with different noise is steadier than
one draw repeated.  The warm-up runs the same commands at a small q, so
that lazy imports and interpreter warm-up are paid before the first
timed command and not inside it.
"""

from __future__ import annotations

DECODE_Q = 8
DECODE_TRIALS = 200
DECODE_MAX_ITERS = 50
# Each decoder runs at a crossover inside its waterfall, so frames that
# converge in a few iterations mix with frames that hit the cap.
BITFLIP_P = 0.04
MINSUM_P = 0.07


def _simulate(q: int, decoder: str, p: float, trials: int, seed: int) -> list[str]:
    return [
        "simulate", "--q", str(q), "--system", "kim", "--channel", "bsc",
        "--decoder", decoder, "--p", repr(p), "--trials", str(trials),
        "--max-iters", str(DECODE_MAX_ITERS), "--seed", str(seed),
    ]


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argument vectors of one timed round."""
    if workload == "verify-q16":
        return [["verify", "--q", "16", "--checks", "all", "--json", "--seed", str(seed)]]
    if workload == "verify-q8":
        return [["verify", "--q", "8", "--checks", "all", "--json", "--seed", str(seed)]]
    if workload == "rank-q16":
        return [["rank", "--q", "16", "--system", "kim", "--json", "--seed", str(seed)]]
    if workload == "decode-q8":
        return [
            _simulate(DECODE_Q, "bitflip", BITFLIP_P, DECODE_TRIALS, seed),
            _simulate(DECODE_Q, "minsum", MINSUM_P, DECODE_TRIALS, seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list[list[str]]:
    """Untimed commands of the same kind at a small q."""
    if workload.startswith("verify"):
        return [["verify", "--q", "2", "--checks", "all", "--json"]]
    if workload == "rank-q16":
        return [["rank", "--q", "4", "--system", "kim", "--json"]]
    if workload == "decode-q8":
        return [
            _simulate(4, "bitflip", BITFLIP_P, 5, 0),
            _simulate(4, "minsum", MINSUM_P, 5, 0),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-q16", "verify-q8", "rank-q16", "decode-q8")

# The groups of `lu3q verify --checks all`; each has a verify.<group>_s metric.
CHECK_GROUPS = (
    "counts", "gq", "grid", "spans", "kernel",
    "poly", "iso", "girth", "rank", "formulas",
)
