"""Benchmark of the lu3q command line: verify, rank and simulate.

    python3 perfbench/run.py --workload verify-q16 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (``src/lu3q`` must be there).
It times set-up in separate probe processes, then runs the workload in
one worker process (worker.py) for about --seconds, checks every output
the worker captured against the independent computations in checks.py,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, job_s and peak_rss_mb; with
--trace 1 the worker runs one more round with tracing on, and the
metrics are the per-layer numbers (see README.md).  Run outputs and
span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 6  # plus the worker's own set-up: the median of 7 is reported
DEADLINE_S = 170.0


def _worker(args, mode: str, deadline: float, trace_file: str | None = None) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checker(workload: str):
    """check(seed, outputs) -> problems in one round's outputs."""
    if workload == "verify-q16":
        return lambda seed, outs: checks.check_verify(16, outs[0], None)
    if workload == "verify-q8":
        escapes = checks.digit_escapes(8)
        return lambda seed, outs: checks.check_verify(8, outs[0], escapes)
    if workload == "rank-q16":
        return lambda seed, outs: checks.check_rank(16, outs[0])

    from lu3q.fields import field_for_order
    from lu3q.incidence import build_kim_matrix

    q, trials, iters = wl.DECODE_Q, wl.DECODE_TRIALS, wl.DECODE_MAX_ITERS
    kim = checks.kim_checks(q)
    H = build_kim_matrix(field_for_order(q)).bits
    if [sum(1 << int(c) for c in row) for row in kim] != H.rows:
        return lambda seed, outs: ["lu3q's kim matrix differs from the benchmark's"]

    def check(seed, outs):
        problems = []
        for out, decoder, p in ((outs[0], "bitflip", wl.BITFLIP_P),
                                (outs[1], "minsum", wl.MINSUM_P)):
            flips = checks.bsc_flips(seed, trials, q**3, p)
            if decoder == "bitflip":
                ref = checks.bitflip_reference(kim, flips, iters)
            else:
                ref = checks.minsum_reference(kim, flips, p, iters)
            problems += checks.check_decode(out, q, decoder, p, trials, iters, seed, ref)
        return problems

    return check


def _expected_rc(workload: str) -> int:
    # verify at q=8 reports the refuted digit-span claim and exits 1.
    return 1 if workload == "verify-q8" else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="a non-negative integer")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "lu3q", "cli.py")):
        print(f"lu3q sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = [_worker(args, "probe", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    trace_file = os.path.join(OUT_DIR, f"spans-{tag}.json") if args.trace else None
    res = _worker(args, "trace" if args.trace else "measure", deadline, trace_file)
    setups.append(res["setup_s"])

    want_rc = _expected_rc(args.workload)
    check = _checker(args.workload)
    attempted = failed = 0
    problems: list[str] = []
    for rnd in res["rounds"] + ([res["traced"]] if args.trace else []):
        for out in rnd["outputs"]:
            attempted += 1
            failed += out["rc"] != want_rc
        if all(o["rc"] == want_rc for o in rnd["outputs"]):
            problems += check(rnd["seed"], rnd["outputs"])
    if args.trace and res["traced"]["outputs"] != res["rounds"][0]["outputs"]:
        problems.append("stdout differs with tracing on and off")
    if res["threads"] > (os.cpu_count() or 1):
        problems.append(f"worker ran {res['threads']} threads")

    jobs = [r["job_s"] for r in res["rounds"]]
    if args.trace:
        layers = dict(res["traced"]["layers"])
        layers["bench.calibration_s"] = statistics.median(res["calibration_samples"])
        layers["bench.job_raw_s"] = statistics.median(r["raw_s"] for r in res["rounds"])
        layers["bench.tracing_overhead_s"] = res["traced"]["job_s"] - statistics.median(jobs)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s": {"value": statistics.median(jobs), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump({"summary": summary, "setups": setups, "problems": problems,
                   "threads": res["threads"],
                   "rounds": [{k: r[k] for k in ("seed", "raw_s", "job_s", "scales")}
                              for r in res["rounds"]]}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_frame"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
