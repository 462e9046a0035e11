"""One workload process: set up, run timed rounds, report as JSON.

Started by run.py.  Everything the workload does runs in this one
process on one thread; the program's stdout is captured per command and
handed back, and run.py checks it after this process has ended, so the
checks cost no time here and do not raise this process's peak RSS.

Modes:
  probe    set up (interpreter, ``import lu3q``, warm-up) and stop;
  measure  set up, then repeat whole rounds for about --seconds;
  trace    as measure, then one more round with tracing on.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lu3q.cli  # noqa: E402  (part of the measured set-up)
import lu3q.ldpc  # noqa: E402

from calib import Kernel, Sampler  # noqa: E402
from workloads import commands, round_seed, warmup  # noqa: E402


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Runner:
    """Runs lu3q commands in-process and keeps what they print."""

    def __init__(self):
        self.undetected: list[int] = []

        def simulate(*args, **kwargs):
            report = lu3q.ldpc.simulate(*args, **kwargs)
            self.undetected.append(report.undetected_errors)
            return report

        # SimReport.undetected_errors is not in the CSV; keep it for the checks.
        lu3q.cli.simulate = simulate
        self.main = lu3q.cli.main

    def __call__(self, argv: list[str]) -> dict:
        self.undetected.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return {"rc": rc, "stdout": buf.getvalue(), "undetected": list(self.undetected)}


def _round(runner: Runner, sampler: Sampler, workload: str, seed: int) -> dict:
    outs, raw, job, scales = [], 0.0, 0.0, []
    for argv in commands(workload, seed):
        out, seconds, scale = sampler.run(lambda: runner(argv))
        outs.append(out)
        raw += seconds
        job += seconds * scale
        scales.append(scale)
    return {"seed": seed, "raw_s": raw, "job_s": job, "scales": scales, "outputs": outs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["probe", "measure", "trace"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    runner = Runner()
    sampler = Sampler(Kernel())
    for argv in warmup(args.workload):
        sampler.run(lambda: runner(argv))
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode == "probe":
        print(json.dumps(result))
        return 0

    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(_round(runner, sampler, args.workload, round_seed(args.seed, len(rounds))))
        now = time.monotonic()
        # Start another round only if it should end within --seconds.
        if now - start + (now - t0) > args.seconds:
            break
    result["rounds"] = rounds
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(sampler)
        tracer.install()
        runner.main = tracer.wrap("cli", runner.main)
        try:
            traced = _round(runner, sampler, args.workload, rounds[0]["seed"])
        finally:
            tracer.uninstall()
            runner.main = lu3q.cli.main
        scale = traced["job_s"] / traced["raw_s"]
        traced["layers"] = tracer.summary(scale)
        result["traced"] = traced
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"columns": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)

    result["calibration_samples"] = sampler.samples
    result["threads"] = _threads()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
