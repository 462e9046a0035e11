"""Command-line interface: construct / rank / verify / formulas /
simulate / export.

Configuration can come from a JSON file (--config); explicit flags win
over file values.  Data output is deterministic for a fixed
configuration; log lines (with timestamps) go to stderr, controlled by
the LU3Q_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from dataclasses import dataclass

from lu3q.alist import read_alist, to_alist_text, write_alist
from lu3q.fields import factor_prime_power, field_for_order
from lu3q.formulas import predict, predict_even, predict_odd
from lu3q.geometry import enumerate_quadrangle
from lu3q.incidence import build_incidence, build_kim_matrix
from lu3q.ldpc import ChannelSpec, LdpcCode, simulate
from lu3q.verify import CHECK_GROUPS, run_checks

log = logging.getLogger("lu3q")

SIM_CSV_HEADER = [
    "q", "system", "transposed", "channel", "p", "decoder", "max_iters",
    "trials", "bit_errors", "frame_errors", "ber", "fer", "seed",
]


@dataclass
class RunConfig:
    """Effective settings shared by every subcommand (flags over file)."""

    q: int
    system: str = "kim"
    checks: str = "all"
    seed: int = 0
    out: str | None = None
    irr: tuple[int, ...] | None = None
    as_json: bool = False


def _parse_irr(text: str | None):
    if not text:
        return None
    return tuple(int(c) for c in text.split(","))


def _merge(args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config_data", {})
    return cfg.get(key, default)


def _run_config(args, parser) -> RunConfig:
    q = _merge(args, "q")
    if q is None:
        parser.error("--q is required")
    try:
        factor_prime_power(int(q))
    except ValueError:
        parser.error(f"{q} is not a prime power")
    return RunConfig(
        q=int(q),
        system=_merge(args, "system", "kim"),
        checks=str(_merge(args, "checks", "all")),
        seed=int(_merge(args, "seed", 0) or 0),
        out=_merge(args, "out"),
        irr=_parse_irr(_merge(args, "irr")),
        as_json=bool(_merge(args, "json", False)),
    )


def _build_matrix(q: int, system: str, irr):
    F = field_for_order(q, irr)
    if system == "kim":
        return build_kim_matrix(F)
    return build_incidence(enumerate_quadrangle(F), system)


def cmd_construct(args, parser) -> int:
    cfg = _run_config(args, parser)
    if args.list_what:
        Q = enumerate_quadrangle(field_for_order(cfg.q, cfg.irr))
        out = io.StringIO()
        if args.list_what == "points":
            out.write("index c0 c1 c2 c3\n")
            for i, v in enumerate(Q.points):
                out.write(f"{i} {v[0]} {v[1]} {v[2]} {v[3]}\n")
        else:
            out.write("index basis_row1 basis_row2 n_points\n")
            for l in Q.lines:
                r1 = ",".join(map(str, l.basis[0]))
                r2 = ",".join(map(str, l.basis[1]))
                out.write(f"{l.index} {r1} {r2} {len(l.points)}\n")
        sys.stdout.write(out.getvalue())
        return 0
    if cfg.out is None:
        parser.error("construct needs --list or --system with --out")
    m = _build_matrix(cfg.q, cfg.system, cfg.irr)
    write_alist(m.bits, cfg.out)
    log.info("wrote %s (%dx%d) to %s", cfg.system, m.n_rows, m.n_cols, cfg.out)
    return 0


def cmd_rank(args, parser) -> int:
    cfg = _run_config(args, parser)
    pred = predict(cfg.q)
    expected = pred.rank_pl if cfg.system == "pl" else pred.rank_p1l1
    m = _build_matrix(cfg.q, cfg.system, cfg.irr)
    got = m.rank
    ok = got == expected
    payload = {
        "q": cfg.q,
        "system": cfg.system,
        "rank": got,
        "predicted": expected,
        "match": ok,
    }
    if cfg.system == "kim":
        code = LdpcCode(m.bits, f"kim q={cfg.q}")
        code_t = LdpcCode(m.bits.transpose(), f"kim-transpose q={cfg.q}")
        payload["dim_code"] = code.k
        payload["dim_code_transpose"] = code_t.k
        payload["min_weight_upper_bound"] = code.min_weight_estimate(seed=cfg.seed)
        payload["min_weight_upper_bound_transpose"] = code_t.min_weight_estimate(
            seed=cfg.seed
        )
    if cfg.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"system {cfg.system} at q={cfg.q}: rank {got}, predicted {expected}, "
              f"{'PASS' if ok else 'FAIL'}")
        if cfg.system == "kim":
            print(
                f"code dimensions: {payload['dim_code']} (parity-check H), "
                f"{payload['dim_code_transpose']} (parity-check H^T); "
                f"sampled minimum-weight upper bounds "
                f"{payload['min_weight_upper_bound']} / "
                f"{payload['min_weight_upper_bound_transpose']}"
            )
    return 0 if ok else 1


def cmd_verify(args, parser) -> int:
    cfg = _run_config(args, parser)
    q = cfg.q
    if cfg.checks == "all":
        groups = set(CHECK_GROUPS)
    else:
        groups = set(filter(None, cfg.checks.split(",")))
        unknown = groups - set(CHECK_GROUPS)
        if unknown:
            parser.error(f"unknown checks: {', '.join(sorted(unknown))}")
        if not groups:
            parser.error("--checks selects no check group")
    outcomes = run_checks(q, groups, irr=cfg.irr, seed=cfg.seed)
    failed = any(o.failed for o in outcomes)
    if cfg.as_json:
        print(
            json.dumps(
                {
                    "q": q,
                    "checks": [
                        {
                            "group": o.group,
                            "name": o.name,
                            "anchor": o.anchor,
                            "status": o.status,
                            "detail": o.detail,
                        }
                        for o in outcomes
                    ],
                    "ok": not failed,
                },
                sort_keys=True,
            )
        )
    else:
        width = max(len(o.name) for o in outcomes) if outcomes else 0
        for o in outcomes:
            print(f"[{o.group:>8}] {o.name:<{width}}  {o.status:<13} {o.anchor}"
                  + (f"  ({o.detail})" if o.detail else ""))
        print(f"verify q={q}: {'FAIL' if failed else 'OK'}")
    return 1 if failed else 0


def cmd_formulas(args, parser) -> int:
    t_max = _merge(args, "t_max", 5)
    q_odd = _merge(args, "q_odd", "3,5,7,9")
    odd_list = [int(x) for x in str(q_odd).split(",") if x]
    rows = []
    for t in range(1, int(t_max) + 1):
        p = predict_even(t)
        rows.append(
            {"q": p.q, "parity": "even", "rank_pl": p.rank_pl,
             "rank_p1l1": p.rank_p1l1, "dim_lu": p.dim_lu}
        )
    for q in odd_list:
        p = predict_odd(q)
        rows.append(
            {"q": p.q, "parity": "odd", "rank_pl": p.rank_pl,
             "rank_p1l1": p.rank_p1l1, "dim_lu": p.dim_lu}
        )
    if _merge(args, "json", False):
        print(json.dumps(rows, sort_keys=True))
    else:
        print("q parity rank_pl rank_p1l1 dim_lu")
        for r in rows:
            print(f"{r['q']} {r['parity']} {r['rank_pl']} {r['rank_p1l1']} {r['dim_lu']}")
    return 0


def cmd_simulate(args, parser) -> int:
    cfg = _run_config(args, parser)
    channel = _merge(args, "channel", "bsc")
    decoder = _merge(args, "decoder", "minsum")
    trials = int(_merge(args, "trials", 1000))
    max_iters = int(_merge(args, "max_iters", 50))
    normalization = float(_merge(args, "normalization", 0.75))
    jobs = int(_merge(args, "jobs", 1))
    transpose = bool(_merge(args, "transpose", False))
    ps = [float(x) for x in str(_merge(args, "p", "0.01")).split(",")]
    m = _build_matrix(cfg.q, cfg.system, cfg.irr)
    H = m.bits.transpose() if transpose else m.bits
    code = LdpcCode(H, f"{cfg.system} q={cfg.q}{' transposed' if transpose else ''}")
    log.info("simulating %s: n=%d k=%d", code.provenance, code.n, code.k)
    rows = []
    for p in ps:
        rep = simulate(
            code,
            ChannelSpec(channel, p, cfg.seed),
            decoder=decoder,
            trials=trials,
            max_iters=max_iters,
            normalization=normalization,
            jobs=jobs,
        )
        log.info(
            "%s p=%r: trials by iteration count %s, stuck %d",
            decoder, p,
            {i: c for i, c in enumerate(rep.iteration_histogram) if c}, rep.stuck,
        )
        rows.append(
            [cfg.q, cfg.system, int(transpose), channel, repr(p), decoder,
             max_iters, trials, rep.bit_errors, rep.frame_errors,
             repr(rep.ber), repr(rep.fer), cfg.seed]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIM_CSV_HEADER)
    writer.writerows(rows)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def cmd_export(args, parser) -> int:
    cfg = _run_config(args, parser)
    fmt = _merge(args, "format", "alist")
    if cfg.out is None:
        parser.error("export needs --out")
    m = _build_matrix(cfg.q, cfg.system, cfg.irr)
    if fmt == "alist":
        write_alist(m.bits, cfg.out)
        back = read_alist(cfg.out)
        if to_alist_text(back) != to_alist_text(m.bits):
            print("round-trip mismatch", file=sys.stderr)
            return 1
    elif fmt == "csv":
        with open(cfg.out, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in m.bits.to_dense():
                writer.writerow(row)
    else:
        parser.error(f"unknown format {fmt!r}")
    log.info("exported %s q=%d as %s to %s", cfg.system, cfg.q, fmt, cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lu3q",
        description="incidence systems of the symplectic quadrangle as LDPC codes",
    )
    parser.add_argument("--config", help="JSON config file; flags win on conflict")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, system=True):
        sp.add_argument("--q", type=int)
        sp.add_argument("--irr", help="comma-separated defining polynomial, constant first")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--json", action="store_true", default=None)
        if system:
            sp.add_argument("--system", choices=["pl", "p1l1", "kim"])

    sp = sub.add_parser("construct", help="enumerate geometry or export a matrix")
    common(sp)
    sp.add_argument("--list", dest="list_what", choices=["points", "lines"])
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("rank", help="computed vs predicted rank")
    common(sp)
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("verify", help="run structural check suites")
    common(sp, system=False)
    sp.add_argument("--checks", help="all or comma list of: " + ",".join(CHECK_GROUPS))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("formulas", help="closed-form prediction tables")
    sp.add_argument("--t-max", dest="t_max", type=int)
    sp.add_argument("--q-odd", dest="q_odd")
    sp.add_argument("--json", action="store_true", default=None)
    sp.set_defaults(func=cmd_formulas)

    sp = sub.add_parser("simulate", help="Monte-Carlo decoding on the BSC")
    common(sp)
    sp.add_argument("--transpose", action="store_true", default=None)
    sp.add_argument("--channel", choices=["bsc"])
    sp.add_argument("--p", help="crossover probability, or comma list")
    sp.add_argument("--decoder", choices=["bitflip", "minsum"])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--max-iters", dest="max_iters", type=int)
    sp.add_argument("--normalization", type=float)
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("export", help="write a matrix as alist or dense CSV")
    common(sp)
    sp.add_argument("--format", choices=["alist", "csv"])
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("LU3Q_LOG_LEVEL", "WARNING"),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    config_data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config_data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(config_data, dict):
            parser.error(f"config {args.config} is not a JSON object")
    args._config_data = config_data
    try:
        return args.func(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:  # only --out is opened by a subcommand
        parser.error(f"cannot write {exc.filename}: {exc.strerror}")
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
