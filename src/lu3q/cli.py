"""Command-line interface: construct / rank / verify / formulas /
simulate / export.

Configuration can come from a JSON file (--config): each entry is
parsed by the flag it names, and explicit flags win over file values.
Data output is deterministic for a fixed configuration; log lines (with
timestamps) go to stderr, controlled by the LU3Q_LOG_LEVEL environment
variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import sys

import numpy as np

from lu3q.alist import read_alist, to_alist_text, write_alist
from lu3q.fields import MAX_ORDER, factor_prime_power, field_for_order
from lu3q.formulas import predict, predict_even, predict_odd
from lu3q.geometry import enumerate_quadrangle
from lu3q.gf2 import rank2, transpose_indices
from lu3q.incidence import build_incidence, build_kim_matrix
from lu3q.ldpc import ChannelSpec, LdpcCode, simulate
from lu3q.verify import CHECK_GROUPS, MAX_Q_ELIMINATION, run_checks

log = logging.getLogger("lu3q")

SIM_CSV_HEADER = [
    "q", "system", "transposed", "channel", "p", "decoder", "max_iters",
    "trials", "bit_errors", "frame_errors", "ber", "fer", "seed",
]


def _items(items, convert, what: str) -> tuple:
    """Each item read by ``convert``; one it cannot read is named in the flag's usage error."""
    out = []
    for item in items:
        try:
            out.append(convert(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{item!r} is not {what}") from None
    return tuple(out)


def _odd_prime_power(item: str) -> int:
    """An odd prime power; one above ``MAX_ORDER`` is refused with the bound's
    own message rather than as "not an odd prime power"."""
    q = int(item)
    try:
        return predict_odd(q).q
    except ValueError as exc:
        if q > MAX_ORDER:
            raise argparse.ArgumentTypeError(str(exc)) from None
        raise


def _build_matrix(args):
    F = field_for_order(args.q, args.irr)
    if args.system == "kim":
        return build_kim_matrix(F)
    return build_incidence(enumerate_quadrangle(F), args.system)


def _write(text: str, out: str | None) -> None:
    """text to the file ``out``, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args, parser) -> int:
    if args.list_what:
        Q = enumerate_quadrangle(field_for_order(args.q, args.irr))
        out = io.StringIO()
        if args.list_what == "points":
            out.write("index c0 c1 c2 c3\n")
            for i, v in enumerate(Q.points.tolist()):
                out.write(f"{i} {v[0]} {v[1]} {v[2]} {v[3]}\n")
        else:
            out.write("index basis_row1 basis_row2 n_points\n")
            for l, ((u, w), pts) in enumerate(zip(Q.bases.tolist(), Q.line_pts.tolist())):
                r1 = ",".join(map(str, u))
                r2 = ",".join(map(str, w))
                out.write(f"{l} {r1} {r2} {len(pts)}\n")
        _write(out.getvalue(), args.out)
        return 0
    if args.out is None:
        parser.error("construct needs --list or --system with --out")
    m = _build_matrix(args)
    write_alist(m.cols, m.n_cols, args.out)
    log.info("wrote %s (%dx%d) to %s", args.system, m.n_rows, m.n_cols, args.out)
    return 0


def cmd_rank(args, parser) -> int:
    field_for_order(args.q, args.irr)  # an order with no field is refused first
    if args.q > MAX_Q_ELIMINATION:
        parser.error(f"size policy caps rank at q <= {MAX_Q_ELIMINATION}, got {args.q}")
    pred = predict(args.q)
    expected = pred.rank_pl if args.system == "pl" else pred.rank_p1l1
    m = _build_matrix(args)
    payload = {"q": args.q, "system": args.system, "predicted": expected}
    if args.system == "kim":
        code = LdpcCode(m.cols, m.n_cols, f"kim q={args.q}")
        code_t = code.transpose(f"kim-transpose q={args.q}")
        got = code.rank  # n - k: one elimination of H serves both codes
        payload["dim_code"] = code.k
        payload["dim_code_transpose"] = code_t.k
        payload["min_weight_upper_bound"] = code.min_weight_estimate(seed=args.seed)
        payload["min_weight_upper_bound_transpose"] = code_t.min_weight_estimate(
            seed=args.seed
        )
    else:
        got = rank2(m.bits)
    ok = got == expected
    payload.update(rank=got, match=ok)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"system {args.system} at q={args.q}: rank {got}, predicted {expected}, "
              f"{'PASS' if ok else 'FAIL'}")
        if args.system == "kim":
            print(
                f"code dimensions: {payload['dim_code']} (parity-check H), "
                f"{payload['dim_code_transpose']} (parity-check H^T); "
                f"sampled minimum-weight upper bounds "
                f"{payload['min_weight_upper_bound']} / "
                f"{payload['min_weight_upper_bound_transpose']}"
            )
    return 0 if ok else 1


def cmd_verify(args, parser) -> int:
    if args.checks == "all":
        groups = set(CHECK_GROUPS)
    else:
        groups = set(filter(None, args.checks.split(",")))
        unknown = groups - set(CHECK_GROUPS)
        if unknown:
            parser.error(f"unknown checks: {', '.join(sorted(unknown))}")
        if not groups:
            parser.error("--checks selects no check group")
    outcomes = run_checks(args.q, groups, irr=args.irr, seed=args.seed)
    failed = any(o.failed for o in outcomes)
    if args.json:
        checks = [dataclasses.asdict(o) for o in outcomes]
        print(json.dumps({"q": args.q, "checks": checks, "ok": not failed}, sort_keys=True))
    else:
        width = max(len(o.name) for o in outcomes) if outcomes else 0
        for o in outcomes:
            print(f"[{o.group:>8}] {o.name:<{width}}  {o.status:<13} {o.anchor}"
                  + (f"  ({o.detail})" if o.detail else ""))
        print(f"verify q={args.q}: {'FAIL' if failed else 'OK'}")
    return 1 if failed else 0


def cmd_formulas(args, parser) -> int:
    if args.t_max < 0:
        parser.error(f"--t-max must be >= 0, got {args.t_max}")
    rows = []
    for t in range(1, args.t_max + 1):
        p = predict_even(t)
        rows.append(
            {"q": p.q, "parity": "even", "rank_pl": p.rank_pl,
             "rank_p1l1": p.rank_p1l1, "dim_lu": p.dim_lu}
        )
    for q in args.q_odd:
        p = predict_odd(q)
        rows.append(
            {"q": p.q, "parity": "odd", "rank_pl": p.rank_pl,
             "rank_p1l1": p.rank_p1l1, "dim_lu": p.dim_lu}
        )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print("q parity rank_pl rank_p1l1 dim_lu")
        for r in rows:
            print(f"{r['q']} {r['parity']} {r['rank_pl']} {r['rank_p1l1']} {r['dim_lu']}")
    return 0


def cmd_simulate(args, parser) -> int:
    m = _build_matrix(args)
    H = (transpose_indices(m.cols, m.n_cols), m.n_rows) if args.transpose else (m.cols, m.n_cols)
    code = LdpcCode(*H, f"{args.system} q={args.q}{' transposed' if args.transpose else ''}")
    del m, H  # with --transpose the code holds H^T's rows, and m's are freed
    if log.isEnabledFor(logging.INFO):  # k costs an elimination the decoders do not need
        k = code.k if args.q <= MAX_Q_ELIMINATION else (
            f"not computed (size policy caps eliminations at q <= {MAX_Q_ELIMINATION})")
        log.info("simulating %s: n=%d k=%s", code.provenance, code.n, k)
    rows = []
    for p in args.p:
        rep = simulate(
            code,
            ChannelSpec(args.channel, p, args.seed),
            decoder=args.decoder,
            trials=args.trials,
            max_iters=args.max_iters,
            normalization=args.normalization,
        )
        log.info(
            "%s p=%r: trials by iteration count %s, stuck %d",
            args.decoder, p,
            {i: c for i, c in enumerate(rep.iteration_histogram) if c}, rep.stuck,
        )
        rows.append(
            [args.q, args.system, int(args.transpose), args.channel, repr(p), args.decoder,
             args.max_iters, args.trials, rep.bit_errors, rep.frame_errors,
             repr(rep.ber), repr(rep.fer), args.seed]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIM_CSV_HEADER)
    writer.writerows(rows)
    _write(buf.getvalue(), args.out)
    return 0


def cmd_export(args, parser) -> int:
    if args.out is None:
        parser.error("export needs --out")
    m = _build_matrix(args)
    if args.format == "alist":
        text = to_alist_text(m.cols, m.n_cols)
        _write(text, args.out)
        if to_alist_text(*read_alist(args.out)) != text:
            print("round-trip mismatch", file=sys.stderr)
            return 1
    else:  # "0,1,...,1\n" per row, 64 rows at a time
        with open(args.out, "wb") as fh:
            for s in range(0, m.n_rows, 64):
                block = m.cols[s : s + 64]
                text = np.full((len(block), 2 * m.n_cols), ord(","), np.uint8)
                text[:, ::2] = ord("0")
                text[np.nonzero(block >= 0)[0], 2 * block[block >= 0]] = ord("1")
                text[:, -1] = ord("\n")
                fh.write(text.tobytes())
    log.info("exported %s q=%d as %s to %s", args.system, args.q, args.format, args.out)
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
        sp.add_argument("--irr", help="comma-separated defining polynomial, constant first",
                        type=lambda s: _items(s.split(","), int, "an integer") if s else None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true")
        if system:
            sp.add_argument("--system", choices=["pl", "p1l1", "kim"], default="kim")

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
    sp.add_argument("--checks", default="all",
                    help="all or comma list of: " + ",".join(CHECK_GROUPS))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("formulas", help="closed-form prediction tables")
    sp.add_argument("--t-max", dest="t_max", type=int, default=5)
    sp.add_argument("--q-odd", dest="q_odd", default="3,5,7,9", type=lambda s: _items(
        filter(None, s.split(",")), _odd_prime_power, "an odd prime power"))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_formulas)

    sp = sub.add_parser("simulate", help="Monte-Carlo decoding on the BSC")
    common(sp)
    sp.add_argument("--transpose", action="store_true")
    sp.add_argument("--channel", choices=["bsc"], default="bsc")
    sp.add_argument("--p", default="0.01", help="crossover probability, or comma list",
                    type=lambda s: _items(s.split(","), float, "a number"))
    sp.add_argument("--decoder", choices=["bitflip", "minsum"], default="minsum")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=50)
    sp.add_argument("--normalization", type=float, default=0.75)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("export", help="write a matrix as alist or dense CSV")
    common(sp)
    sp.add_argument("--format", choices=["alist", "csv"], default="alist")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_export)

    return parser


def _install_config(parser, command: str, config: dict, path: str) -> None:
    """Make the config entries that name flags of `command` its defaults.

    Each entry is parsed by its flag as if typed: a string is the flag's
    text, a number suits only a numeric flag, true turns a switch on,
    and null or false leaves the flag out.  Other keys are ignored.  An
    entry that does not parse is a usage error naming the file and key.
    """
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    tokens = []
    for action in sub._actions:
        value = config.get(action.dest)
        if not action.option_strings or value is None or value is False:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0 and value is True:
            token = flag
        elif action.nargs != 0 and (
            isinstance(value, str)
            or (type(value) in (int, float) and action.type in (int, float))
        ):
            token = f"{flag}={value}"
        else:
            sub.error(
                f"config {path} entry {action.dest!r} does not fit {flag}: "
                f"{json.dumps(value)}"
            )
        sub.exit_on_error = False  # raise the flag's error to name the entry
        try:
            sub.parse_args([token])
        except argparse.ArgumentError as exc:
            sub.error(f"config {path} entry {action.dest!r}: {exc}")
        finally:
            sub.exit_on_error = True
        tokens.append(token)
    sub.set_defaults(**vars(sub.parse_args(tokens)))


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("LU3Q_LOG_LEVEL", "WARNING"),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config {args.config} is not a JSON object")
        _install_config(parser, args.command, config, args.config)
        args = parser.parse_args(argv)  # explicit flags win over the file
    if "q" in vars(args):  # every subcommand but formulas
        if args.q is None:
            parser.error("--q is required")
        try:
            factor_prime_power(args.q)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command in ("rank", "simulate") and args.seed < 0:  # numpy's generators
        parser.error(f"--seed must be >= 0, got {args.seed}")
    try:
        return args.func(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:  # only --out is opened by a subcommand
        parser.error(f"cannot write {exc.filename}: {exc.strerror}")
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
