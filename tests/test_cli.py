import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lu3q
import lu3q.polyfn
from lu3q.alist import read_alist
from lu3q.cli import SIM_CSV_HEADER, main
from lu3q.fields import field_for_order
from lu3q.incidence import IncidenceMatrix, build_kim_matrix
from test_acceptance import ALL_Q
from test_alist import reference_alist_text
from test_incidence import count_eliminations


def lu3q_env():
    """The environment for running lu3q in a child process from this tree."""
    src = str(Path(lu3q.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_q2_all_passes(capsys):
    code, out = run(capsys, "verify", "--q", "2", "--checks", "all")
    assert code == 0
    assert "verify q=2: OK" in out
    assert "FAIL" not in out.replace("EXPECTED-FAIL", "")


def test_verify_rejects_non_prime_power(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "6"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, prefix", [
    (["verify", "--q"], "lu3q: error: "),
    (["formulas", "--q-odd"], "lu3q formulas: error: argument --q-odd: "),
], ids=["verify", "formulas"])
def test_an_order_past_the_bound_is_a_usage_error_at_once(argv, prefix):
    # factoring 2^61 - 1 by trial division would run for hours
    done = subprocess.run([sys.executable, "-m", "lu3q", *argv, str(2**61 - 1)],
                          env=lu3q_env(), capture_output=True, text=True, timeout=20)
    assert done.returncode == 2
    assert f"{prefix}{2**61 - 1} exceeds the largest supported order 2^40" in done.stderr
    assert "Traceback" not in done.stderr


def test_verify_grid_odd_q_expected_fail(capsys):
    code, out = run(capsys, "verify", "--q", "3", "--checks", "grid")
    assert code == 0
    assert "EXPECTED-FAIL" in out


def test_verify_poly_q4_reports_known_failure(capsys):
    # the digit-span containment fails beyond q=2 (see README); the
    # table reports FAIL honestly and the exit code follows
    code, out = run(capsys, "verify", "--q", "4", "--checks", "poly")
    assert code == 1
    assert "FAIL" in out
    assert "verify q=4: FAIL" in out


def test_verify_output_survives_optimize():
    # python -O strips assert statements; every check must still run
    # and print the same table
    env = lu3q_env()
    argv = ["-m", "lu3q", "verify", "--q", "4", "--checks", "all"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True,
                       text=True, timeout=300)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 1  # the refuted digit-span row
    assert "verify q=4" in plain.stdout
    assert optimized.stdout == plain.stdout


def test_verify_unknown_check_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--checks", "bogus"])
    assert exc.value.code == 2


def test_verify_json_schema(capsys):
    code, out = run(capsys, "verify", "--q", "2", "--checks", "counts,formulas", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["q"] == 2
    assert {c["status"] for c in payload["checks"]} == {"PASS"}


def test_export_alist_h32(capsys, tmp_path):
    out_file = tmp_path / "h32.alist"
    code, _ = run(capsys, "export", "--q", "2", "--system", "kim",
                  "--format", "alist", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "8 8"
    assert lines[1] == "2 2"
    cols, n_cols = read_alist(out_file)
    assert len(cols) == n_cols == 8


def test_export_alist_pl_q4(capsys, tmp_path):
    out_file = tmp_path / "pl4.alist"
    code, _ = run(capsys, "export", "--q", "4", "--system", "pl",
                  "--format", "alist", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "85 85"
    assert lines[1] == "5 5"


def test_export_csv(capsys, tmp_path):
    out_file = tmp_path / "m.csv"
    code, _ = run(capsys, "export", "--q", "2", "--system", "p1l1",
                  "--format", "csv", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert len(rows) == 8
    assert all(len(r.split(",")) == 8 for r in rows)


def test_export_csv_kim_q4_equals_the_bits_of_its_rows(capsys, tmp_path):
    # the CSV, written from the index rows a slice of rows at a time,
    # against a text built bit by bit from the int rows
    out_file = tmp_path / "kim4.csv"
    code, _ = run(capsys, "export", "--q", "4", "--system", "kim",
                  "--format", "csv", "--out", str(out_file))
    assert code == 0
    m = build_kim_matrix(field_for_order(4)).bits
    want = "".join(
        ",".join(str(r >> j & 1) for j in range(m.n_cols)) + "\n" for r in m.rows
    )
    assert m.n_rows == 64 and out_file.read_bytes() == want.encode()


def test_export_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.alist", tmp_path / "b.alist"
    run(capsys, "export", "--q", "2", "--system", "kim", "--out", str(a))
    run(capsys, "export", "--q", "2", "--system", "kim", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_construct_list_points(capsys):
    code, out = run(capsys, "construct", "--q", "2", "--list", "points")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index")
    assert len(lines) == 16  # header + 15 points
    assert lines[1] == "0 0 0 0 1"


def test_construct_list_lines(capsys):
    code, out = run(capsys, "construct", "--q", "2", "--list", "lines")
    assert code == 0
    assert len(out.strip().splitlines()) == 16


@pytest.mark.parametrize("what", ["points", "lines"])
def test_construct_list_writes_out(capsys, tmp_path, what):
    _, listing = run(capsys, "construct", "--q", "3", "--list", what)
    out_file = tmp_path / f"{what}.txt"
    code, out = run(capsys, "construct", "--q", "3", "--list", what, "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_bytes() == listing.encode()


def test_construct_writes_alist(capsys, tmp_path):
    out_file = tmp_path / "m.alist"
    code, _ = run(capsys, "construct", "--q", "2", "--system", "p1l1",
                  "--out", str(out_file))
    assert code == 0
    assert len(read_alist(out_file)[0]) == 8


def test_rank_pass(capsys):
    code, out = run(capsys, "rank", "--q", "2", "--system", "p1l1")
    assert code == 0
    assert "rank 6, predicted 6, PASS" in out


def test_rank_kim_reports_both_codes(capsys):
    code, out = run(capsys, "rank", "--q", "2", "--system", "kim", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["dim_code"] == payload["dim_code_transpose"] == 2
    assert payload["min_weight_upper_bound"] >= 1


# (q, rank, dim of both codes, min-weight bounds of H and H^T), the same
# for seeds 0 and 1000
RANK_KIM = [
    (2, 6, 2, 4, 4),
    (3, 19, 8, 8, 6),
    (4, 42, 22, 8, 8),
    (5, 81, 44, 22, 10),
    (8, 282, 230, 16, 16),
    (9, 433, 296, 108, 18),
    pytest.param(16, 1858, 2238, 32, 32, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("q,rank,k,w,w_t", RANK_KIM)
@pytest.mark.parametrize("seed", ["0", "1000"])
def test_rank_kim_output_bytes(capsys, q, rank, k, w, w_t, seed):
    code, out = run(capsys, "rank", "--q", str(q), "--system", "kim", "--seed", seed)
    assert code == 0
    assert out == (
        f"system kim at q={q}: rank {rank}, predicted {rank}, PASS\n"
        f"code dimensions: {k} (parity-check H), {k} (parity-check H^T); "
        f"sampled minimum-weight upper bounds {w} / {w_t}\n"
    )
    code, out = run(capsys, "rank", "--q", str(q), "--system", "kim", "--seed", seed, "--json")
    assert code == 0
    assert out == (
        f'{{"dim_code": {k}, "dim_code_transpose": {k}, "match": true, '
        f'"min_weight_upper_bound": {w}, "min_weight_upper_bound_transpose": {w_t}, '
        f'"predicted": {rank}, "q": {q}, "rank": {rank}, "system": "kim"}}\n'
    )


VERIFY_PINS = Path(__file__).parent / "verify_pins"


@pytest.mark.parametrize("q", ALL_Q)
def test_verify_output_bytes(capsys, q):
    # the whole table and its JSON, byte for byte; the poly rows read
    # the restriction kernel through whichever basis the span checks give
    for suffix, flags in ((".txt", []), (".json", ["--json"])):
        code, out = run(capsys, "verify", "--q", str(q), "--checks", "all", *flags)
        assert out == (VERIFY_PINS / f"q{q}{suffix}").read_text()
        # the digit-span row fails by design at q = 4 and 8
        assert code == (1 if q in (4, 8) else 0)


def test_verify_runs_no_dict_polynomial(capsys, monkeypatch):
    # the poly rows work on coefficient arrays: every product, reduction
    # and digit-tuple expansion on dict polynomials is made to fail
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"verify called {name}")
        return call

    for name in ("delta_line", "p_mul", "reduce_mod_I", "build_beta", "in_span_beta"):
        orig = getattr(lu3q.polyfn, name)
        for mod in [m for k, m in sys.modules.items() if k == "lu3q" or k.startswith("lu3q.")]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, forbidden(name))
    for q, status in ((2, 0), (4, 1)):
        for suffix, flags in ((".txt", []), (".json", ["--json"])):
            code, out = run(capsys, "verify", "--q", str(q), "--checks", "all", *flags)
            assert out == (VERIFY_PINS / f"q{q}{suffix}").read_text()
            assert code == status


def test_rank_kim_eliminates_H_once(capsys, monkeypatch):
    calls = count_eliminations(monkeypatch)
    code, _ = run(capsys, "rank", "--q", "4", "--system", "kim")
    assert code == 0
    # all 64 rows of H, then only the 42 rows of H^T at H's pivot columns
    assert calls == [(64, False), (42, False)]


def test_simulate_runs_no_elimination(capsys, monkeypatch):
    calls = count_eliminations(monkeypatch)
    code, _ = run(capsys, "simulate", "--q", "4", "--system", "kim", "--transpose",
                  "--trials", "5")
    assert code == 0
    assert calls == []


def forbid_incidence_bits(monkeypatch):
    """Make packing an incidence matrix into bits fail."""
    def packing(self):
        raise AssertionError(f"{self.system} packed into bits")

    monkeypatch.setattr(IncidenceMatrix, "bits", property(packing))


# simulate's CSV rows, --trials 40 --seed 3 --max-iters 20, as the
# decoders gave them when the codes were read from packed bits
SIMULATE_PINS = [
    (["--q", "8", "--system", "kim", "--decoder", "minsum", "--p", "0.05,0.07"],
     ["8,kim,0,bsc,0.05,minsum,20,40,0,0,0.0,0.0,3",
      "8,kim,0,bsc,0.07,minsum,20,40,72,2,0.003515625,0.05,3"]),
    (["--q", "8", "--system", "kim", "--decoder", "bitflip", "--p", "0.03,0.05"],
     ["8,kim,0,bsc,0.03,bitflip,20,40,8,1,0.000390625,0.025,3",
      "8,kim,0,bsc,0.05,bitflip,20,40,776,4,0.037890625,0.1,3"]),
    (["--q", "4", "--system", "pl", "--transpose", "--decoder", "bitflip", "--p", "0.02,0.05"],
     ["4,pl,1,bsc,0.02,bitflip,20,40,4,1,0.001176470588235294,0.025,3",
      "4,pl,1,bsc,0.05,bitflip,20,40,260,12,0.07647058823529412,0.3,3"]),
]


@pytest.mark.parametrize("argv, rows", SIMULATE_PINS, ids=["kim-minsum", "kim-bitflip",
                                                          "pl-transposed"])
def test_simulate_packs_no_incidence_bits(capsys, monkeypatch, argv, rows):
    forbid_incidence_bits(monkeypatch)
    code, out = run(capsys, "simulate", *argv, "--trials", "40", "--seed", "3",
                    "--max-iters", "20")
    assert code == 0
    assert out.splitlines() == [",".join(SIM_CSV_HEADER)] + rows


def test_rank_and_verify_pack_no_incidence_bits(capsys, monkeypatch):
    forbid_incidence_bits(monkeypatch)
    code, out = run(capsys, "rank", "--q", "8", "--system", "kim")
    assert code == 0
    assert out == (
        "system kim at q=8: rank 282, predicted 282, PASS\n"
        "code dimensions: 230 (parity-check H), 230 (parity-check H^T); "
        "sampled minimum-weight upper bounds 16 / 16\n"
    )
    # the girth row runs at q=8, and the digit-span row fails by design
    code, out = run(capsys, "verify", "--q", "8", "--checks", "all")
    assert code == 1
    assert out == (VERIFY_PINS / "q8.txt").read_text()


@pytest.mark.parametrize("system", ["pl", "p1l1", "kim"])
def test_export_packs_no_incidence_bits(capsys, monkeypatch, tmp_path, matrix, system):
    m = matrix(4, system).bits
    alist = reference_alist_text(m)
    dense = "".join(",".join(str(r >> j & 1) for j in range(m.n_cols)) + "\n" for r in m.rows)
    forbid_incidence_bits(monkeypatch)
    for argv, want in ((["construct"], alist), (["export", "--format", "alist"], alist),
                       (["export", "--format", "csv"], dense)):
        out_file = tmp_path / "out"
        code, _ = run(capsys, *argv, "--q", "4", "--system", system, "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == want


def test_formulas_table(capsys):
    code, out = run(capsys, "formulas", "--t-max", "2", "--q-odd", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q parity rank_pl rank_p1l1 dim_lu"
    assert "2 even 10 6 2" in lines
    assert "4 even 50 42 22" in lines
    assert "3 odd 25 19 8" in lines


def test_simulate_csv_stdout(capsys):
    code, out = run(capsys, "simulate", "--q", "2", "--system", "kim",
                    "--channel", "bsc", "--p", "0.0,0.1", "--decoder", "bitflip",
                    "--trials", "20", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("q,system,transposed,channel,p,decoder,max_iters,"
                        "trials,bit_errors,frame_errors,ber,fer,seed")
    assert len(lines) == 3
    p0 = lines[1].split(",")
    assert p0[4] == "0.0" and p0[10] == "0.0" and p0[11] == "0.0"


def test_simulate_deterministic_output(capsys, tmp_path):
    args = ["simulate", "--q", "2", "--system", "kim", "--p", "0.2",
            "--decoder", "minsum", "--trials", "30", "--seed", "11"]
    c1, out1 = run(capsys, *args)
    c2, out2 = run(capsys, *args)
    assert c1 == c2 == 0
    assert out1 == out2


def test_simulate_logs_decoder_statistics_to_stderr_only(capsys, caplog):
    args = ["simulate", "--q", "4", "--system", "kim", "--p", "0.05,0.1",
            "--decoder", "bitflip", "--trials", "30", "--seed", "3"]
    _, quiet = run(capsys, *args)
    with caplog.at_level(logging.INFO, logger="lu3q"):
        _, loud = run(capsys, *args)
    assert loud == quiet
    stats = [r.getMessage() for r in caplog.records if "iteration count" in r.getMessage()]
    assert [s.split(":")[0] for s in stats] == ["bitflip p=0.05", "bitflip p=0.1"]


def test_simulate_transpose_flag(capsys):
    code, out = run(capsys, "simulate", "--q", "2", "--system", "kim",
                    "--transpose", "--p", "0.0", "--decoder", "bitflip",
                    "--trials", "5", "--seed", "1")
    assert code == 0
    assert ",1,bsc," in out.strip().splitlines()[1]


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "system": "p1l1"}))
    code, out = run(capsys, "--config", str(cfg), "rank")
    assert code == 0
    assert "system p1l1 at q=2" in out


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 2, "system": "p1l1"}))
    code, out = run(capsys, "--config", str(cfg), "rank", "--system", "kim")
    assert code == 0
    assert "system kim at q=2" in out


def test_irr_override(capsys):
    # GF(8) with the non-default irreducible x^3 + x^2 + 1: ranks unchanged
    code, out = run(capsys, "rank", "--q", "8", "--system", "kim",
                    "--irr", "1,0,1,1")
    assert code == 0
    assert "rank 282, predicted 282, PASS" in out


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("construct", []),
    ("export", []),
    ("simulate", ["--trials", "2"]),
])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, command, extra):
    target = tmp_path / "missing" / "x"
    err = usage_error(capsys, command, "--q", "2", "--system", "kim",
                      "--out", str(target), *extra)
    assert f"lu3q: error: cannot write {target}: No such file or directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("via_config", [False, True])
def test_negative_t_max_is_a_usage_error(capsys, tmp_path, via_config):
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_max": -2}))
        err = usage_error(capsys, "--config", str(cfg), "formulas")
    else:
        err = usage_error(capsys, "formulas", "--t-max", "-2")
    assert "lu3q: error: --t-max must be >= 0, got -2" in err


def test_config_must_be_a_json_object(capsys, tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    err = usage_error(capsys, "--config", str(cfg), "verify")
    assert f"lu3q: error: config {cfg} is not a JSON object" in err


@pytest.mark.parametrize("checks", ["", ","])
def test_verify_rejects_an_empty_check_list(capsys, checks):
    err = usage_error(capsys, "verify", "--q", "2", "--checks", checks)
    assert "lu3q: error: --checks selects no check group" in err


@pytest.mark.parametrize("command", ["rank", "simulate"])
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, command):
    err = usage_error(capsys, command, "--q", "2", "--seed", "-1")
    assert "lu3q: error: --seed must be >= 0, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--q", "2", "--p", "abc"],
     "lu3q simulate: error: argument --p: 'abc' is not a number"),
    (["simulate", "--q", "2", "--p", ","],
     "lu3q simulate: error: argument --p: '' is not a number"),
    (["rank", "--q", "2", "--irr", "a"],
     "lu3q rank: error: argument --irr: 'a' is not an integer"),
    (["formulas", "--q-odd", "x"],
     "lu3q formulas: error: argument --q-odd: 'x' is not an odd prime power"),
    (["formulas", "--q-odd", "3,4"],
     "lu3q formulas: error: argument --q-odd: '4' is not an odd prime power"),
], ids=["p-abc", "p-comma", "irr-a", "q-odd-x", "q-odd-4"])
def test_a_bad_list_item_is_a_usage_error_naming_the_flag(capsys, argv, message):
    err = usage_error(capsys, *argv)
    assert message in err
    assert "Traceback" not in err


def test_verify_takes_a_negative_seed(capsys):
    code, out = run(capsys, "verify", "--q", "2", "--checks", "gq", "--seed", "-1")
    assert code == 0
    assert out.endswith("verify q=2: OK\n")


@pytest.mark.parametrize("command, config", [
    ("rank", {"q": [4]}),
    ("rank", {"q": 2, "irr": 5}),
    ("rank", {"q": 2.7}),
    ("rank", {"q": 2, "json": "no"}),
    ("rank", {"q": 2, "seed": [1]}),
    ("simulate", {"q": 2, "trials": 2.9}),
    ("simulate", {"q": 2, "out": 1}),
])
def test_config_entry_is_parsed_by_its_flag(capsys, tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    err = usage_error(capsys, "--config", str(cfg), command)
    assert f"lu3q {command}: error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config, key, reason", [
    ({"q": 2, "trials": 2.9}, "trials", "argument --trials: invalid int value: '2.9'"),
    ({"q": 2, "decoder": "x"}, "decoder", "argument --decoder: invalid choice: 'x'"),
    ({"q": 2, "max_iters": "many"}, "max_iters",
     "argument --max-iters: invalid int value: 'many'"),
    ({"q": 2, "out": 1}, "out", "does not fit --out: 1"),
])
def test_config_error_names_the_file_and_the_key(capsys, tmp_path, config, key, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    err = usage_error(capsys, "--config", str(cfg), "simulate")
    assert f"lu3q simulate: error: config {cfg} entry {key!r}" in err
    assert reason in err


def test_config_ignores_flags_the_subcommand_lacks(capsys, tmp_path):
    # true turns a switch on, null leaves the default, and trials is not
    # a flag of rank, so its value is never parsed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"q": 2, "system": "p1l1", "json": True, "seed": None, "trials": 2.9}))
    code, out = run(capsys, "--config", str(cfg), "rank")
    assert code == 0
    assert json.loads(out)["system"] == "p1l1"
