"""Tests for the batch command line front end.

Runs go through ``rsasian.cli.main`` in process; the acceptance suite
additionally exercises the installed console script. Output paths are
absolute (inside tmp_path) because relative paths resolve against the
caller's working directory.
"""

import copy
import dataclasses
import json
import types

import pytest

from rsasian import FdConfig, HamConfig, McConfig, QuadratureSpec, cli
from rsasian.cli import main

MODEL = {
    "r": [0.05, 0.03],
    "sigma": [0.3, 0.2],
    "gen": [[-1.0, 1.0], [1.0, -1.0]],
}


def base_config(tmp_path, method, *, style="floating_put", fmt="csv",
                name="report", **extra):
    cfg = {
        "schema_version": 1,
        "model": copy.deepcopy(MODEL),
        "option": {"style": style, "T": 1.0},
        "state": {"t": 0.0, "s": 100.0, "a": 0.0, "regime": 0},
        "method": method,
        "output": {"format": fmt, "path": str(tmp_path / f"{name}.{fmt}")},
    }
    cfg["option"].update(extra)
    return cfg


def run(tmp_path, command, cfg, name="cfg"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path)])
    return code, cfg["output"]["path"]


TINY_MC = {"mc": {"n_paths": 2000, "n_steps": 16, "seed": 7, "antithetic": True}}
TINY_HAM = {"ham": {"m_trunc": 2, "n_z": 101, "n_u": 21}}


class TestPriceCommand:
    def test_mc_price_report(self, tmp_path):
        code, report = run(tmp_path, "price", base_config(tmp_path, TINY_MC))
        assert code == 0
        lines = open(report).read().splitlines()
        assert lines[0] == "method,price,error_estimate,runtime_ms,diagnostics"
        assert len(lines) == 2
        cells = lines[1].split(",", 4)
        assert cells[0] == "mc"
        assert float(cells[1]) > 0.0
        assert cells[3] == "0", "timings default to a zero runtime column"

    def test_integer_state_prices_like_its_float_form(self, tmp_path):
        prices = []
        for name, state in (("float", {"t": 0.0, "s": 100.0, "a": 0.0}),
                            ("int", {"t": 0, "s": 100, "a": 0})):
            cfg = base_config(tmp_path, TINY_MC, name=name)
            cfg["state"].update(state)
            code, report = run(tmp_path, "price", cfg, name=name)
            assert code == 0
            prices.append(open(report).read().splitlines()[1].split(",")[1])
        assert prices[0] == prices[1]

    def test_csv_uses_lf_and_decimal_points(self, tmp_path):
        code, report = run(tmp_path, "price", base_config(tmp_path, TINY_MC))
        assert code == 0
        raw = open(report, "rb").read()
        assert b"\r" not in raw
        assert b"." in raw

    def test_effective_config_written_and_rerunnable(self, tmp_path):
        cfg = base_config(tmp_path, TINY_MC)
        code, report = run(tmp_path, "price", cfg)
        assert code == 0
        effective_path = report + ".effective.json"
        effective = json.loads(open(effective_path).read())
        assert effective["model"]["q"] == [0.0, 0.0]
        assert effective["output"]["timings"] is False
        first = open(report, "rb").read()
        # the effective document is itself a valid config for the same run
        code2 = main(["price", "--config", effective_path])
        assert code2 == 0
        assert open(report, "rb").read() == first

    def test_json_report_sorted_and_newline_terminated(self, tmp_path):
        cfg = base_config(tmp_path, TINY_MC, fmt="json")
        code, report = run(tmp_path, "price", cfg)
        assert code == 0
        raw = open(report).read()
        assert raw.endswith("\n")
        doc = json.loads(raw)
        assert doc["kind"] == "price"
        assert len(doc["rows"]) == 1
        assert raw == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_european_engine(self, tmp_path):
        cfg = base_config(
            tmp_path, {"european_rs": {}}, style="european_put", K=100.0
        )
        code, report = run(tmp_path, "price", cfg)
        assert code == 0
        row = open(report).read().splitlines()[1]
        assert row.startswith("european_rs,")


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,method,style",
        [
            ("price", TINY_MC, "floating_put"),
            ("convergence", TINY_HAM, "floating_put"),
            ("symmetry-check", TINY_MC, "fixed_put"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, tmp_path, command, method, style):
        k = 120.0 if style == "fixed_put" else None
        cfg = base_config(tmp_path, method, style=style, K=k)
        code, report = run(tmp_path, command, cfg)
        assert code == 0
        first = open(report, "rb").read()
        first_eff = open(report + ".effective.json", "rb").read()
        code2, _ = run(tmp_path, command, cfg, name="cfg2")
        assert code2 == 0
        assert open(report, "rb").read() == first
        assert open(report + ".effective.json", "rb").read() == first_eff


class TestCompareCommand:
    def test_one_row_per_engine(self, tmp_path):
        method = {
            "compare": {
                "ham": TINY_HAM["ham"],
                "mc": TINY_MC["mc"],
                "fd": {"n_y": 64, "n_t": 64},
            }
        }
        cfg = base_config(tmp_path, method, fmt="json")
        code, report = run(tmp_path, "compare", cfg)
        assert code == 0
        doc = json.loads(open(report).read())
        rows = {row["method"]: row for row in doc["rows"]}
        assert set(rows) == {"ham", "mc", "fd"}
        assert "term_norms" in rows["ham"]["diagnostics"]
        assert "std_error" in rows["mc"]["diagnostics"]
        assert "richardson_order" in rows["fd"]["diagnostics"]
        assert rows["fd"]["diagnostics"]["finest_n_y"] == 64


class TestConvergenceCommand:
    def test_table_covers_both_guesses(self, tmp_path):
        cfg = base_config(tmp_path, TINY_HAM)
        cfg["state"] = {"t": 0.5, "s": 100.0, "a": 50.0, "regime": 0}
        code, report = run(tmp_path, "convergence", cfg)
        assert code == 0
        lines = open(report).read().splitlines()
        assert lines[0] == "guess_mode,m_terms,price,delta,runtime_ms"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 2 * 3, "two guesses, m_trunc + 1 rows each"
        assert [row[0] for row in body] == ["european_rs"] * 3 + ["zero"] * 3
        assert body[0][3] == "", "no delta for the first partial sum"
        zero_first = body[3]
        assert float(zero_first[2]) == 0.0, "zero guess starts from nothing"

    def test_each_row_is_timed_on_its_own(self, tmp_path, monkeypatch):
        ticks = iter(range(1000))  # the clock moves one second per read
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        cfg = base_config(tmp_path, TINY_HAM, fmt="json")
        cfg["state"] = {"t": 0.5, "s": 100.0, "a": 50.0, "regime": 0}
        cfg["output"]["timings"] = True
        code, report = run(tmp_path, "convergence", cfg)
        assert code == 0
        rows = json.loads(open(report).read())["rows"]
        assert [row["runtime_ms"] for row in rows] == [1000] * 6

    def test_compare_reuses_the_convergence_surface(self, tmp_path, build_calls):
        for command, method in (("convergence", TINY_HAM), ("compare", {"compare": TINY_HAM})):
            cfg = base_config(tmp_path, method, name=command)
            cfg["state"] = {"t": 0.5, "s": 100.0, "a": 50.0, "regime": 0}
            code, _ = run(tmp_path, command, cfg, name=command)
            assert code == 0
        assert [args[2].initial_guess_mode for args in build_calls] == ["european_rs", "zero"]


class TestSymmetryCommand:
    def test_sections_and_case_block(self, tmp_path):
        cfg = base_config(tmp_path, TINY_MC, style="fixed_put", K=120.0, fmt="json")
        code, report = run(tmp_path, "symmetry-check", cfg)
        assert code == 0
        doc = json.loads(open(report).read())
        sections = [row["section"] for row in doc["rows"]]
        assert sections == ["regime0", "regime1", "stationary"]
        assert doc["case"]["scale"] == pytest.approx(1.2)
        assert doc["case"]["lhs"][0] == doc["case"]["rhs"][0] == 100.0


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


class TestMethodBlocks:
    @pytest.mark.parametrize(
        "name,method,style,k",
        [
            ("ham", TINY_HAM, "floating_put", None),
            ("mc", TINY_MC, "floating_put", None),
            ("fd", {"fd": {"n_y": 32, "n_t": 32}}, "floating_put", None),
            ("european_rs", {"european_rs": {}}, "european_put", 100.0),
        ],
    )
    def test_effective_keys_are_the_config_fields(self, tmp_path, name, method, style, k):
        code, report = run(tmp_path, "price", base_config(tmp_path, method, style=style, K=k))
        assert code == 0
        block = json.loads(open(report + ".effective.json").read())["method"][name]
        if name == "european_rs":
            assert set(block) == {"quad"}
            assert set(block["quad"]) == _field_names(QuadratureSpec)
            return
        cls = {"ham": HamConfig, "mc": McConfig, "fd": FdConfig}[name]
        assert set(block) == _field_names(cls)
        if name == "ham":
            assert set(block["guess_quad"]) == _field_names(QuadratureSpec)

    def test_unknown_mode_names_its_path(self, tmp_path, capsys):
        cfg = base_config(tmp_path, {"ham": {"terminal_mode": "nope"}})
        code, _ = run(tmp_path, "price", cfg)
        assert code == 2
        assert "method.ham.terminal_mode:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,style,k,path",
        [
            ({"fd": {"coupling": "strang"}}, "floating_put", None, "method.fd"),
            ({"european_rs": {"variant": "rho_printed"}}, "european_put", 100.0,
             "method.european_rs"),
        ],
    )
    def test_removed_knobs_are_rejected(self, tmp_path, capsys, method, style, k, path):
        code, _ = run(tmp_path, "price", base_config(tmp_path, method, style=style, K=k))
        assert code == 2
        err = capsys.readouterr().err
        assert f"config invalid: {path}: " in err and "was unexpected" in err


class TestFailureModes:
    def test_unknown_key_is_a_schema_violation(self, tmp_path, capsys):
        cfg = base_config(tmp_path, TINY_MC)
        cfg["model"]["vol_of_vol"] = 0.5
        code, report = run(tmp_path, "price", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "config invalid" in err and "model" in err

    def test_bad_generator_row_names_the_row(self, tmp_path, capsys):
        cfg = base_config(tmp_path, TINY_MC)
        cfg["model"]["gen"] = [[-1.0, 0.5], [1.0, -1.0]]
        code, _ = run(tmp_path, "price", cfg)
        assert code == 2
        assert "row 0" in capsys.readouterr().err

    def test_method_subcommand_mismatch(self, tmp_path, capsys):
        cfg = base_config(tmp_path, TINY_MC)
        code, _ = run(tmp_path, "convergence", cfg)
        assert code == 2
        assert "needs" in capsys.readouterr().err

    def test_two_method_blocks_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path, {**TINY_MC, **TINY_HAM})
        code, _ = run(tmp_path, "price", cfg)
        assert code == 2

    def test_floating_engine_refuses_fixed_strike(self, tmp_path, capsys):
        cfg = base_config(tmp_path, TINY_HAM, style="fixed_put", K=120.0)
        code, _ = run(tmp_path, "price", cfg)
        assert code == 2
        assert "floating_put" in capsys.readouterr().err

    def test_symmetry_requires_inception(self, tmp_path, capsys):
        cfg = base_config(tmp_path, TINY_MC)
        cfg["state"] = {"t": 0.5, "s": 100.0, "a": 50.0, "regime": 0}
        code, _ = run(tmp_path, "symmetry-check", cfg)
        assert code == 2
        assert "t = 0" in capsys.readouterr().err

    def test_numerical_refusal_exits_three(self, tmp_path, capsys):
        cfg = base_config(tmp_path, TINY_HAM)
        cfg["state"] = {"t": 0.9, "s": 10.0, "a": 300.0, "regime": 0}
        code, _ = run(tmp_path, "price", cfg)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["price", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "unreadable" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["price", "--config", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err
