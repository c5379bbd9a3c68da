"""Tests for the batch command line front end.

Runs go through ``rsasian.cli.main`` in process; the acceptance suite
additionally exercises the installed console script. Output paths are
absolute (inside tmp_path) because relative paths resolve against the
caller's working directory.
"""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import types

import pytest

from rsasian import (AsianOptionSpec, FdConfig, HamConfig, MarketState, McConfig,
                     McEstimate, RegimeModel, cli, fd, ham, symmetry_mc_check)
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
    # not <name>.json, where base_config(..., fmt="json", name=name) writes the report
    path = tmp_path / f"{name}.config.json"
    path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(path)])
    return code, cfg["output"]["path"]


THREE_STATE = {
    "r": [0.05, 0.03, 0.04],
    "sigma": [0.3, 0.2, 0.25],
    "gen": [[-3.0, 1.0, 2.0], [1.0, -1.5, 0.5], [2.0, 0.5, -2.5]],
}

TINY_MC = {"mc": {"n_paths": 2000, "n_steps": 16, "seed": 7, "antithetic": True}}
TINY_HAM = {"ham": {"m_trunc": 2, "n_z": 101, "n_u": 21}}
# a state inside the series grid; at inception (a = 0) the series clamps to z_max
MID_LIFE = {"t": 0.5, "s": 100.0, "a": 50.0, "regime": 0}


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
        european = base_config(tmp_path, {"european_rs": {}}, style="european_put", K=100.0,
                               name="european")
        convergence = base_config(tmp_path, TINY_HAM, name="convergence")
        convergence["state"] = dict(MID_LIFE)
        for command, cfg in (("price", base_config(tmp_path, TINY_MC)), ("price", european),
                             ("convergence", convergence)):
            code, report = run(tmp_path, command, cfg)
            assert code == 0
            effective_path = report + ".effective.json"
            effective = json.loads(open(effective_path).read())
            assert effective["model"]["q"] == [0.0, 0.0]
            assert effective["output"]["timings"] is False
            first = open(report, "rb").read()
            # the effective document is itself a valid config for the same run
            code2 = main([command, "--config", effective_path])
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

    def test_european_engine_prices_a_short_maturity_near_the_money(self, tmp_path):
        # ttm = 1e-5 at s/k = 1.01, which the spectral leg refused with exit 3
        cfg = base_config(tmp_path, {"european_rs": {}}, style="european_put", K=100.0)
        cfg["state"].update(t=0.99999, s=101.0)
        code, report = run(tmp_path, "price", cfg)
        assert code == 0
        assert 0.0 <= float(open(report).read().splitlines()[1].split(",")[1]) < 1e-20

    def test_european_engine_prices_a_large_strike(self, tmp_path):
        # 8 ulps of D_0 here exceed the 1e-9 absolute tolerance; the price is
        # 1e5 times the one at K = 100, s = 1000
        cfg = base_config(tmp_path, {"european_rs": {}}, style="european_put", K=1e7)
        cfg["state"]["s"] = 1e8
        code, report = run(tmp_path, "price", cfg)
        assert code == 0
        assert 0.0 < float(open(report).read().splitlines()[1].split(",")[1]) < 1e-8


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
        if command == "convergence":
            cfg["state"] = dict(MID_LIFE)
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

    def test_fd_price_row_is_the_compare_row(self, tmp_path):
        # both commands march n/4, n/2 and n and report the extrapolated limit
        rows = []
        for command, method in (("price", {"fd": {"n_y": 64, "n_t": 48}}),
                                ("compare", {"compare": {"fd": {"n_y": 64, "n_t": 48}}})):
            cfg = base_config(tmp_path, method, fmt="json", name=command)
            cfg["state"] = dict(MID_LIFE)
            code, report = run(tmp_path, command, cfg, name=command)
            assert code == 0
            (row,) = json.loads(open(report).read())["rows"]
            rows.append(row)
        assert math.isfinite(rows[0]["error_estimate"]) and rows[0]["error_estimate"] > 0.0
        assert rows[0] == rows[1]
        diagnostics = rows[0]["diagnostics"]
        assert (diagnostics["finest_n_y"], diagnostics["finest_n_t"]) == (64, 48)
        want = fd.richardson_limit(diagnostics["grid_prices"])
        assert (rows[0]["price"], rows[0]["error_estimate"]) == want

    def test_fd_rows_at_one_valuation_time_share_their_grids(self, tmp_path, monkeypatch,
                                                            cold_surfaces):
        # inception, then three states at t = 0.5 with a/s <= T, which fit the same three
        # grids: 6 marches, not 12, and each report the same bytes as a cold run's
        marches = []
        march = fd.fd_price
        monkeypatch.setattr(fd, "fd_price", lambda *args: marches.append(args) or march(*args))
        runs = []
        for t, y in ((0.0, 0.0), (0.5, 0.5), (0.5, 0.75), (0.5, 1.0)):
            name = f"t{t}_y{y}"
            cfg = base_config(tmp_path, {"compare": {"fd": {"n_y": 48, "n_t": 48}}},
                              fmt="json", name=name)
            cfg["state"] = {"t": t, "s": 100.0, "a": 100.0 * y, "regime": 0}
            code, report = run(tmp_path, "compare", cfg, name=name)
            assert code == 0
            runs.append((cfg, name, [open(p, "rb").read()
                                     for p in (report, report + ".effective.json")]))
        assert len(marches) == 6
        for cfg, name, warm in runs:
            cold_surfaces.clear()
            code, report = run(tmp_path, "compare", cfg, name=name)
            assert code == 0
            assert [open(p, "rb").read() for p in (report, report + ".effective.json")] == warm
        assert len(marches) == 6 + 4 * 3


class TestConvergenceCommand:
    def test_table_covers_both_guesses(self, tmp_path):
        cfg = base_config(tmp_path, TINY_HAM)
        cfg["state"] = dict(MID_LIFE)
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

    def test_effective_config_leaves_out_the_guess_mode(self, tmp_path):
        # the table runs both guess modes, so its effective ham block names neither
        cfg = base_config(tmp_path, TINY_HAM)
        cfg["state"] = dict(MID_LIFE)
        code, report = run(tmp_path, "convergence", cfg)
        assert code == 0
        block = json.loads(open(report + ".effective.json").read())["method"]["ham"]
        assert set(block) == _field_names(HamConfig) - {"initial_guess_mode"}

    def test_each_row_is_timed_on_its_own(self, tmp_path, monkeypatch):
        ticks = iter(range(1000))  # the clock moves one second per read
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        cfg = base_config(tmp_path, TINY_HAM, fmt="json")
        cfg["state"] = dict(MID_LIFE)
        cfg["output"]["timings"] = True
        code, report = run(tmp_path, "convergence", cfg)
        assert code == 0
        rows = json.loads(open(report).read())["rows"]
        assert [row["runtime_ms"] for row in rows] == [1000] * 6

    def test_compare_reuses_the_convergence_surface(self, tmp_path, build_calls):
        for command, method in (("convergence", TINY_HAM), ("compare", {"compare": TINY_HAM})):
            cfg = base_config(tmp_path, method, name=command)
            cfg["state"] = dict(MID_LIFE)
            code, _ = run(tmp_path, command, cfg, name=command)
            assert code == 0
        assert [args[2].initial_guess_mode for args in build_calls] == ["european_rs", "zero"]

    def test_one_lag_kernel_per_command(self, tmp_path, monkeypatch, build_calls):
        # both guess modes share the grid and model, so one kernel serves the
        # command; the surface cache keeps it with the surfaces, and clearing
        # the cache drops it, so a build after that makes it again
        kernels = []
        make = ham._lag_generators
        monkeypatch.setattr(ham, "_lag_generators",
                            lambda *args: kernels.append(args) or make(*args))
        cfg = base_config(tmp_path, TINY_HAM)
        cfg["state"] = dict(MID_LIFE)
        assert run(tmp_path, "convergence", cfg)[0] == 0
        assert (len(build_calls), len(kernels)) == (2, 1)
        assert len(ham._SURFACES_CACHE) == 3, "two surfaces and their kernel"
        ham._SURFACES_CACHE.clear()
        assert run(tmp_path, "convergence", cfg)[0] == 0
        assert (len(build_calls), len(kernels)) == (4, 2)

    def test_price_at_another_m_trunc_builds_no_kernel(self, tmp_path, monkeypatch,
                                                        build_calls):
        # the kernel depends on the grid and model only, so a price after the
        # convergence table, in the same process, builds its surface on it
        kernels = []
        make = ham._lag_generators
        monkeypatch.setattr(ham, "_lag_generators",
                            lambda *args: kernels.append(args) or make(*args))
        for command, m_trunc in (("convergence", 2), ("price", 3)):
            cfg = base_config(tmp_path, {"ham": dict(TINY_HAM["ham"], m_trunc=m_trunc)},
                              name=command)
            cfg["state"] = dict(MID_LIFE)
            assert run(tmp_path, command, cfg, name=command)[0] == 0
        assert [args[2].m_trunc for args in build_calls] == [2, 2, 3]
        assert len(kernels) == 1

    @pytest.mark.parametrize("a,z", [(0.0, "inf"), (1e-3, "11.5129")],
                             ids=["inception", "past_z_max"])
    def test_clamped_state_is_refused(self, tmp_path, capsys, a, z):
        cfg = base_config(tmp_path, TINY_HAM)
        cfg["state"] = dict(MID_LIFE, a=a)
        code, report = run(tmp_path, "convergence", cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert f"z={z} beyond z_max=9.1546" in err, err
        assert not os.path.exists(report), "a refused table writes no report"


def _library_check(cfg):
    model = RegimeModel(**cfg["model"])
    spec = AsianOptionSpec(style=cfg["option"]["style"], T=cfg["option"]["T"],
                           K=cfg["option"].get("K"))
    return symmetry_mc_check(spec, model, MarketState(**cfg["state"]),
                             McConfig(**cfg["method"]["mc"]))


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
        # the rows are the library's terminal-conditioned and stationary records
        check = _library_check(cfg)
        keys = ["lhs_price", "rhs_price_scaled", "gap", "se", "z"]
        for row, record in zip(doc["rows"], check["terminal_conditioned"] + [check["stationary"]]):
            assert {k: row[k] for k in keys} == {k: record[k] for k in keys}, row["section"]

    def test_absorbing_chain_reports_the_visited_regime(self, tmp_path):
        # regime 0 has no stationary weight, so it gets no terminal-conditioned row
        cfg = base_config(tmp_path, TINY_MC, fmt="json")
        cfg["model"]["gen"] = [[-2.0, 2.0], [0.0, 0.0]]
        code, report = run(tmp_path, "symmetry-check", cfg)
        assert code == 0
        doc = json.loads(open(report).read())
        assert [row["section"] for row in doc["rows"]] == ["regime1", "stationary"]

    @pytest.mark.parametrize("gen,code", [
        ([[-3.0, 3.0, 0.0], [0.0, -3.0, 3.0], [3.0, 0.0, -3.0]], 2),
        ([[-3.0, 1.0, 2.0], [1.0, -1.5, 0.5], [2.0, 0.5, -2.5]], 0),
    ], ids=["cyclic", "reversible"])
    def test_three_state_chain_needs_detailed_balance(self, tmp_path, capsys, gen, code):
        cfg = base_config(tmp_path, TINY_MC)
        cfg["model"] = {"r": [0.05, 0.03, 0.04], "sigma": [0.3, 0.2, 0.25], "gen": gen}
        got, report = run(tmp_path, "symmetry-check", cfg)
        assert got == code
        if code:
            assert "config invalid: generator [[-3.0, 3.0, 0.0]" in capsys.readouterr().err
            assert not os.path.exists(report)
            assert not os.path.exists(report + ".effective.json")


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
        # the European tolerance is fixed, and an FD row takes its t_min from the state
        want = {"ham": _field_names(HamConfig), "mc": _field_names(McConfig),
                "fd": _field_names(FdConfig) - {"t_min"}, "european_rs": set()}[name]
        assert set(block) == want

    def test_mc_path_count_defaults_to_the_config_default(self, tmp_path):
        cfg = base_config(tmp_path, {"mc": {"n_steps": 2, "seed": 7}})
        code, report = run(tmp_path, "price", cfg)
        assert code == 0
        block = json.loads(open(report + ".effective.json").read())["method"]["mc"]
        assert block["n_paths"] == McConfig().n_paths == 100_000

    @pytest.mark.parametrize("command", ["price", "compare"])
    def test_fd_t_min_is_always_the_state_time(self, tmp_path, monkeypatch, cold_surfaces,
                                               command):
        # the row's three grids march to the state's t = 0.5; the effective config
        # holds no t_min and re-runs the same bytes
        marched = []
        march = fd.fd_price
        monkeypatch.setattr(fd, "fd_price", lambda *args: marched.append(args[2]) or march(*args))
        block = {"n_y": 32, "n_t": 32}
        method = {"compare": {"fd": block}} if command == "compare" else {"fd": block}
        cfg = base_config(tmp_path, method, fmt="json")
        cfg["state"] = dict(MID_LIFE)
        code, report = run(tmp_path, command, cfg)
        assert code == 0
        assert [(c.n_y, c.t_min) for c in marched] == [(8, 0.5), (16, 0.5), (32, 0.5)]
        effective = json.loads(open(report + ".effective.json").read())["method"]
        assert "t_min" not in (effective["compare"] if command == "compare" else effective)["fd"]
        first = open(report, "rb").read()
        assert main([command, "--config", report + ".effective.json"]) == 0
        assert open(report, "rb").read() == first

    @pytest.mark.parametrize("command", ["price", "compare"])
    @pytest.mark.parametrize("a,y_max,want", [(50.0, None, 4.0), (200.0, None, 8.0),
                                              (50.0, 5.5, 5.5)])
    def test_fd_y_max_defaults_to_four_times_the_larger_of_t_and_y(self, tmp_path, command,
                                                                    a, y_max, want):
        # T = 1, so an unset y_max at a/s = 0.5 is 4 and at a/s = 2 is 8; one set is kept
        fd = {"n_y": 32, "n_t": 32} if y_max is None else {"n_y": 32, "n_t": 32, "y_max": y_max}
        method = {"compare": {"fd": fd}} if command == "compare" else {"fd": fd}
        cfg = base_config(tmp_path, method, fmt="json")
        cfg["state"] = dict(MID_LIFE, a=a)
        code, report = run(tmp_path, command, cfg)
        assert code == 0
        block = json.loads(open(report + ".effective.json").read())["method"]
        assert (block["compare"] if command == "compare" else block)["fd"]["y_max"] == want
        (row,) = json.loads(open(report).read())["rows"]
        assert row["diagnostics"]["y_max"] == want

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
            ({"european_rs": {"quad": {"rule": "adaptive"}}}, "european_put", 100.0,
             "method.european_rs"),
            ({"ham": {"guess_quad": {"n_rho": 2000}}}, "floating_put", None, "method.ham"),
            ({"fd": {"rannacher_steps": 2}}, "floating_put", None, "method.fd"),
            ({"european_rs": {"quad": {"n_rho": 2000}}}, "european_put", 100.0,
             "method.european_rs"),
        ],
    )
    def test_removed_knobs_are_rejected(self, tmp_path, capsys, method, style, k, path):
        code, _ = run(tmp_path, "price", base_config(tmp_path, method, style=style, K=k))
        assert code == 2
        err = capsys.readouterr().err
        assert f"config invalid: {path}: " in err and "was unexpected" in err

    @pytest.mark.parametrize("command,method,style,k,message", [
        ("price", {"european_rs": {"quad": {"abs_tol": 1e-9, "rel_tol": 1e-7}}},
         "european_put", 100.0,
         "method.european_rs: Additional properties are not allowed ('quad' was unexpected)"),
        ("price", {"fd": {"n_y": 32, "n_t": 32, "t_min": 0.5}}, "floating_put", None,
         "method.fd: Additional properties are not allowed ('t_min' was unexpected)"),
        ("compare", {"compare": {"fd": {"n_y": 32, "n_t": 32, "t_min": 0.5}}}, "floating_put",
         None, "method.compare.fd: Additional properties are not allowed ('t_min' was unexpected)"),
        ("convergence", {"ham": dict(TINY_HAM["ham"], initial_guess_mode="zero")},
         "floating_put", None,
         "method.ham.initial_guess_mode: convergence tabulates both guess modes"),
    ], ids=["european_rs.quad", "fd.t_min", "compare.fd.t_min", "convergence.initial_guess_mode"])
    def test_settings_the_run_decides_are_refused(self, tmp_path, capsys, command, method,
                                                   style, k, message):
        # each of these keys, as an older .effective.json wrote it (t_min at the
        # state's own t), exits 2 naming its path and writes nothing
        cfg = base_config(tmp_path, method, style=style, K=k, fmt="json")
        cfg["state"] = dict(MID_LIFE)
        code, report = run(tmp_path, command, cfg)
        assert code == 2
        assert f"config invalid: {message}" in capsys.readouterr().err
        assert not os.path.exists(report)
        assert not os.path.exists(report + ".effective.json")
        assert os.listdir(tmp_path) == ["cfg.config.json"]


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
        cfg["state"] = dict(MID_LIFE)
        code, _ = run(tmp_path, "symmetry-check", cfg)
        assert code == 2
        assert ("config invalid: symmetry holds at inception only (t=0.5, a=50.0)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,method,option,model,state,message", [
        ("price", TINY_MC, {}, {}, {"regime": 2},
         "state.regime: 2 out of range for 2 regimes"),
        ("price", TINY_MC, {}, {}, {"t": 1.5, "a": 150.0},
         "state.t: 1.5 exceeds option.T = 1.0"),
        ("price", TINY_MC, {"K": 100.0}, {}, {}, "option.K: must be null for floating styles"),
        ("price", TINY_MC, {"style": "fixed_put", "K": 100.0, "multiplier": 1.1}, {}, {},
         "option.multiplier: only floating styles use the multiplier"),
        ("price", {"european_rs": {}}, {}, {}, {},
         "option.style: method 'european_rs' prices european_put only"),
        ("price", {"fd": {"y_max": 0.5}}, {}, {}, {}, "y_max=0.5 not > T=1.0"),
        ("price", TINY_MC, {}, {"sigma": [0.3]}, {}, "sigma has 1 entries, expected 2"),
        ("price", TINY_MC, {}, {"q": [0.01]}, {}, "q has 1 entries, expected 2"),
        ("price", TINY_MC, {}, {"gen": [[0.0]]}, {}, "generator has 1 rows, expected 2"),
        ("price", TINY_MC, {}, {"gen": [[-1.0, 1.0], [1.0]]}, {},
         "generator row 1 has 1 entries, expected 2"),
        ("symmetry-check", TINY_MC, {"style": "european_put", "K": 100.0}, {}, {},
         "no fixed/floating counterpart for european_put"),
    ], ids=["regime", "t_past_T", "floating_K", "fixed_multiplier", "european_rs_style",
            "fd_y_max", "sigma_length", "q_length", "gen_rows", "gen_row_length",
            "symmetry_style"])
    def test_refusal_exits_two_and_writes_no_file(self, tmp_path, capsys, command, method,
                                                  option, model, state, message):
        cfg = base_config(tmp_path, method, **option)
        cfg["model"].update(model)
        cfg["state"].update(state)
        code, report = run(tmp_path, command, cfg)
        assert code == 2
        assert f"config invalid: {message}" in capsys.readouterr().err
        assert not os.path.exists(report)
        assert not os.path.exists(report + ".effective.json")

    @pytest.mark.parametrize("command", ["price", "convergence", "compare"])
    def test_series_engine_refuses_dividends(self, tmp_path, capsys, command):
        method = {"compare": TINY_HAM} if command == "compare" else TINY_HAM
        cfg = base_config(tmp_path, method)
        cfg["model"]["q"] = [0.04, 0.02]
        cfg["state"] = dict(MID_LIFE)
        code, report = run(tmp_path, command, cfg)
        assert code == 2
        assert "config invalid: model.q=[0.04, 0.02]" in capsys.readouterr().err
        assert not os.path.exists(report)
        assert not os.path.exists(report + ".effective.json")

    @pytest.mark.parametrize("method,style,model,message", [
        (TINY_HAM, "floating_put", THREE_STATE, "this pricer requires exactly 2 regimes"),
        ({"european_rs": {}}, "european_put", THREE_STATE,
         "this pricer requires exactly 2 regimes"),
        ({"ham": dict(TINY_HAM["ham"], z_min=0.5)}, "floating_put", MODEL,
         "z window [0.5, 9.210340371976182] must satisfy z_min <= 0 < z_max"),
    ], ids=["ham_three_state", "european_three_state", "ham_z_window"])
    def test_engine_refusal_writes_no_file(self, tmp_path, capsys, method, style, model,
                                           message):
        cfg = base_config(tmp_path, method, style=style,
                          **({"K": 100.0} if style == "european_put" else {}))
        cfg["model"] = copy.deepcopy(model)
        cfg["state"] = dict(MID_LIFE)
        code, report = run(tmp_path, "price", cfg)
        assert code == 2
        assert f"config invalid: {message}" in capsys.readouterr().err
        assert not os.path.exists(report)
        assert not os.path.exists(report + ".effective.json")

    def test_numerical_refusal_exits_three(self, tmp_path, capsys):
        cfg = base_config(tmp_path, TINY_HAM)
        cfg["state"] = {"t": 0.9, "s": 10.0, "a": 300.0, "regime": 0}
        code, report = run(tmp_path, "price", cfg)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not os.path.exists(report)
        assert not os.path.exists(report + ".effective.json")
        # a European price that its rule cannot reach writes no report: volatilities
        # 500 times apart need a first rule above the node cap
        cfg = base_config(tmp_path, {"european_rs": {}}, style="european_put", K=100.0,
                          name="european")
        cfg["model"]["sigma"] = [0.001, 0.5]
        code, report = run(tmp_path, "price", cfg, name="european")
        assert code == 3
        assert ("numerical failure: the occupation-time rule needs 3000 nodes, above its cap "
                "of 2048") in capsys.readouterr().err
        assert not os.path.exists(report)
        assert not os.path.exists(report + ".effective.json")

    @pytest.mark.parametrize("command", ["price", "compare"])
    def test_fd_grid_short_of_the_state_exits_two(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # refused with the config, before the effective config is written or any
        # grid is marched: a/s = 3 lies past y_max = 2 on every grid; at a/s = 4.2
        # the configured grid ends at 200/47 = 4.255, but the n/4 grid snaps its
        # kink onto node 12 and ends at 50/12
        monkeypatch.setattr(fd, "fd_price", lambda *args: pytest.fail("a grid was marched"))
        for name, block, a, last in (
            ("every_grid", {"n_y": 32, "n_t": 32, "y_max": 2.0}, 300.0, 2.0),
            ("coarsest_grid", {"n_y": 200, "n_t": 200, "y_max": 4.25}, 420.0, 4.166666666666666),
        ):
            method = {"compare": {"fd": block}} if command == "compare" else {"fd": block}
            cfg = base_config(tmp_path, method, name=name)
            cfg["state"] = dict(MID_LIFE, a=a)
            code, report = run(tmp_path, command, cfg, name=name)
            assert code == 2, name
            err = capsys.readouterr().err
            assert (f"config invalid: a/s={a / 100.0} lies past the last grid node y={last} "
                    f"(y_max={block['y_max']})") in err
            assert not os.path.exists(report)
            assert not os.path.exists(report + ".effective.json"), name

    @pytest.mark.parametrize("command,key,n", [("price", "n_y", 801), ("price", "n_t", 10),
                                               ("compare", "n_y", 10), ("compare", "n_t", 801)])
    def test_fd_grid_must_be_a_multiple_of_four_of_at_least_twelve(self, tmp_path, capsys,
                                                                  monkeypatch, command, key, n):
        # FD marches n/4, n/2 and n exactly, so n must split into quarters of at least 3
        monkeypatch.setattr(fd, "fd_price", lambda *args: pytest.fail("a grid was marched"))
        block = {"n_y": 32, "n_t": 32, key: n}
        method = {"compare": {"fd": block}} if command == "compare" else {"fd": block}
        code, report = run(tmp_path, command, base_config(tmp_path, method))
        assert code == 2
        path = "method.compare.fd" if command == "compare" else "method.fd"
        err = capsys.readouterr().err
        assert f"config invalid: {path}.{key}: {n} is not a multiple of 4 of at least 12" in err
        assert not os.path.exists(report + ".effective.json")

    def test_malformed_thread_count_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PRICER_THREADS", "two")
        code, report = run(tmp_path, "price", base_config(tmp_path, TINY_MC))
        assert code == 2
        assert "environment invalid: PRICER_THREADS='two' is not" in capsys.readouterr().err
        assert not os.path.exists(report)

    def test_non_finite_price_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mc_price", lambda *args: McEstimate(math.nan, 0.0, 2000))
        code, report = run(tmp_path, "price", base_config(tmp_path, TINY_MC))
        assert code == 3
        assert "numerical failure: non-finite price in row" in capsys.readouterr().err
        assert not os.path.exists(report)
        assert not os.path.exists(report + ".effective.json")

    @pytest.mark.parametrize("command", ["price", "compare", "convergence"])
    def test_divergent_series_exits_three(self, tmp_path, capsys, command):
        method = TINY_HAM if command != "compare" else {"compare": TINY_HAM}
        cfg = base_config(tmp_path, method)
        cfg["model"] = {"r": [0.08, 0.01], "sigma": [0.1, 0.5], "gen": [[-3.0, 3.0], [0.5, -0.5]]}
        cfg["state"] = dict(MID_LIFE)
        code, report = run(tmp_path, command, cfg)
        assert code == 3
        assert "numerical failure: the series diverges: regime 0" in capsys.readouterr().err
        assert not os.path.exists(report)

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


class TestColdStart:
    """Only the series, FD and European engines need scipy, and they import
    it where they call it: importing it costs a cold MC ``price`` about
    0.4 s. Config validation imports jsonschema (about 50 ms) when it runs,
    so importing the CLI module loads neither. A fresh interpreter shows
    whether anything pulls them in."""

    @staticmethod
    def _modules_after(code, package="scipy"):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        probe = code + f"; print(sorted(m for m in sys.modules if m.startswith({package!r})))"
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env, check=True)
        return proc.stdout.strip().splitlines()[-1]

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        assert self._modules_after("import sys, rsasian.cli") == "[]"
        assert self._modules_after("import sys, rsasian.cli", "jsonschema") == "[]"

    def test_two_state_european_grid_loads_no_scipy_linalg(self):
        # the discount vector of a two-state model is a closed form; expm, which
        # other chain sizes take, is slow when BLAS runs threads
        code = ("import sys; from rsasian import european_put_grid, two_state_model; "
                "european_put_grid(two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0), "
                "[90.0, 100.0, 110.0], 100.0, 0.5)")
        assert self._modules_after(code, "scipy.linalg") == "[]"

    def test_fd_compare_loads_no_scipy_sparse(self, tmp_path):
        # the FD operator is written straight into LAPACK band storage, so FD
        # needs only scipy.linalg's BLAS and LAPACK wrappers
        cfg = base_config(tmp_path, {"compare": {"fd": {"n_y": 32, "n_t": 32}}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = ("import sys, rsasian.cli; "
                f"assert rsasian.cli.main(['compare', '--config', {str(path)!r}]) == 0")
        assert self._modules_after(code, "scipy.sparse") == "[]"

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("style", ["floating_put", "european_put"])
    def test_mc_price_loads_no_scipy(self, tmp_path, style, antithetic):
        extra = {"K": 100.0} if style == "european_put" else {}
        cfg = base_config(tmp_path, TINY_MC, style=style, **extra)
        cfg["method"]["mc"]["antithetic"] = antithetic
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = ("import sys, rsasian.cli; "
                f"assert rsasian.cli.main(['price', '--config', {str(path)!r}]) == 0")
        assert self._modules_after(code) == "[]"
