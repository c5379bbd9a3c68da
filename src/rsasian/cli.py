"""Batch command line front end for the pricing engines.

One run reads a JSON config document (``schema_version`` 1) holding five
blocks: ``model`` (rate/volatility/dividend vectors and the chain
generator), ``option`` (style, expiry, strike data), ``state``
(valuation time, spot, running integral, regime), exactly one ``method``
sub-block (``ham`` | ``mc`` | ``fd`` | ``european_rs`` | ``compare``),
and ``output`` (format ``csv`` or ``json``, report path). Subcommands:

* ``price``          one row from a single engine
* ``compare``        one row per engine named in ``method.compare``
* ``convergence``    assembled-price deltas per added series term,
                     run for both initial-guess modes
* ``symmetry-check`` Monte Carlo on both sides of the fixed/floating
                     equivalence, per starting regime and combined with
                     the chain's stationary weights

Exit codes: 0 success, 2 for unreadable or schema-invalid configs and
contract violations (messages name field paths), 3 for numerical
failures. CSV reports use ``.`` decimals, ``,`` separators, and LF line
endings; JSON reports sort their keys. Repeated runs of one config are
byte-identical: wall-clock timings go into ``runtime_ms`` only when
``output.timings`` is true, otherwise the column reads 0.

Every run first writes ``<report path>.effective.json``: the config with
all defaults materialized, so each number in a report is reproducible
from that one file. ``PRICER_THREADS`` caps the Monte Carlo worker pool
without changing any result (batches own their seeds).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import typing
from dataclasses import asdict, fields, is_dataclass, replace

import jsonschema

from .errors import NotApplicable, PricingError, ValidationError
from .european import QuadratureSpec, price_european_put_rs
from .fd import FdConfig, default_y_max, fd_price, richardson_order
from .ham import (
    HamConfig,
    assemble_series,
    build_terms,
    price_floating_put_ham,
    series_dollar_price,
)
from .mc import McConfig, mc_price
from .model import AsianOptionSpec, MarketState, RegimeModel, validate_model
from .symmetry import symmetry_mc_check

_FLOATING_STYLES = ("floating_put", "floating_call")
_FIXED_STYLES = ("fixed_put", "fixed_call")
_SYMMETRY_STYLES = _FLOATING_STYLES + _FIXED_STYLES

_NUM = {"type": "number"}
_NUM_OR_NULL = {"type": ["number", "null"]}
_BOOL = {"type": "boolean"}

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", type(None): "null"}


def _block_schema(cls) -> dict:
    """Method-block schema for a config dataclass, one optional key per field.

    A field's ``enum`` metadata (the engine module's mode tuple) becomes a
    JSON enum; a dataclass-typed field becomes a nested block.
    """
    hints = typing.get_type_hints(cls)
    props = {}
    for f in fields(cls):
        hint = hints[f.name]
        if "enum" in f.metadata:
            props[f.name] = {"enum": list(f.metadata["enum"])}
        elif is_dataclass(hint):
            props[f.name] = _block_schema(hint)
        else:
            types = [_JSON_TYPES[a] for a in (typing.get_args(hint) or (hint,))]
            props[f.name] = {"type": types[0] if len(types) == 1 else types}
    return {"type": "object", "additionalProperties": False, "properties": props}


_HAM_SCHEMA = _block_schema(HamConfig)
_MC_SCHEMA = _block_schema(McConfig)
_FD_SCHEMA = _block_schema(FdConfig)
_EURO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"quad": _block_schema(QuadratureSpec)},
}

_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "model", "option", "state", "method", "output"],
    "properties": {
        "schema_version": {"const": 1},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r", "sigma", "gen"],
            "properties": {
                "r": {"type": "array", "items": _NUM, "minItems": 1},
                "sigma": {"type": "array", "items": _NUM, "minItems": 1},
                "q": {"type": "array", "items": _NUM, "minItems": 1},
                "gen": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": _NUM, "minItems": 1},
                },
            },
        },
        "option": {
            "type": "object",
            "additionalProperties": False,
            "required": ["style", "T"],
            "properties": {
                "style": {
                    "enum": [
                        "floating_put",
                        "floating_call",
                        "fixed_put",
                        "fixed_call",
                        "european_put",
                    ]
                },
                "T": {"type": "number", "exclusiveMinimum": 0},
                "K": _NUM_OR_NULL,
                "multiplier": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "state": {
            "type": "object",
            "additionalProperties": False,
            "required": ["s"],
            "properties": {
                "t": {"type": "number", "minimum": 0},
                "s": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number", "minimum": 0},
                "regime": {"type": "integer", "minimum": 0},
            },
        },
        "method": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "ham": _HAM_SCHEMA,
                "mc": _MC_SCHEMA,
                "fd": _FD_SCHEMA,
                "european_rs": _EURO_SCHEMA,
                "compare": {
                    "type": "object",
                    "additionalProperties": False,
                    "minProperties": 1,
                    "properties": {
                        "ham": _HAM_SCHEMA,
                        "mc": _MC_SCHEMA,
                        "fd": _FD_SCHEMA,
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "required": ["format", "path"],
            "properties": {
                "format": {"enum": ["csv", "json"]},
                "path": {"type": "string", "minLength": 1},
                "timings": _BOOL,
            },
        },
    },
}

_COMMAND_METHODS = {
    "price": ("ham", "mc", "fd", "european_rs"),
    "compare": ("compare",),
    "convergence": ("ham",),
    "symmetry-check": ("mc",),
}


def _json_path(error: jsonschema.ValidationError) -> str:
    parts = []
    for piece in error.absolute_path:
        if isinstance(piece, int):
            parts.append(f"[{piece}]")
        else:
            parts.append(f".{piece}" if parts else str(piece))
    return "".join(parts) or "<config>"


def _schema_violations(cfg: dict) -> list[str]:
    validator = jsonschema.Draft202012Validator(_CONFIG_SCHEMA)
    found = [f"{_json_path(e)}: {e.message}" for e in validator.iter_errors(cfg)]
    return sorted(found)


def _cross_violations(command: str, cfg: dict) -> list[str]:
    """Consistency rules jsonschema cannot express, with field paths."""
    bad = []
    model = cfg["model"]
    n = len(model["r"])
    if len(model["sigma"]) != n:
        bad.append(f"model.sigma: {len(model['sigma'])} entries for {n} regimes")
    if "q" in model and len(model["q"]) != n:
        bad.append(f"model.q: {len(model['q'])} entries for {n} regimes")
    gen = model["gen"]
    if len(gen) != n or any(len(row) != n for row in gen):
        bad.append(f"model.gen: must be {n}x{n}")
    state = cfg["state"]
    if state.get("regime", 0) >= n:
        bad.append(f"state.regime: {state['regime']} out of range for {n} regimes")
    option = cfg["option"]
    if state.get("t", 0.0) > option["T"]:
        bad.append(f"state.t: {state['t']} exceeds option.T = {option['T']}")
    style = option["style"]
    if style in _FLOATING_STYLES and option.get("K") is not None:
        bad.append("option.K: must be null for floating styles")
    if style not in _FLOATING_STYLES and option.get("multiplier", 1.0) != 1.0:
        bad.append("option.multiplier: only floating styles use the multiplier")
    method_name = next(iter(cfg["method"]))
    if method_name not in _COMMAND_METHODS[command]:
        allowed = " | ".join(_COMMAND_METHODS[command])
        bad.append(f"method: subcommand '{command}' needs {allowed}, found '{method_name}'")
        return bad
    if method_name in ("ham", "fd", "compare"):
        if style != "floating_put" or option.get("multiplier", 1.0) != 1.0:
            bad.append(
                f"option.style: method '{method_name}' prices the floating_put "
                "with multiplier 1.0"
            )
    if method_name == "european_rs" and style != "european_put":
        bad.append("option.style: method 'european_rs' prices european_put only")
    if command == "symmetry-check":
        if style not in _SYMMETRY_STYLES:
            bad.append(f"option.style: no fixed/floating counterpart for '{style}'")
        if state.get("t", 0.0) != 0.0 or state.get("a", 0.0) != 0.0:
            bad.append("state.t: symmetry-check requires t = 0 and a = 0")
    return bad


def _ham_config(block: dict, T: float) -> HamConfig:
    kwargs = dict(block)
    if "guess_quad" in kwargs:
        kwargs["guess_quad"] = QuadratureSpec(**kwargs["guess_quad"])
    hc = HamConfig(**kwargs)
    z_min = hc.z_min if hc.z_min is not None else -math.log(20.0 * T)
    z_max = hc.z_max if hc.z_max is not None else -math.log(1.0e-4)
    return replace(hc, z_min=z_min, z_max=z_max)


def _mc_config(block: dict) -> McConfig:
    kwargs = {"n_paths": 100_000}
    kwargs.update(block)
    return McConfig(**kwargs)


def _fd_config(block: dict, T: float, state: MarketState) -> FdConfig:
    fc = FdConfig(**block)
    if fc.y_max is None:
        y0 = state.a / state.s if state.t > 0.0 else 0.0
        fc = replace(fc, y_max=default_y_max(T, y0))
    return fc


def _materialize(command: str, cfg: dict) -> dict:
    """Effective config: every default filled in, ready to re-run."""
    model = dict(cfg["model"])
    n = len(model["r"])
    model.setdefault("q", [0.0] * n)
    option = {"K": None, "multiplier": 1.0}
    option.update(cfg["option"])
    state = {"t": 0.0, "a": 0.0, "regime": 0}
    state.update(cfg["state"])
    T = option["T"]
    mstate = MarketState(t=state["t"], s=state["s"], a=state["a"], regime=state["regime"])

    def engine_block(name: str, block: dict) -> dict:
        if name == "ham":
            return asdict(_ham_config(block, T))
        if name == "mc":
            return asdict(_mc_config(block))
        if name == "fd":
            return asdict(_fd_config(block, T, mstate))
        return {"quad": asdict(QuadratureSpec(**block.get("quad", {})))}

    method_name = next(iter(cfg["method"]))
    block = cfg["method"][method_name]
    if method_name == "compare":
        method = {"compare": {k: engine_block(k, v) for k, v in sorted(block.items())}}
    else:
        method = {method_name: engine_block(method_name, block)}
    output = {"timings": False}
    output.update(cfg["output"])
    return {
        "schema_version": 1,
        "model": model,
        "option": option,
        "state": state,
        "method": method,
        "output": output,
    }


def _build_model(model_block: dict) -> RegimeModel:
    model = RegimeModel(
        r=tuple(model_block["r"]),
        sigma=tuple(model_block["sigma"]),
        gen=tuple(tuple(row) for row in model_block["gen"]),
        q=tuple(model_block["q"]),
    )
    return validate_model(model)


def _build_spec(option_block: dict) -> AsianOptionSpec:
    return AsianOptionSpec(
        style=option_block["style"],
        T=option_block["T"],
        K=option_block["K"],
        strike_multiplier=option_block["multiplier"],
    )


def _timer(enabled: bool):
    start = time.perf_counter()

    def done() -> int:
        return int(round((time.perf_counter() - start) * 1000.0)) if enabled else 0

    return done


def _engine_row(name: str, block: dict, model: RegimeModel, spec: AsianOptionSpec,
                state: MarketState, timings: bool, in_compare: bool) -> dict:
    T = spec.T
    done = _timer(timings)
    if name == "mc":
        est = mc_price(spec, state, model, _mc_config(block))
        return {
            "method": "mc",
            "price": est.price,
            "error_estimate": est.std_error,
            "runtime_ms": done(),
            "diagnostics": {
                "std_error": est.std_error,
                "n_paths": block["n_paths"],
                "n_steps": block["n_steps"],
                "seed": block["seed"],
                "antithetic": block["antithetic"],
            },
        }
    if name == "fd":
        fc = _fd_config(block, T, state)
        if in_compare:
            base = replace(fc, n_y=max(3, fc.n_y // 4), n_t=max(3, fc.n_t // 4))
            order, prices = richardson_order(model, T, base, state)
            return {
                "method": "fd",
                "price": prices[-1],
                "error_estimate": abs(prices[-1] - prices[-2]),
                "runtime_ms": done(),
                "diagnostics": {
                    "richardson_order": order,
                    "grid_prices": [float(p) for p in prices],
                    "finest_n_y": base.n_y * 4,
                    "finest_n_t": base.n_t * 4,
                },
            }
        surf = fd_price(model, T, fc)
        return {
            "method": "fd",
            "price": surf.dollar_price(state),
            "error_estimate": None,
            "runtime_ms": done(),
            "diagnostics": {
                "n_y": fc.n_y,
                "n_t": fc.n_t,
                "y_max": fc.y_max,
            },
        }
    if name == "ham":
        res = price_floating_put_ham(state, model, _ham_config(block, T), T)
        diag = dict(res.diagnostics)
        diag["term_norms"] = [
            [float(x) for x in row] for row in diag.get("term_norms", [])
        ]
        return {
            "method": "ham",
            "price": res.price,
            "error_estimate": None,
            "runtime_ms": done(),
            "diagnostics": diag,
        }
    # european_rs
    res = price_european_put_rs(
        model,
        s=state.s,
        k=spec.K,
        t=state.t,
        T=T,
        regime=state.regime,
        quad=QuadratureSpec(**block["quad"]),
    )
    return {
        "method": "european_rs",
        "price": res.price,
        "error_estimate": res.error_estimate,
        "runtime_ms": done(),
        "diagnostics": res.diagnostics,
    }


def _convergence_rows(block: dict, model: RegimeModel, spec: AsianOptionSpec,
                      state: MarketState, timings: bool) -> list[dict]:
    T = spec.T
    rows = []
    for guess in ("european_rs", "zero"):
        done = _timer(timings)
        cfg = replace(_ham_config(block, T), initial_guess_mode=guess)
        terms = build_terms(model, T, cfg)
        previous = None
        for m in range(len(terms)):
            surf = assemble_series(terms[: m + 1], model)
            price, _ = series_dollar_price(surf, state, T)
            rows.append(
                {
                    "guess_mode": guess,
                    "m_terms": m,
                    "price": price,
                    "delta": None if previous is None else abs(price - previous),
                    "runtime_ms": done(),
                }
            )
            previous = price
    return rows


def _symmetry_rows(check: dict) -> list[dict]:
    rows = []
    for row in check["per_regime"]:
        rows.append(
            {
                "section": f"regime{row['regime']}",
                "lhs_price": row["lhs_price"],
                "rhs_price_scaled": row["rhs_price_scaled"],
                "gap": row["gap"],
                "se": math.hypot(row["lhs_se"], row["rhs_se_scaled"]),
                "z": row["z"],
            }
        )
    st = check["stationary"]
    rows.append(
        {
            "section": "stationary",
            "lhs_price": st["lhs_price"],
            "rhs_price_scaled": st["rhs_price_scaled"],
            "gap": st["gap"],
            "se": st["se"],
            "z": st["z"],
        }
    )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def _write_report(path: str, fmt: str, kind: str, columns: list[str],
                  rows: list[dict], extra: dict | None = None) -> None:
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(row.get(c)) for c in columns])
        return
    doc = {"kind": kind, "rows": rows}
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _run(command: str, config_path: str) -> int:
    try:
        with open(config_path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        print(f"config unreadable: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"config is not valid JSON: {e}", file=sys.stderr)
        return 2

    violations = _schema_violations(raw)
    if not violations:
        violations = _cross_violations(command, raw)
    if violations:
        for v in violations:
            print(f"config invalid: {v}", file=sys.stderr)
        return 2

    effective = _materialize(command, raw)
    model = _build_model(effective["model"])
    spec = _build_spec(effective["option"])
    st = effective["state"]
    state = MarketState(t=st["t"], s=st["s"], a=st["a"], regime=st["regime"])
    output = effective["output"]
    timings = output["timings"]

    with open(output["path"] + ".effective.json", "w", encoding="utf-8") as f:
        f.write(json.dumps(effective, indent=2, sort_keys=True) + "\n")

    method_name = next(iter(effective["method"]))
    block = effective["method"][method_name]
    extra = None
    if command == "price":
        rows = [_engine_row(method_name, block, model, spec, state, timings, False)]
        columns = ["method", "price", "error_estimate", "runtime_ms", "diagnostics"]
    elif command == "compare":
        rows = [
            _engine_row(name, sub, model, spec, state, timings, True)
            for name, sub in ((k, block[k]) for k in ("ham", "mc", "fd") if k in block)
        ]
        columns = ["method", "price", "error_estimate", "runtime_ms", "diagnostics"]
    elif command == "convergence":
        rows = _convergence_rows(block, model, spec, state, timings)
        columns = ["guess_mode", "m_terms", "price", "delta", "runtime_ms"]
    else:  # symmetry-check
        check = symmetry_mc_check(spec, model, state, _mc_config(block))
        rows = _symmetry_rows(check)
        columns = ["section", "lhs_price", "rhs_price_scaled", "gap", "se", "z"]
        extra = {
            "case": {
                "lhs": list(check["lhs"]),
                "rhs": list(check["rhs"]),
                "scale": check["scale"],
            }
        }

    for row in rows:
        price = row.get("price", row.get("lhs_price"))
        if price is not None and not math.isfinite(price):
            print(f"numerical failure: non-finite price in row {row}", file=sys.stderr)
            return 3

    _write_report(output["path"], output["format"], command, columns, rows, extra)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rsasian",
        description="Price floating-strike Asian puts (and related contracts) "
        "under a two-state regime-switching model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("price", "single-engine price report"),
        ("compare", "one report row per engine"),
        ("convergence", "series-term convergence table, both initial guesses"),
        ("symmetry-check", "Monte Carlo check of the fixed/floating equivalence"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
    args = parser.parse_args(argv)
    try:
        return _run(args.command, args.config)
    except (ValidationError, NotApplicable) as e:
        print(f"config invalid: {e}", file=sys.stderr)
        return 2
    except PricingError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
