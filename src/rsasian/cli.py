"""Batch command line front end for the pricing engines.

One run reads a JSON config document (``schema_version`` 1) holding five
blocks: ``model`` (rate/volatility/dividend vectors and the chain
generator), ``option`` (style, expiry, strike data), ``state``
(valuation time, spot, running integral, regime), exactly one ``method``
sub-block (``ham`` | ``mc`` | ``fd`` | ``european_rs`` | ``compare``),
and ``output`` (format ``csv`` or ``json``, report path). Subcommands:

* ``price``          one row from a single engine
* ``compare``        one row per engine named in ``method.compare``
* ``convergence``    partial-sum prices and deltas per added series term,
                     for both initial-guess modes, read off the cached
                     series surface (:func:`rsasian.ham.series_surfaces`);
                     refused (exit 3) where the series clamps at z_max.
                     It runs both modes, so its ``ham`` block takes no
                     ``initial_guess_mode``
* ``symmetry-check`` Monte Carlo on both sides of the fixed/floating
                     equivalence: one row per terminal regime the chain
                     visits and one combined with its stationary weights

An FD row, in ``price`` or ``compare``, marches n/4, n/2 and the configured
``n_y`` x ``n_t`` (each a multiple of 4, at least 12) down to the state's ``t``,
so its block takes no ``t_min``, and reports their order-2 Richardson limit,
with its error estimate (:func:`rsasian.fd.richardson_limit`). Its grids, like
series surfaces, stay cached for the process's life under one bound. The
``european_rs`` block is empty: the European leg's tolerance is fixed
(:func:`rsasian.european.price_european_put_rs`).

Exit codes: 0 success, 2 for unreadable or schema-invalid configs and
contract violations (messages name field paths, except that model and
symmetry refusals print the message of the object that owns them), 3 for
numerical failures, a divergent series among them. CSV reports use ``.``
decimals, ``,`` separators, and LF line endings; JSON reports sort
their keys. Repeated runs of one config are
byte-identical: wall-clock timings go into ``runtime_ms`` only when
``output.timings`` is true, otherwise the column reads 0. Each
``convergence`` row is timed on its own; row 0 of a guess mode carries
the surface lookup or build.

Each report is written with ``<report path>.effective.json``: the config
with all defaults materialized, so each number in a report is
reproducible from that one file. A refused or failed run writes
neither. ``PRICER_THREADS`` caps the Monte Carlo worker pool without
changing any result (batches own their seeds); a value that is not a
positive integer exits 2 as ``environment invalid``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import typing
from dataclasses import asdict, fields, replace

from .errors import (
    InterpolationOutOfRange,
    InvalidEnvironment,
    NotApplicable,
    PricingError,
    ValidationError,
)
from .european import price_european_put_rs
# fd_price, build_terms and assemble_series are not called here; perfbench/spans.py wraps them
# on this module
from .fd import FdConfig, fd_price, richardson_limit, richardson_order
from .ham import (
    HamConfig,
    assemble_series,
    build_terms,
    ham_window,
    price_floating_put_ham,
    series_dollar_price,
    series_surfaces,
)
from .mc import McConfig, mc_price
from .model import (
    FLOATING_STYLES,
    AsianOptionSpec,
    MarketState,
    OptionStyle,
    RegimeModel,
)
from .symmetry import symmetry_mc_check

_NUM = {"type": "number"}

_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", type(None): "null"}


def _block_schema(cls) -> dict:
    """Method-block schema for a config dataclass, one optional key per field.

    A field's ``enum`` metadata (the engine module's mode tuple) becomes a
    JSON enum.
    """
    hints = typing.get_type_hints(cls)
    props = {}
    for f in fields(cls):
        hint = hints[f.name]
        if "enum" in f.metadata:
            props[f.name] = {"enum": list(f.metadata["enum"])}
        else:
            types = [_JSON_TYPES[a] for a in (typing.get_args(hint) or (hint,))]
            props[f.name] = {"type": types[0] if len(types) == 1 else types}
    return {"type": "object", "additionalProperties": False, "properties": props}


_HAM_SCHEMA = _block_schema(HamConfig)
_MC_SCHEMA = _block_schema(McConfig)
_FD_SCHEMA = _block_schema(FdConfig)
del _FD_SCHEMA["properties"]["t_min"]  # an FD row marches to the state's t
_EURO_SCHEMA = {"type": "object", "additionalProperties": False}

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
                "style": {"enum": [style.value for style in OptionStyle]},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "K": {"type": ["number", "null"]},
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
                "timings": {"type": "boolean"},
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


def _json_path(error) -> str:
    parts = []
    for piece in error.absolute_path:
        if isinstance(piece, int):
            parts.append(f"[{piece}]")
        else:
            parts.append(f".{piece}" if parts else str(piece))
    return "".join(parts) or "<config>"


def _schema_violations(cfg: dict) -> list[str]:
    import jsonschema  # about 50 ms, so importing this module does not load it
    validator = jsonschema.Draft202012Validator(_CONFIG_SCHEMA)
    found = [f"{_json_path(e)}: {e.message}" for e in validator.iter_errors(cfg)]
    return sorted(found)


def _cross_violations(command: str, cfg: dict) -> list[str]:
    """Rules jsonschema cannot express and no library object refuses first, with field paths."""
    bad = []
    n = len(cfg["model"]["r"])
    state = cfg["state"]
    if state.get("regime", 0) >= n:
        bad.append(f"state.regime: {state['regime']} out of range for {n} regimes")
    option = cfg["option"]
    t = state.get("t", 0.0)
    if t > option["T"]:
        bad.append(f"state.t: {t} exceeds option.T = {option['T']}")
    style = option["style"]
    floating = OptionStyle(style) in FLOATING_STYLES
    if floating and option.get("K") is not None:
        bad.append("option.K: must be null for floating styles")
    if not floating and option.get("multiplier", 1.0) != 1.0:
        bad.append("option.multiplier: only floating styles use the multiplier")
    method_name = next(iter(cfg["method"]))
    if method_name not in _COMMAND_METHODS[command]:
        allowed = " | ".join(_COMMAND_METHODS[command])
        bad.append(f"method: subcommand '{command}' needs {allowed}, found '{method_name}'")
        return bad
    if command == "convergence" and "initial_guess_mode" in cfg["method"]["ham"]:
        bad.append("method.ham.initial_guess_mode: convergence tabulates both guess modes")
    if method_name in ("ham", "fd", "compare"):
        if style != "floating_put" or option.get("multiplier", 1.0) != 1.0:
            bad.append(
                f"option.style: method '{method_name}' prices the floating_put "
                "with multiplier 1.0"
            )
    fd_at = "method.compare.fd" if method_name == "compare" else "method.fd"
    fd = (cfg["method"]["compare"] if method_name == "compare" else cfg["method"]).get("fd", {})
    for key in ("n_y", "n_t"):  # FD marches n/4, n/2 and n: its finest grid is the configured one
        if key in fd and (fd[key] % 4 or fd[key] < 12):
            bad.append(f"{fd_at}.{key}: {fd[key]} is not a multiple of 4 of at least 12")
    if method_name == "european_rs" and style != "european_put":
        bad.append("option.style: method 'european_rs' prices european_put only")
    return bad


def _engine_config(name: str, block: dict, T: float, state: MarketState):
    """One engine's config object, every default resolved; ``None`` for the
    European leg, which has no settings."""
    if name == "ham":
        hc = HamConfig(**block)
        z_min, z_max = ham_window(hc, T)
        return replace(hc, z_min=z_min, z_max=z_max)
    if name == "mc":
        return McConfig(**block)
    if name == "fd":  # the Richardson grids n/4 and n/2 must fit the state too
        cfg = FdConfig(**block)
        for k in (4, 2):
            replace(cfg, n_y=cfg.n_y // k, n_t=cfg.n_t // k).for_state(T, state)
        return cfg.for_state(T, state)
    return None


def _materialize(command: str, cfg: dict) -> tuple[dict, dict, MarketState]:
    """Effective config (every default filled in), its engine config objects by name, and the state."""
    model = dict(cfg["model"])
    n = len(model["r"])
    model.setdefault("q", [0.0] * n)
    option = {"K": None, "multiplier": 1.0}
    option.update(cfg["option"])
    state = {"t": 0.0, "a": 0.0, "regime": 0}
    state.update(cfg["state"])
    T = option["T"]
    mstate = MarketState(t=state["t"], s=state["s"], a=state["a"], regime=state["regime"])

    method_name, block = next(iter(cfg["method"].items()))
    blocks = dict(sorted(block.items())) if method_name == "compare" else {method_name: block}
    engines = {k: _engine_config(k, v, T, mstate) for k, v in blocks.items()}
    dumped = {k: {} if c is None else asdict(c) for k, c in engines.items()}
    if "fd" in dumped:  # the row marches to the state's t
        del dumped["fd"]["t_min"]
    if command == "convergence":  # the table runs both guess modes
        del dumped["ham"]["initial_guess_mode"]
    method = {"compare": dumped} if method_name == "compare" else dumped
    output = {"timings": False}
    output.update(cfg["output"])
    return {
        "schema_version": 1,
        "model": model,
        "option": option,
        "state": state,
        "method": method,
        "output": output,
    }, engines, mstate


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


def _engine_row(name: str, cfg, model: RegimeModel, spec: AsianOptionSpec,
                state: MarketState, timings: bool) -> dict:
    """One ``price`` or ``compare`` row: each engine yields its price, error
    estimate and diagnostics."""
    T = spec.T
    done = _timer(timings)
    if name == "mc":
        est = mc_price(spec, state, model, cfg)
        price, error = est.price, est.std_error
        diagnostics = {"std_error": est.std_error, **asdict(cfg)}
    elif name == "fd":
        base = replace(cfg, n_y=cfg.n_y // 4, n_t=cfg.n_t // 4)
        order, prices = richardson_order(model, T, base, state)
        price, error = richardson_limit(prices)
        diagnostics = {
            "richardson_order": order,
            "grid_prices": [float(p) for p in prices],
            "finest_n_y": cfg.n_y,
            "finest_n_t": cfg.n_t,
            "y_max": cfg.y_max,
        }
    else:
        if name == "ham":
            res = price_floating_put_ham(state, model, cfg, T)
        else:  # european_rs
            res = price_european_put_rs(model, s=state.s, k=spec.K, t=state.t, T=T,
                                        regime=state.regime)
        price, error, diagnostics = res.price, res.error_estimate, res.diagnostics
    return {
        "method": name,
        "price": price,
        "error_estimate": error,
        "runtime_ms": done(),
        "diagnostics": diagnostics,
    }


def _convergence_rows(cfg: HamConfig, model: RegimeModel, spec: AsianOptionSpec,
                      state: MarketState, timings: bool) -> list[dict]:
    T = spec.T
    rows = []
    for guess in ("european_rs", "zero"):
        done = _timer(timings)
        surf = series_surfaces(model, T, replace(cfg, initial_guess_mode=guess))
        previous = None
        for m in range(len(surf.partials)):
            price, info = series_dollar_price(surf, state, m)
            if info["clamped"]:
                z = -math.log(state.a / state.s) if state.a > 0.0 else math.inf
                raise InterpolationOutOfRange(f"z={z:.4f} beyond z_max={info['z']:.4f}: every "
                                              "partial sum would read the clamped far column")
            rows.append(
                {
                    "guess_mode": guess,
                    "m_terms": m,
                    "price": price,
                    "delta": None if previous is None else abs(price - previous),
                    "runtime_ms": done(),
                }
            )
            done = _timer(timings)
            previous = price
    return rows


_SYMMETRY_COLUMNS = ["section", "lhs_price", "rhs_price_scaled", "gap", "se", "z"]


def _symmetry_rows(check: dict) -> list[dict]:
    """The terminal-conditioned records as ``regime{i}`` rows, then the stationary record."""
    named = [(f"regime{row['regime']}", row) for row in check["terminal_conditioned"]]
    named.append(("stationary", check["stationary"]))
    return [{"section": name, **{c: row[c] for c in _SYMMETRY_COLUMNS[1:]}}
            for name, row in named]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
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

    effective, engines, state = _materialize(command, raw)
    model = RegimeModel(**effective["model"])
    spec = _build_spec(effective["option"])
    output = effective["output"]
    timings = output["timings"]

    extra = None
    if command in ("price", "compare"):
        rows = [
            _engine_row(name, engines[name], model, spec, state, timings)
            for name in ("ham", "mc", "fd", "european_rs") if name in engines
        ]
        columns = ["method", "price", "error_estimate", "runtime_ms", "diagnostics"]
    elif command == "convergence":
        rows = _convergence_rows(engines["ham"], model, spec, state, timings)
        columns = ["guess_mode", "m_terms", "price", "delta", "runtime_ms"]
    else:  # symmetry-check
        check = symmetry_mc_check(spec, model, state, engines["mc"])
        rows = _symmetry_rows(check)
        columns = _SYMMETRY_COLUMNS
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

    with open(output["path"] + ".effective.json", "w", encoding="utf-8") as f:
        f.write(json.dumps(effective, indent=2, sort_keys=True) + "\n")
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
    except InvalidEnvironment as e:
        print(f"environment invalid: {e}", file=sys.stderr)
        return 2
    except (ValidationError, NotApplicable) as e:
        print(f"config invalid: {e}", file=sys.stderr)
        return 2
    except PricingError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
