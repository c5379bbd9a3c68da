"""The benchmark's workloads: CLI configs generated from a seed, and the
checks every report must pass.

One round of a workload is a fixed list of operations. An operation is
one ``rsasian`` CLI command plus the checks on its report. A check can
find two things: a *problem* (the report is wrong: the run is not
correct) or the *known fault* of the series engine (the operation
counts as failed). Only the series_probe ``compare`` operations can
show the known fault, and their inputs do not depend on the seed. A
command that raises or exits non-zero is both a problem and a failed
operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference
from rsasian.european import price_european_put_rs
from rsasian.ham import HamConfig, ham_grid
from rsasian.model import RegimeModel

T = 1.0
S0 = 100.0
DESK_MODEL = {"r": [0.05, 0.03], "sigma": [0.3, 0.2], "gen": [[-1.0, 1.0], [1.0, -1.0]]}
FAST_MODEL = {"r": [0.05, 0.03], "sigma": [0.3, 0.2], "gen": [[-50.0, 50.0], [50.0, -50.0]]}

# The CLI's default MC block: 100k paths at 252 steps a year (one batch).
MC_PATHS = 100_000
MC_STEPS = 252
# The desk-state floating put runs two batches (mc._BATCH_SIZE = 250k, then
# 50k), so it runs the batch loop and a full-size batch's switch table.
BIG_PATHS = 300_000
# Each round makes five z-tests; at 4.5 the chance that correct code fails
# one of them is about 3e-5 per round, where |z| <= 3 would be about 1%.
Z_BOUND = 4.5
# FD in compare refines (n/4, n/2, n); n = 1600 keeps the order >= 1.8 at inception.
COMPARE_FD = {"n_y": 1600, "n_t": 1600}
FD_MIN_ORDER = 1.8
HAM_FD_REL = 0.01
# (t, y = a/s) of the compare states; all share one series surface.
PROBE_STATES = ((0.0, 0.0), (0.5, 0.5), (0.5, 0.75), (0.5, 1.0))
CENT = 0.01


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    fault: str | None = None  # the known series-engine fault only
    crashed: bool = False  # the command raised or exited non-zero
    s_at_1c: float | None = None

    @property
    def failed(self) -> bool:
        return self.crashed or self.fault is not None


# check(report, earlier reports by op name, reference, command seconds)
Check = Callable[[dict, dict, object, float], Verdict]


@dataclass
class Op:
    name: str
    command: str
    role: str  # "bulk" or "check": which end-to-end metric times it
    config: dict  # without its output block
    check: Check
    reference: Callable[[], object] = lambda: None
    timings: bool = False


def make(workload: str, seed: int) -> list[Op]:
    """The operations of one round of ``workload`` for ``seed``."""
    if workload == "desk_mc":
        return _mc_ops(DESK_MODEL, seed)
    if workload == "switching_mc":
        return _mc_ops(FAST_MODEL, seed)
    if workload == "series_probe":
        return _series_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


WORKLOADS = ("desk_mc", "switching_mc", "series_probe")


def _config(model: dict, option: dict, t: float, y: float, regime: int, method: dict) -> dict:
    return {
        "schema_version": 1,
        "model": model,
        "option": dict(option, T=T),
        "state": {"t": t, "s": S0, "a": S0 * y, "regime": regime},
        "method": method,
    }


def _model(block: dict) -> RegimeModel:
    return RegimeModel(
        r=tuple(block["r"]), sigma=tuple(block["sigma"]),
        gen=tuple(tuple(row) for row in block["gen"]),
    )


# --- Monte Carlo workloads --------------------------------------------------

def _mc_ops(model: dict, seed: int) -> list[Op]:
    """Floating pairs from both regimes, a fixed pair, a European put and a
    symmetry-check, all at inception."""
    rng = np.random.default_rng(seed)
    mc_seeds = iter(int(x) for x in rng.integers(1, 2**31, size=8))
    fixed_k = round(float(rng.uniform(90.0, 110.0)), 2)
    fixed_regime = int(rng.integers(2))
    euro_k = round(float(rng.uniform(90.0, 110.0)), 2)
    euro_regime = int(rng.integers(2))

    def mc(option, regime, name, check, paths=MC_PATHS, role="bulk", command="price",
           ref=lambda: None):
        method = {"mc": {"n_paths": paths, "n_steps": MC_STEPS,
                         "seed": next(mc_seeds), "antithetic": True}}
        if command == "price":
            check = _priced(check, paths, option["style"].startswith("floating"))
        return Op(name, command, role, _config(model, option, 0.0, 0.0, regime, method),
                  check, ref)

    ops = []
    for regime in (0, 1):
        ops.append(mc({"style": "floating_put"}, regime, f"floating_put_r{regime}", _mc_only,
                      paths=BIG_PATHS if regime == 0 else MC_PATHS))
        ops.append(mc({"style": "floating_call"}, regime, f"floating_call_r{regime}",
                      _parity(f"floating_put_r{regime}"),
                      ref=lambda i=regime: reference.floating_parity(model, T, S0, i)))
    ops.append(mc({"style": "fixed_put", "K": fixed_k}, fixed_regime, "fixed_put", _mc_only))
    ops.append(mc({"style": "fixed_call", "K": fixed_k}, fixed_regime, "fixed_call",
                  _parity("fixed_put"),
                  ref=lambda: reference.fixed_parity(model, T, S0, fixed_regime, fixed_k)))
    ops.append(mc({"style": "european_put", "K": euro_k}, euro_regime, "european_put", _european,
                  ref=lambda: price_european_put_rs(_model(model), S0, euro_k, 0.0, T,
                                                    euro_regime).price))
    ops.append(mc({"style": "floating_put"}, 0, "symmetry", _symmetry,
                  role="check", command="symmetry-check"))
    return ops


def _priced(check: Check, paths: int, timed_to_1c: bool) -> Check:
    """``check``, plus: the report's one row ran the configured number of paths.

    A ``timed_to_1c`` command also yields its seconds to a one-cent
    standard error, seconds x (SE / 1c)^2, which does not depend on the
    path count. Only the floating commands do: the strikes are drawn from
    the seed, so the fixed and European SEs change from seed to seed.
    """
    def checked(report, earlier, ref, seconds) -> Verdict:
        verdict = check(report, earlier, ref, seconds)
        rows = report.get("rows", [])
        got = [row.get("diagnostics", {}).get("n_paths") for row in rows]
        if got != [paths]:
            verdict.problems.append(f"n_paths {got!r}, expected [{paths}]")
        elif timed_to_1c and not verdict.problems:
            verdict.s_at_1c = seconds * (rows[0]["error_estimate"] / CENT) ** 2
        return verdict
    return checked


def _mc_row(report: dict, verdict: Verdict) -> dict | None:
    rows = report.get("rows", [])
    if report.get("kind") != "price" or len(rows) != 1 or rows[0].get("method") != "mc":
        verdict.problems.append(f"expected one mc price row, got {rows!r}")
        return None
    row = rows[0]
    price, se = row["price"], row["error_estimate"]
    if not (math.isfinite(price) and price >= 0.0 and math.isfinite(se) and se > 0.0):
        verdict.problems.append(f"price {price!r} with standard error {se!r}")
        return None
    return row


def _mc_only(report, earlier, ref, seconds) -> Verdict:
    verdict = Verdict()
    _mc_row(report, verdict)
    return verdict


def _z_problem(what: str, est: float, ref: float, se: float) -> list[str]:
    z = (est - ref) / se
    return [] if abs(z) <= Z_BOUND else [f"{what}: {est:.6f} vs {ref:.6f}, z = {z:.2f}"]


def _parity(put_name: str) -> Check:
    def check(report, earlier, ref, seconds) -> Verdict:
        verdict = Verdict()
        call = _mc_row(report, verdict)
        put = _mc_row(earlier[put_name], Verdict()) if put_name in earlier else None
        if call is not None and put is None:
            verdict.problems.append(f"no {put_name} report to check parity against")
        elif call is not None:
            se = math.hypot(put["error_estimate"], call["error_estimate"])
            verdict.problems += _z_problem(f"{put_name} parity", put["price"] - call["price"],
                                           ref, se)
        return verdict
    return check


def _european(report, earlier, ref, seconds) -> Verdict:
    verdict = Verdict()
    row = _mc_row(report, verdict)
    if row is not None:
        verdict.problems += _z_problem("european put vs closed form", row["price"], ref,
                                       row["error_estimate"])
    return verdict


def _symmetry(report, earlier, ref, seconds) -> Verdict:
    verdict = Verdict()
    rows = {row["section"]: row for row in report.get("rows", [])}
    if set(rows) != {"regime0", "regime1", "stationary"}:
        verdict.problems.append(f"symmetry-check sections {sorted(rows)!r}")
        return verdict
    st = rows["stationary"]
    if not (math.isfinite(st["z"]) and abs(st["z"]) <= Z_BOUND):
        verdict.problems.append(f"stationary symmetry z = {st['z']!r}")
    return verdict


# --- series workload -----------------------------------------------------------

def _series_ops(seed: int) -> list[Op]:
    """``convergence`` at a seeded mid-life state, then ``compare`` at fixed states."""
    rng = np.random.default_rng(seed)
    t = round(float(rng.uniform(0.4, 0.6)), 4)
    y = round(float(rng.uniform(0.55, 0.95)), 4)
    regime = int(rng.integers(2))
    ops = [Op("convergence", "convergence", "check",
              _config(DESK_MODEL, {"style": "floating_put"}, t, y, regime, {"ham": {}}),
              _convergence, lambda: _term0_reference(t, y, regime))]
    names = [f"compare_t{pt}_y{py}" for pt, py in PROBE_STATES]
    mid_life = [n for n, (pt, _) in zip(names, PROBE_STATES) if pt > 0.0]
    for name, (pt, py) in zip(names, PROBE_STATES):
        method = {"compare": {"ham": {}, "fd": dict(COMPARE_FD)}}
        ops.append(Op(name, "compare", "bulk",
                      _config(DESK_MODEL, {"style": "floating_put"}, pt, py, 0, method),
                      _compare(mid_life if name == mid_life[-1] else []),
                      timings=True))
    return ops


def _term0_reference(t: float, y: float, regime: int) -> dict:
    """Closed-form term 0 at the state, and its bilinear interpolant on the series grid.

    The european_rs guess maps the state to ``s y P_i(1/y, 1/T, T - t)``;
    the report reads it off the grid, so it may differ from the closed
    form by the grid's interpolation error. The zero guess carries the
    reduced payoff ``(e^{-z}/T - 1)^+`` at every time level.
    """
    model = _model(DESK_MODEL)
    z_nodes, u_nodes = ham_grid(HamConfig(), T)
    u, z = T - t, -math.log(y)
    ku = min(int(np.searchsorted(u_nodes, u, "right")) - 1, len(u_nodes) - 2)
    kz = min(int(np.searchsorted(z_nodes, z, "right")) - 1, len(z_nodes) - 2)
    fu = (u - u_nodes[ku]) / (u_nodes[ku + 1] - u_nodes[ku])
    fz = (z - z_nodes[kz]) / (z_nodes[kz + 1] - z_nodes[kz])
    weights = {(0, 0): (1 - fu) * (1 - fz), (1, 0): fu * (1 - fz),
               (0, 1): (1 - fu) * fz, (1, 1): fu * fz}

    def guess(uu: float, zz: float) -> float:
        put = price_european_put_rs(model, math.exp(zz), 1.0 / T, T - uu, T, regime).price
        return S0 * math.exp(-zz) * put

    def payoff(zz: float) -> float:
        return S0 * max(math.exp(-zz) / T - 1.0, 0.0)

    cells = {(a, b): (u_nodes[ku + a], z_nodes[kz + b]) for a, b in weights}
    return {
        "european_rs": (guess(u, z), sum(w * guess(*cells[k]) for k, w in weights.items())),
        "zero": (payoff(z), sum(w * payoff(cells[k][1]) for k, w in weights.items())),
    }


def _convergence(report, earlier, ref, seconds) -> Verdict:
    verdict = Verdict()
    rows = report.get("rows", [])
    m_trunc = HamConfig().m_trunc
    keys = [(row["guess_mode"], row["m_terms"]) for row in rows]
    want = [(g, m) for g in ("european_rs", "zero") for m in range(m_trunc + 1)]
    if keys != want:
        verdict.problems.append(f"convergence rows {keys!r}, expected {want!r}")
        return verdict
    for row in rows:
        if not math.isfinite(row["price"]):
            verdict.problems.append(f"non-finite price in {row!r}")
    for row in rows:
        if row["m_terms"] != 0:
            continue
        exact, interpolated = ref[row["guess_mode"]]
        tol = 2.0 * abs(interpolated - exact) + 1e-6 * S0
        if abs(row["price"] - exact) > tol:
            verdict.problems.append(
                f"{row['guess_mode']} term 0: {row['price']!r} vs closed form {exact!r} "
                f"(interpolation error {abs(interpolated - exact):.3g})"
            )
    return verdict


def _compare(monotone_over: list[str]) -> Check:
    """FD must converge at second order and rise with y; HAM must match FD.

    Crank-Nicolson work grows like 1/error, so FD's seconds to a one-cent
    error are its row's seconds times (Richardson error estimate / 1c).

    A HAM price outside 1 % of FD, widened by FD's Richardson error
    estimate, is the known fault: the series engine integrates its
    sources over xi >= 0 only, while the reduced payoff lives on z < 0.
    """
    def check(report, earlier, ref, seconds) -> Verdict:
        verdict = Verdict()
        rows = {row["method"]: row for row in report.get("rows", [])}
        if report.get("kind") != "compare" or sorted(rows) != ["fd", "ham"]:
            verdict.problems.append(f"compare rows {sorted(rows)!r}")
            return verdict
        fd, ham = rows["fd"], rows["ham"]
        order = fd["diagnostics"]["richardson_order"]
        if not (math.isfinite(fd["price"]) and fd["price"] > 0.0 and order >= FD_MIN_ORDER):
            verdict.problems.append(f"FD price {fd['price']!r}, Richardson order {order!r}")
            return verdict
        verdict.s_at_1c = fd["runtime_ms"] / 1000.0 * fd["error_estimate"] / CENT
        if monotone_over:
            prices = [_fd_price(earlier[n]) if n in earlier else math.nan for n in monotone_over]
            if not all(a <= b for a, b in zip(prices, prices[1:])):
                verdict.problems.append(f"FD prices fall as y rises: {prices!r}")
        gap = abs(ham["price"] - fd["price"])
        if not gap <= HAM_FD_REL * fd["price"] + fd["error_estimate"]:
            verdict.fault = f"HAM {ham['price']:.4f} vs FD {fd['price']:.4f}"
        return verdict
    return check


def _fd_price(report: dict) -> float:
    return next(row["price"] for row in report["rows"] if row["method"] == "fd")
