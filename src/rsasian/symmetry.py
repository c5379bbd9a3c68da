"""Fixed/floating Asian option equivalences under the rate-dividend swap.

A floating-strike Asian option written at inception is worth a known
multiple of a fixed-strike Asian option of the opposite call/put type,
priced at the same spot under the model whose short-rate and
dividend-yield vectors have traded places. Writing ``mu`` for the
moneyness of the left-hand contract (the floating multiplier, or
``K / s0`` for a cash strike ``K``), the counterpart carries moneyness
``1 / mu`` and the prices satisfy::

    price(lhs) = mu * price(counterpart)

so the pairing is an involution on (style, moneyness) and the scale
factors of the two directions cancel. At ``mu = 1`` the scale drops out
and the floating call at spot ``s0`` matches the fixed put struck at
``s0`` exactly.

The equivalence rests on running the model backwards in time. Reversal
preserves the law of the modulating chain only when the chain starts
from its stationary distribution ``pi`` and satisfies detailed balance,
``pi_i g_ij = pi_j g_ji``; every two-state chain does, and a chain that
does not is refused. Reversal exchanges the chain's start for its end.
Two statements follow:

* stationary: with the starting regime drawn from ``pi`` on both sides,
  ``E_pi[lhs] = mu * E_pi[rhs]``;
* terminal-conditioned, per regime ``i`` with ``pi_i > 0``:
  ``E[lhs | X_0 = i] = mu * E_pi[rhs * 1{X_T = i}] / pi_i``, the right
  side started from ``pi`` and restricted to paths that end in ``i``.

Conditioning both sides on the same fixed starting regime is not one of
them: it biases the sides in opposite directions whenever the regimes
differ and switching is active. The Monte Carlo checker reports all
three views side by side.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import NotApplicable
from .mc import McConfig, mc_price
from .model import (
    FIXED_STYLES,
    AsianOptionSpec,
    MarketState,
    OptionStyle,
    RegimeModel,
)

_PAIRED = {
    OptionStyle.FLOATING_CALL: OptionStyle.FIXED_PUT,
    OptionStyle.FIXED_PUT: OptionStyle.FLOATING_CALL,
    OptionStyle.FIXED_CALL: OptionStyle.FLOATING_PUT,
    OptionStyle.FLOATING_PUT: OptionStyle.FIXED_CALL,
}


def _moneyness(spec: AsianOptionSpec, s0: float) -> float:
    if spec.style in FIXED_STYLES:
        return spec.K / s0
    return spec.strike_multiplier


def symmetric_counterpart(
    spec: AsianOptionSpec,
    model: RegimeModel,
    state: MarketState,
) -> tuple[AsianOptionSpec, RegimeModel, float]:
    """Equivalent contract, swapped model, and price scale at inception.

    ``state`` supplies the inception spot (needed to convert between
    cash strikes and floating multipliers) and is validated: the
    equivalence is only claimed at ``t = 0`` with ``a = 0``, and only for
    a chain in detailed balance under its stationary law ``pi`` (to within
    ``1e-9`` of the largest generator entry); anything else raises
    ``NotApplicable``. The input contract priced under the input model
    equals ``scale`` times the returned contract priced at the same spot
    under the returned model, with the starting regime drawn from the
    chain's stationary law on both sides. Per regime, the input contract
    started in ``i`` equals ``scale`` times the returned contract started
    stationarily and ending in ``i``, divided by the stationary weight of
    ``i`` (see the module docstring).
    """
    if state.t != 0.0 or state.a != 0.0:
        raise NotApplicable(
            f"symmetry holds at inception only (t={state.t!r}, a={state.a!r})"
        )
    if spec.style not in _PAIRED:
        raise NotApplicable(f"no fixed/floating counterpart for {spec.style.value}")
    gen = model.gen_array()
    flow = _stationary_law(model)[:, None] * gen
    if np.abs(flow - flow.T).max() > 1e-9 * np.abs(gen).max():
        raise NotApplicable(f"generator {[list(row) for row in model.gen]} is not in detailed "
                            "balance, so the time reversal the symmetry rests on fails")
    s0 = state.s
    mu = _moneyness(spec, s0)
    new_style = _PAIRED[spec.style]
    if new_style in FIXED_STYLES:
        new_spec = AsianOptionSpec(style=new_style, T=spec.T, K=s0 / mu)
    else:
        new_spec = AsianOptionSpec(style=new_style, T=spec.T, strike_multiplier=1.0 / mu)
    return new_spec, model.swap_rates_dividends(), mu


def _side_tuple(spec: AsianOptionSpec, model: RegimeModel, s0: float) -> tuple:
    strike_arg = spec.K if spec.style in FIXED_STYLES else spec.strike_multiplier
    return (s0, strike_arg, model.r, model.q, 0.0, spec.T)


def _stationary_law(model: RegimeModel) -> np.ndarray:
    """Stationary distribution of the modulating chain.

    Solves ``pi A = 0`` with ``sum(pi) = 1`` by least squares; for the
    two-state generator this is ``(a21, a12) / (a12 + a21)``, falling
    back to uniform when the chain never switches. Weights below
    ``1e-12`` are solver round-off and are set to zero, so a regime the
    chain leaves for good gets no weight at all.
    """
    gen = model.gen_array()
    n = gen.shape[0]
    if not gen.any():
        return np.full(n, 1.0 / n)
    lhs = np.vstack([gen.T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    pi = np.where(pi > 1e-12, pi, 0.0)
    return pi / pi.sum()


def _comparison(lhs_price, lhs_var, rhs_price, rhs_var, **label) -> dict:
    """One record of a view, after the ``label`` keys; the sides are independent,
    so the gap's variance is the sum of theirs."""
    se = float(np.sqrt(lhs_var + rhs_var))
    return {
        **label,
        "lhs_price": lhs_price,
        "lhs_se": float(np.sqrt(lhs_var)),
        "rhs_price_scaled": rhs_price,
        "rhs_se_scaled": float(np.sqrt(rhs_var)),
        "gap": lhs_price - rhs_price,
        "se": se,
        "z": (lhs_price - rhs_price) / se,
    }


def _mix(weights, prices, ses) -> tuple[float, float]:
    """Weighted sum of independent estimates and its variance."""
    return float(np.dot(weights, prices)), float(np.dot(np.square(weights), np.square(ses)))


def symmetry_mc_check(
    spec: AsianOptionSpec,
    model: RegimeModel,
    state: MarketState,
    cfg: McConfig,
) -> dict:
    """Price both sides of one equivalence by Monte Carlo and compare.

    Left side: the input contract under the input model. Right side:
    ``scale`` times the counterpart contract under the swapped model at
    the same spot. Both sides are priced once per starting regime, each
    run on its own seed (``cfg.seed + 2 * regime`` on the left,
    ``cfg.seed + 2 * regime + 1`` on the right), so the runs are
    independent and their variances add. The same runs yield three views:

    * ``per_regime``: both sides started in the same regime. Not a form
      the identity takes; the gaps show the conditional behaviour.
    * ``stationary``: both sides mixed with the stationary weights.
    * ``terminal_conditioned``: the left side started in regime ``i``
      against ``scale * sum_j pi_j E[rhs * 1{X_T = i} | X_0 = j] / pi_i``.
      Regimes with zero stationary weight get no row.

    Returns a plain dict (JSON-ready) with the case record and the three
    views. Every record holds ``lhs_price``, ``lhs_se``,
    ``rhs_price_scaled``, ``rhs_se_scaled``, ``gap``, ``se`` (the two
    side errors in quadrature) and ``z = gap / se``; per-regime and
    terminal-conditioned records add ``regime``, the stationary record
    ``weights``.
    """
    other_spec, other_model, scale = symmetric_counterpart(spec, model, state)
    pi = _stationary_law(model)
    rows = []
    rhs_runs = []
    for regime in range(model.n_states):
        st = MarketState(t=state.t, s=state.s, a=state.a, regime=regime)
        lhs = mc_price(spec, st, model, replace(cfg, seed=cfg.seed + 2 * regime))
        rhs = mc_price(
            other_spec, st, other_model, replace(cfg, seed=cfg.seed + 2 * regime + 1)
        )
        rows.append(_comparison(lhs.price, lhs.std_error**2, scale * rhs.price,
                                (scale * rhs.std_error) ** 2, regime=regime))
        rhs_runs.append(rhs)
    terminal = []
    for i in range(model.n_states):
        if pi[i] <= 0.0:
            continue
        weight = scale / float(pi[i])
        rhs_price, rhs_var = _mix(pi, [run.terminal_price[i] for run in rhs_runs],
                                  [run.terminal_se[i] for run in rhs_runs])
        row = rows[i]
        terminal.append(_comparison(row["lhs_price"], row["lhs_se"] ** 2, weight * rhs_price,
                                    weight**2 * rhs_var, regime=i))
    stationary = _comparison(
        *_mix(pi, [row["lhs_price"] for row in rows], [row["lhs_se"] for row in rows]),
        *_mix(pi, [row["rhs_price_scaled"] for row in rows],
              [row["rhs_se_scaled"] for row in rows]),
        weights=[float(w) for w in pi],
    )
    return {
        "lhs": _side_tuple(spec, model, state.s),
        "rhs": _side_tuple(other_spec, other_model, state.s),
        "scale": scale,
        "per_regime": rows,
        "stationary": stationary,
        "terminal_conditioned": terminal,
    }
