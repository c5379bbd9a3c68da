"""Crank-Nicolson solver for the reduced floating-strike Asian put system.

The state is the running-average ratio ``y = a / s``; prices in dollars
are ``s * V_i(t, y)``. Each regime's operator is

    L_i V = (1 - (r_i - q_i) y) V_y + (sigma_i^2 / 2) y^2 V_yy - q_i V,

and the regimes couple through the generator row. Marching is backward
from the terminal payoff ``(y/T - 1)^+``. A Crank-Nicolson level is one
sparse solve, ``2 (I - dt/2 A)^-1 v - v``, with no matrix-vector product;
a few fully implicit startup steps damp the payoff kink (the kink
ordinate ``y = T`` is snapped onto the grid for clean second-order
convergence). The time domain is ``[t_min, T]``: the march stops at the
level at or below ``t_min`` (0 by default); callers holding a state pass
``state.t``, as they do for ``y_max``, and reads there match a full march.

At ``y = 0`` the diffusion coefficient vanishes and the equation itself
degenerates to one-sided transport; the solver keeps that degenerate
row, since the characteristic there flows into the domain and the value
at zero average is positive (pinning it to zero would misprice). The
regime coupling is treated implicitly, inside the same sparse system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InterpolationOutOfRange, LinearSolveFailure, ValidationError
from .model import MarketState, RegimeModel, bilinear, validate_model


@dataclass(frozen=True)
class FdConfig:
    """Grid controls.

    ``n_y`` and ``n_t`` count intervals, so doubling them exactly
    refines the grid. ``y_max=None`` resolves to ``4 T`` at solve time;
    callers holding a state should pass ``default_y_max(T, y0)``.
    ``t_min`` is the earliest calendar time the surface must cover, so
    the time domain is ``[t_min, T]``; ``None`` resolves to 0. The CLI
    always sets it to ``state.t``, whatever a config holds.
    """

    y_max: float | None = None
    n_y: int = 800
    n_t: int = 800
    rannacher_steps: int = 2
    t_min: float | None = None

    def __post_init__(self):
        if self.y_max is not None and not (self.y_max > 0.0):
            raise ValidationError("y_max not > 0")
        if self.n_y < 3 or self.n_t < 3:
            raise ValidationError("n_y and n_t must be >= 3")
        if self.rannacher_steps < 0:
            raise ValidationError("rannacher_steps not >= 0")
        if self.t_min is not None and not (self.t_min >= 0.0):
            raise ValidationError("t_min not >= 0")


def default_y_max(T: float, y0: float = 0.0) -> float:
    """Grid upper bound with four expiries of buffer past the payoff kink."""
    return max(4.0 * T, 4.0 * y0 + 4.0 * T)


@dataclass(frozen=True)
class FdSurfaces:
    """Retained value surfaces ``V_i(t, y)`` on the solver grid."""

    t_nodes: np.ndarray
    y_nodes: np.ndarray
    values: np.ndarray  # shape (levels kept, n_states, n_y + 1)

    def value(self, t: float, y: float, regime: int) -> float:
        """Bilinear interpolation; refuses points off the grid."""
        if not 0 <= regime < self.values.shape[1]:
            raise InterpolationOutOfRange(f"regime index {regime} out of range")
        return bilinear(self.values[:, regime], ("t", self.t_nodes, t), ("y", self.y_nodes, y))

    def dollar_price(self, state: MarketState) -> float:
        """Price in currency units: ``s * V_i(t, a/s)``."""
        if state.s <= 0.0:
            raise ValidationError("spot must be > 0")
        return state.s * self.value(state.t, state.a / state.s, state.regime)

    def monotone_in_y(self, tol: float = 1e-9) -> bool:
        """True when every retained level is nondecreasing in y."""
        diffs = np.diff(self.values, axis=2)
        return bool((diffs >= -tol).all())


def _spatial_operator(model: RegimeModel, y: np.ndarray):
    """Sparse generator of the coupled semigroup, interleaved ordering.

    Unknown ``2 j + i`` is regime ``i`` at node ``j``; the interleaving
    keeps the bandwidth at two, so the factorization stays cheap. Entries
    are listed in one fixed order, so duplicates always sum the same way.
    """
    n, n_states = y.size, model.n_states
    h = y[1] - y[0]
    gen = model.gen_array()
    node = n_states * np.arange(n)
    rows, cols, data = [], [], []

    def add(row, offsets, values):
        """Entries ``(row, row + offset)``, node by node, offsets in the given order."""
        rows.append(np.repeat(row, len(offsets)))
        cols.append((np.reshape(row, (-1, 1)) + offsets).ravel())
        data.append(np.stack(np.broadcast_arrays(*values), axis=-1).ravel())

    for i in range(n_states):
        r_i, q_i, sig_i = model.r[i], model.q[i], model.sigma[i]
        adv = 1.0 - (r_i - q_i) * y
        dif = 0.5 * sig_i**2 * y**2
        a, d = adv[1:-1], dif[1:-1]
        add(node[1:-1] + i, [-n_states, 0, n_states],
            [d / h**2 - a / (2 * h), -2 * d / h**2 - q_i, d / h**2 + a / (2 * h)])
        # far field: ghost node from vanishing second derivative turns the
        # central slope into (V_N - V_{N-1}) / h
        a = adv[-1]
        add(node[-1:] + i, [-n_states, 0], [-a / h, a / h - q_i])
        # y = 0 row, the degenerate equation V_t + adv(0) V_y - q V = 0,
        # one-sided second order
        a = adv[0]
        add(node[:1] + i, [0, n_states, 2 * n_states],
            [-3 * a / (2 * h) - q_i, 4 * a / (2 * h), -a / (2 * h)])

    for i in range(n_states):
        for k in range(n_states):
            if i != k:
                add(node + i, [0, k - i], [np.full(n, -gen[i, k]), gen[i, k]])

    rows, cols, data = (np.concatenate(x) for x in (rows, cols, data))
    return sp.coo_matrix((data, (rows, cols)), shape=(n_states * n,) * 2).tocsr()


def fd_price(model: RegimeModel, T: float, cfg: FdConfig = FdConfig()) -> FdSurfaces:
    """Backward Crank-Nicolson solve over ``[t_min, T]``; returns the levels kept.

    The march stops at the last time node at or below ``cfg.t_min``
    (keeping at least two levels), so reads at ``t >= t_min`` match the
    full march; callers holding a state pass ``t_min = state.t``. Each
    Crank-Nicolson level is one solve, ``2 (I - dt/2 A)^-1 v - v``, which
    is ``(I - dt/2 A)^-1 (I + dt/2 A) v``; ``A`` only enters the factorisation.
    """
    validate_model(model)
    if not (T > 0.0):
        raise ValidationError("T not > 0")
    y_max = cfg.y_max if cfg.y_max is not None else default_y_max(T)
    if not (y_max > T):
        raise ValidationError(f"y_max={y_max!r} not > T={T!r}")
    t_min = cfg.t_min if cfg.t_min is not None else 0.0
    if not (t_min <= T):
        raise ValidationError(f"t_min={t_min!r} not <= T={T!r}")

    # snap the payoff kink y = T onto the grid
    h0 = y_max / cfg.n_y
    k = max(1, round(T / h0))
    h = T / k
    y = np.arange(cfg.n_y + 1) * h

    n_states = model.n_states
    t_nodes = np.linspace(0.0, T, cfg.n_t + 1)
    first = min(int(np.searchsorted(t_nodes, t_min, side="right")) - 1, cfg.n_t - 1)
    dt = T / cfg.n_t
    # interleaved like the operator: node-major, regime-minor
    v = np.repeat(np.maximum(y / T - 1.0, 0.0), n_states)

    # one factorization serves both stages: (I - dt/2 A) is the implicit
    # matrix of the Crank-Nicolson step and of a backward-Euler half-step,
    # so the kink-damping startup (two half-steps per step) reuses it
    implicit = sp.identity(v.size, format="csr") - 0.5 * dt * _spatial_operator(model, y)
    try:
        solve_imp = spla.splu(implicit.tocsc())
    except RuntimeError as exc:  # pragma: no cover - singular operator
        raise LinearSolveFailure(f"factorization failed: {exc}") from exc

    # full-march size: one allocator request at any t_min; levels below first stay untouched
    levels = np.empty((cfg.n_t + 1, y.size, n_states))
    levels[-1] = v.reshape(-1, n_states)
    for step in range(cfg.n_t - first):
        out = levels[-2 - step].reshape(-1)
        if step < cfg.rannacher_steps:
            out[:] = solve_imp.solve(solve_imp.solve(v))
        else:
            np.multiply(solve_imp.solve(v), 2.0, out=out)
            out -= v
        v = out
    if not np.all(np.isfinite(levels[first:])):
        raise LinearSolveFailure("non-finite values in the implicit solve")

    values = levels[first:].transpose(0, 2, 1)
    values.setflags(write=False)
    return FdSurfaces(t_nodes=t_nodes[first:], y_nodes=y, values=values)


def richardson_order(
    model: RegimeModel,
    T: float,
    cfg: FdConfig,
    state: MarketState,
    refinements: int = 2,
) -> tuple[float, list[float]]:
    """Empirical convergence order from successively doubled grids.

    Returns ``(order, prices)`` where ``prices`` has ``refinements + 1``
    entries; the order uses the last three. Each grid marches down to
    ``state.t`` only.
    """
    if refinements < 2:
        raise ValidationError("refinements must be >= 2")
    prices = []
    for level in range(refinements + 1):
        scaled = replace(cfg, n_y=cfg.n_y * 2**level, n_t=cfg.n_t * 2**level, t_min=state.t)
        prices.append(fd_price(model, T, scaled).dollar_price(state))
    d1 = prices[-2] - prices[-3]
    d2 = prices[-1] - prices[-2]
    if d2 == 0.0:
        return math.inf, prices
    ratio = d1 / d2
    if ratio <= 0.0:
        return 0.0, prices
    return math.log2(ratio), prices
