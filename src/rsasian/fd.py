"""Crank-Nicolson solver for the reduced floating-strike Asian put system.

The state is the running-average ratio ``y = a / s``; prices in dollars
are ``s * V_i(t, y)``. Each regime's operator is

    L_i V = (1 - (r_i - q_i) y) V_y + (sigma_i^2 / 2) y^2 V_yy - q_i V,

and the regimes couple through the generator row. Marching is backward
from the terminal payoff ``(y/T - 1)^+`` with a Crank-Nicolson step and
a few fully implicit startup steps to damp the payoff kink (the kink
ordinate ``y = T`` is snapped onto the grid for clean second-order
convergence).

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
from .model import MarketState, RegimeModel, validate_model


@dataclass(frozen=True)
class FdConfig:
    """Grid controls.

    ``n_y`` and ``n_t`` count intervals, so doubling them exactly
    refines the grid. ``y_max=None`` resolves to ``4 T`` at solve time;
    callers holding a state should pass ``default_y_max(T, y0)``.
    """

    y_max: float | None = None
    n_y: int = 800
    n_t: int = 800
    rannacher_steps: int = 2

    def __post_init__(self):
        if self.y_max is not None and not (self.y_max > 0.0):
            raise ValidationError("y_max not > 0")
        if self.n_y < 3 or self.n_t < 3:
            raise ValidationError("n_y and n_t must be >= 3")
        if self.rannacher_steps < 0:
            raise ValidationError("rannacher_steps not >= 0")


def default_y_max(T: float, y0: float = 0.0) -> float:
    """Grid upper bound with four expiries of buffer past the payoff kink."""
    return max(4.0 * T, 4.0 * y0 + 4.0 * T)


@dataclass(frozen=True)
class FdSurfaces:
    """Retained value surfaces ``V_i(t, y)`` on the solver grid."""

    t_nodes: np.ndarray
    y_nodes: np.ndarray
    values: np.ndarray  # shape (n_t + 1, n_states, n_y + 1)

    def value(self, t: float, y: float, regime: int) -> float:
        """Bilinear interpolation; refuses points off the grid."""
        t_lo, t_hi = self.t_nodes[0], self.t_nodes[-1]
        if not (t_lo <= t <= t_hi):
            raise InterpolationOutOfRange(f"t={t!r} outside [{t_lo!r}, {t_hi!r}]")
        if not (self.y_nodes[0] <= y <= self.y_nodes[-1]):
            raise InterpolationOutOfRange(
                f"y={y!r} outside [{self.y_nodes[0]!r}, {self.y_nodes[-1]!r}]"
            )
        if not 0 <= regime < self.values.shape[1]:
            raise InterpolationOutOfRange(f"regime index {regime} out of range")
        it = min(int(np.searchsorted(self.t_nodes, t, side="right")) - 1, len(self.t_nodes) - 2)
        iy = min(int(np.searchsorted(self.y_nodes, y, side="right")) - 1, len(self.y_nodes) - 2)
        wt = (t - self.t_nodes[it]) / (self.t_nodes[it + 1] - self.t_nodes[it])
        wy = (y - self.y_nodes[iy]) / (self.y_nodes[iy + 1] - self.y_nodes[iy])
        v = self.values[it : it + 2, regime, iy : iy + 2]
        return float(
            (1 - wt) * ((1 - wy) * v[0, 0] + wy * v[0, 1])
            + wt * ((1 - wy) * v[1, 0] + wy * v[1, 1])
        )

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
    keeps the bandwidth at two, so the factorization stays cheap.
    """
    n = y.size
    n_states = model.n_states
    h = y[1] - y[0]
    gen = model.gen_array()
    rows, cols, data = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        data.append(v)

    for i in range(n_states):
        r_i, q_i, sig_i = model.r[i], model.q[i], model.sigma[i]
        adv = 1.0 - (r_i - q_i) * y
        dif = 0.5 * sig_i**2 * y**2
        for j in range(1, n - 1):
            base = n_states * j + i
            a, d = adv[j], dif[j]
            add(base, base - n_states, d / h**2 - a / (2 * h))
            add(base, base, -2 * d / h**2 - q_i)
            add(base, base + n_states, d / h**2 + a / (2 * h))
        # far field: ghost node from vanishing second derivative turns the
        # central slope into (V_N - V_{N-1}) / h
        j = n - 1
        base = n_states * j + i
        add(base, base - n_states, -adv[j] / h)
        add(base, base, adv[j] / h - q_i)
        # y = 0 row, the degenerate equation V_t + adv(0) V_y - q V = 0,
        # one-sided second order
        base = i
        a = adv[0]
        add(base, base, -3 * a / (2 * h) - q_i)
        add(base, base + n_states, 4 * a / (2 * h))
        add(base, base + 2 * n_states, -a / (2 * h))

    for i in range(n_states):
        for k in range(n_states):
            if i == k:
                continue
            for j in range(n):
                add(n_states * j + i, n_states * j + i, -gen[i, k])
                add(n_states * j + i, n_states * j + k, gen[i, k])

    m = sp.coo_matrix((data, (rows, cols)), shape=(n_states * n, n_states * n))
    return m.tocsr()


def fd_price(model: RegimeModel, T: float, cfg: FdConfig = FdConfig()) -> FdSurfaces:
    """Backward Crank-Nicolson solve; returns all retained time levels."""
    validate_model(model)
    if not (T > 0.0):
        raise ValidationError("T not > 0")
    y_max = cfg.y_max if cfg.y_max is not None else default_y_max(T)
    if not (y_max > T):
        raise ValidationError(f"y_max={y_max!r} not > T={T!r}")

    # snap the payoff kink y = T onto the grid
    h0 = y_max / cfg.n_y
    k = max(1, round(T / h0))
    h = T / k
    y = np.arange(cfg.n_y + 1) * h
    y_max = float(y[-1])

    n_states = model.n_states
    t_nodes = np.linspace(0.0, T, cfg.n_t + 1)
    dt = T / cfg.n_t
    payoff_vec = np.maximum(y / T - 1.0, 0.0)
    v = np.empty((n_states, y.size))
    v[:] = payoff_vec[None, :]

    a_full = _spatial_operator(model, y)

    # one factorization serves both stages: (I - dt/2 A) is the implicit
    # matrix of the Crank-Nicolson step and of a backward-Euler half-step,
    # so the kink-damping startup (two half-steps per step) reuses it
    eye = sp.identity(a_full.shape[0], format="csr")
    try:
        solve_imp = spla.splu((eye - 0.5 * dt * a_full).tocsc())
    except RuntimeError as exc:  # pragma: no cover - singular operator
        raise LinearSolveFailure(f"factorization failed: {exc}") from exc

    surfaces = np.empty((cfg.n_t + 1, n_states, y.size))
    surfaces[cfg.n_t] = v

    for step in range(cfg.n_t):
        flat = v.T.reshape(-1)  # interleaved: node-major, regime-minor
        if step < cfg.rannacher_steps:
            sol = solve_imp.solve(solve_imp.solve(flat))
        else:
            sol = solve_imp.solve(flat + 0.5 * dt * (a_full @ flat))
        if not np.all(np.isfinite(sol)):
            raise LinearSolveFailure("non-finite values in the implicit solve")
        v = sol.reshape(-1, n_states).T.copy()
        surfaces[cfg.n_t - 1 - step] = v

    surfaces.setflags(write=False)
    return FdSurfaces(t_nodes=t_nodes, y_nodes=y, values=surfaces)


def richardson_order(
    model: RegimeModel,
    T: float,
    cfg: FdConfig,
    state: MarketState,
    refinements: int = 2,
) -> tuple[float, list[float]]:
    """Empirical convergence order from successively doubled grids.

    Returns ``(order, prices)`` where ``prices`` has ``refinements + 1``
    entries; the order uses the last three.
    """
    if refinements < 2:
        raise ValidationError("refinements must be >= 2")
    prices = []
    for level in range(refinements + 1):
        scaled = replace(cfg, n_y=cfg.n_y * 2**level, n_t=cfg.n_t * 2**level)
        prices.append(fd_price(model, T, scaled).dollar_price(state))
    d1 = prices[-2] - prices[-3]
    d2 = prices[-1] - prices[-2]
    if d2 == 0.0:
        return math.inf, prices
    ratio = d1 / d2
    if ratio <= 0.0:
        return 0.0, prices
    return math.log2(ratio), prices
