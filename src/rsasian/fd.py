"""Crank-Nicolson solver for the reduced floating-strike Asian put system.

The state is the running-average ratio ``y = a / s``; prices in dollars
are ``s * V_i(t, y)``. Each regime's operator is

    L_i V = (1 - (r_i - q_i) y) V_y + (sigma_i^2 / 2) y^2 V_yy - q_i V,

and the regimes couple through the generator row. Marching is backward
from the terminal payoff ``(y/T - 1)^+``. The generator is written straight
into LAPACK band storage, ``I - dt/2 A`` is factored once, and a
Crank-Nicolson level is one banded solve, ``2 (I - dt/2 A)^-1 v - v``, with
no matrix-vector product: FD loads only scipy.linalg's BLAS and LAPACK;
the first ``_STARTUP_STEPS`` steps are each two fully implicit half-steps,
which damp the payoff kink (the kink ordinate ``y = T`` is snapped onto
the grid for clean second-order convergence). The time domain is
``[t_min, T]``: the march stops at the level at or below ``t_min``;
callers holding a state take ``t_min`` and ``y_max`` from
:meth:`FdConfig.for_state`. A state read keeps only the two levels that
bracket ``t_min``, so memory does not grow with ``n_t``, and reads there
match a full march bit for bit; ``t_min=None`` keeps every level of
``[0, T]``. :func:`richardson_order` marches three grids, each twice as fine as
the last, and :func:`richardson_limit` makes their prices one order-2 limit; like
series surfaces, its grids stay for the life of the process in one bounded cache
(:func:`rsasian.model.cached_surface`), so a repeated read marches nothing.

At ``y = 0`` the diffusion coefficient vanishes and the equation itself
degenerates to one-sided transport; the solver keeps that degenerate
row, since the characteristic there flows into the domain and the value
at zero average is positive (pinning it to zero would misprice). The
regime coupling is treated implicitly, inside the same banded system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from .errors import InterpolationOutOfRange, LinearSolveFailure, ValidationError
from .model import MarketState, RegimeModel, bilinear, cached_surface

_STARTUP_STEPS = 2  # Rannacher steps: each is two backward-Euler half-steps


@dataclass(frozen=True)
class FdConfig:
    """Grid controls.

    ``n_y`` and ``n_t`` count intervals, so doubling them exactly
    refines the grid. ``y_max=None`` resolves to ``4 T`` at solve time.
    ``t_min`` is the calendar time a state read needs: the surface keeps
    only the two levels that bracket it. ``None`` keeps every level of
    ``[0, T]``, for callers that read many times. Callers holding a state
    call :meth:`for_state`, which sets both to fit it.
    """

    y_max: float | None = None
    n_y: int = 800
    n_t: int = 800
    t_min: float | None = None

    def __post_init__(self):
        if self.y_max is not None and not (self.y_max > 0.0):
            raise ValidationError("y_max not > 0")
        if self.n_y < 3 or self.n_t < 3:
            raise ValidationError("n_y and n_t must be >= 3")
        if self.t_min is not None and not (self.t_min >= 0.0):
            raise ValidationError("t_min not >= 0")

    def for_state(self, T: float, state: MarketState) -> FdConfig:
        """This grid for a read at ``state``: ``t_min = state.t``, and an unset
        ``y_max`` is ``default_y_max(T, a/s)``; a set one is kept, and refused
        if ``a/s`` lies past the last node the march builds."""
        y0 = state.a / state.s
        y_max = self.y_max if self.y_max is not None else default_y_max(T, y0)
        cfg = replace(self, y_max=y_max, t_min=state.t)
        last = float(_y_nodes(T, cfg)[-1])
        if y0 > last:
            raise ValidationError(
                f"a/s={y0} lies past the last grid node y={last} (y_max={y_max})")
        return cfg


def default_y_max(T: float, y0: float = 0.0) -> float:
    """``4 max(T, y0)``: inception's buffer, 4x the kink ``y = T``, put around the state
    ``y0 = a/s``; a wider domain only coarsens the step (it moved no mid-life price by
    over 1.5e-10). :meth:`FdConfig.for_state` applies it to an unset ``y_max``."""
    return 4.0 * max(T, y0)


@dataclass(frozen=True)
class FdSurfaces:
    """Retained value surfaces ``V_i(t, y)`` on the solver grid.

    The levels kept are the two that bracket ``FdConfig.t_min``, or every
    level of ``[0, T]`` when it is ``None``; reads at other times raise
    :class:`InterpolationOutOfRange`. The arrays are read-only: a cached surface is shared.
    """

    t_nodes: np.ndarray
    y_nodes: np.ndarray
    values: np.ndarray  # shape (levels kept, n_states, n_y + 1)

    def __post_init__(self):
        for arr in (self.t_nodes, self.y_nodes, self.values):
            arr.setflags(write=False)

    def value(self, t: float, y: float, regime: int) -> float:
        """Bilinear interpolation; refuses points off the grid."""
        if not 0 <= regime < self.values.shape[1]:
            raise InterpolationOutOfRange(f"regime index {regime} out of range")
        return bilinear(self.values[:, regime], ("t", self.t_nodes, t), ("y", self.y_nodes, y))

    def dollar_price(self, state: MarketState) -> float:
        """Price in currency units: ``s * V_i(t, a/s)``."""
        return state.s * self.value(state.t, state.a / state.s, state.regime)

    def monotone_in_y(self) -> bool:
        """True when every retained level is nondecreasing in y, to within 1e-9."""
        diffs = np.diff(self.values, axis=2)
        return bool((diffs >= -1e-9).all())


def _y_nodes(T: float, cfg: FdConfig) -> np.ndarray:
    """The march's y nodes: ``n_y`` steps of about ``y_max / n_y``, snapped so
    the payoff kink ``y = T`` is a node."""
    if not (T > 0.0):
        raise ValidationError("T not > 0")
    y_max = cfg.y_max if cfg.y_max is not None else default_y_max(T)
    if not (y_max > T):
        raise ValidationError(f"y_max={y_max!r} not > T={T!r}")
    k = max(1, round(T / (y_max / cfg.n_y)))
    return np.arange(cfg.n_y + 1) * (T / k)


def _generator_band(model: RegimeModel, y: np.ndarray):
    """Generator of the coupled semigroup in LAPACK band storage: ``(band, kl, ku)``.

    Unknown ``n_states j + i`` is regime ``i`` at node ``j``, and entry ``(r, c)`` is
    ``band[kl + ku + r - c, c]``: ``kl = n_states``, and ``ku = 2 n_states`` as the
    y = 0 row reaches two nodes ahead; the first ``kl`` rows are zero, for ``dgbtrf``'s
    fill-in. Only a diagonal entry sums terms: the stencil, then the rates out of its
    regime by ascending target. With two states that is two terms, whose sum has the
    same bits in either order.
    """
    n, n_states = y.size, model.n_states
    kl, ku = n_states, 2 * n_states
    h, gen = y[1] - y[0], model.gen_array()
    band = np.zeros((2 * kl + ku + 1, n_states * n), order="F")

    def diag(offset):
        """Entries ``(r, r + offset)``, indexed ``[node, regime]`` of the column."""
        return band[kl + ku - offset].reshape(n, n_states)

    sub, main, sup, sup2 = (diag(o * n_states) for o in (-1, 0, 1, 2))
    for i in range(n_states):
        r_i, q_i, sig_i = model.r[i], model.q[i], model.sigma[i]
        adv = 1.0 - (r_i - q_i) * y
        a, d = adv[1:-1], 0.5 * sig_i**2 * y[1:-1]**2
        sub[:-2, i] = d / h**2 - a / (2 * h)
        main[1:-1, i] = -2 * d / h**2 - q_i
        sup[2:, i] = d / h**2 + a / (2 * h)
        # far field: a ghost node with V_yy = 0 makes the slope (V_N - V_{N-1}) / h
        a = adv[-1]
        sub[-2, i], main[-1, i] = -a / h, a / h - q_i
        # y = 0 row: the degenerate V_t + adv(0) V_y - q V = 0, one-sided second order
        a = adv[0]
        main[0, i], sup[1, i], sup2[2, i] = -3 * a / (2 * h) - q_i, 4 * a / (2 * h), -a / (2 * h)

    for i, k in permutations(range(n_states), 2):  # i ascending, then k
        main[:, i] -= gen[i, k]
        diag(k - i)[:, k] = gen[i, k]
    return band, kl, ku


def _banded_lu(band: np.ndarray, kl: int, ku: int):
    """Factor ``band`` (entry (i, j) in row kl + ku + i - j; overwritten); ``solve(x)``
    overwrites ``x``: two BLAS triangular band solves, or ``dgbtrs`` if rows were exchanged."""
    from scipy.linalg import blas, lapack

    lu, piv, info = lapack.dgbtrf(band, kl, ku, overwrite_ab=1)
    if info > 0:
        raise LinearSolveFailure(f"factorization failed: pivot {info - 1} is zero")
    if (piv != np.arange(piv.size)).any():
        return lambda x: lapack.dgbtrs(lu, kl, ku, x, piv, overwrite_b=1)
    lower, upper = np.asfortranarray(lu[kl + ku:]), np.asfortranarray(lu[kl:kl + ku + 1])

    def solve(x):
        # positional (k, a, x, incx, offx, lower, trans, diag, overwrite_x): keywords cost ~0.5 us
        blas.dtbsv(kl, lower, x, 1, 0, 1, 0, 1, 1)
        blas.dtbsv(ku, upper, x, 1, 0, 0, 0, 0, 1)
    return solve


def fd_price(model: RegimeModel, T: float, cfg: FdConfig = FdConfig()) -> FdSurfaces:
    """Backward Crank-Nicolson solve over ``[t_min, T]``; returns the levels kept.

    The march stops at the last time node at or below ``cfg.t_min`` and
    keeps that level and the next one, the two a read at ``t_min`` needs;
    with ``t_min=None`` it runs to 0 and keeps every level. Level ``i``
    is written to slot ``(i - first) % kept`` of one ring, so both cases
    are the same march. Each Crank-Nicolson level is one solve,
    ``2 (I - dt/2 A)^-1 v - v``, which is ``(I - dt/2 A)^-1 (I + dt/2 A) v``;
    ``A`` only enters the factorisation. The solve runs on ``2 v``: scaling by 2
    commutes with every rounding of the triangular solves (away from overflow and
    subnormals), so this gives the bits of doubling the solve of ``v``.
    """
    y = _y_nodes(T, cfg)
    t_min = cfg.t_min if cfg.t_min is not None else 0.0
    if not (t_min <= T):
        raise ValidationError(f"t_min={t_min!r} not <= T={T!r}")

    n_states = model.n_states
    t_nodes = np.linspace(0.0, T, cfg.n_t + 1)
    first = min(int(np.searchsorted(t_nodes, t_min, side="right")) - 1, cfg.n_t - 1)
    kept = cfg.n_t + 1 if cfg.t_min is None else 2
    dt = T / cfg.n_t
    # interleaved like the operator: node-major, regime-minor
    v = np.repeat(np.maximum(y / T - 1.0, 0.0), n_states)

    # one factorization serves both stages: (I - dt/2 A) is the implicit
    # matrix of the Crank-Nicolson step and of a backward-Euler half-step,
    # so the kink-damping startup (two half-steps per step) reuses it
    band, kl, ku = _generator_band(model, y)
    band *= -0.5 * dt
    band[kl + ku] += 1.0
    solve = _banded_lu(band, kl, ku)

    ring = np.empty((kept, v.size))
    slots = list(ring)  # one flat view per slot, made once
    slots[(cfg.n_t - first) % kept][:] = v
    startup = cfg.n_t - _STARTUP_STEPS
    # the sum is NaN or infinite whenever an entry is (an inf and a -inf sum to
    # NaN, refused, not warned about); with two slots, a bad level may be
    # overwritten later, so each is checked as written
    with np.errstate(invalid="ignore"):
        for level in range(cfg.n_t - 1, first - 1, -1):
            out = slots[(level - first) % kept]
            if level >= startup:
                out[:] = v
                solve(out)
                solve(out)
            else:
                np.multiply(v, 2.0, out=out)
                solve(out)
                out -= v
            if not math.isfinite(out.sum()):
                raise LinearSolveFailure("non-finite values in the implicit solve")
            v = out

    values = ring.reshape(kept, y.size, n_states).transpose(0, 2, 1)
    return FdSurfaces(t_nodes=t_nodes[first:first + kept], y_nodes=y, values=values)


def richardson_order(
    model: RegimeModel,
    T: float,
    cfg: FdConfig,
    state: MarketState,
) -> tuple[float, list[float]]:
    """Empirical convergence order from the grids n, 2n and 4n.

    Returns ``(order, prices)`` with the three grids' prices, coarsest
    first, which :func:`richardson_limit` extrapolates. Each grid is fitted
    to ``state`` by :meth:`FdConfig.for_state`, all three before the first
    march, so it marches down to ``state.t`` only and keeps the two levels
    that bracket it; a grid already in the shared surface cache is read, not marched.
    """
    grids = [replace(cfg, n_y=cfg.n_y * 2**level, n_t=cfg.n_t * 2**level).for_state(T, state)
             for level in range(3)]
    prices = [cached_surface((model, T, grid), lambda: fd_price(model, T, grid))
              .dollar_price(state) for grid in grids]
    d1 = prices[1] - prices[0]
    d2 = prices[2] - prices[1]
    if d2 == 0.0:
        return math.inf, prices
    ratio = d1 / d2
    if ratio <= 0.0:
        return 0.0, prices
    return math.log2(ratio), prices


def richardson_limit(prices: list[float]) -> tuple[float, float]:
    """The order-2 limit of three grid prices, coarsest first, and its error estimate.

    With ``P_n`` the finest, ``E = P_n + (P_n - P_{n/2}) / 3`` removes the ``h^2`` term
    of the scheme's fixed order 2 (the measured order stays a diagnostic), and the
    estimate is ``|E - E_lo|``, with ``E_lo`` the same step one grid coarser.
    """
    coarse, mid, fine = prices
    limit = fine + (fine - mid) / 3.0
    return limit, abs(limit - (mid + (mid - coarse) / 3.0))
