"""European put pricing under two-state regime switching.

Prices by Fourier inversion of the symmetrized coupled system. Writing
``x = ln(S/K)`` and subtracting the expected discounted strike ``D_i``
(a two-state ODE solution), the remainder ``e^{-x/2} (V_i - D_i) / K``
satisfies a constant-coefficient coupled heat system whose transform
evolves by a 2x2 matrix exponential. The terminal transform is
``-1/(1/4 + omega^2)`` for both regimes, and the price is recovered
from a single integral over real frequencies ``omega`` with
Gaussian-decaying integrand. Nothing divides by ``sigma_0^2 - sigma_1^2``,
so it is exact for every two-state model: equal or unequal variances, rates
and dividend yields, and any coupling strength.

The integral is a Gauss-Legendre rule of ``P`` equal panels, node ``mid_p +
offset_g``; as ``mid_p = (2p + 1) mid_0``, the panel phases are a running
product of ``e^{2 i mid_0 x}``. :func:`_put_transform` streams the panels a
block at a time, so its memory stays flat however many a short maturity needs.

:func:`price_european_put_rs` refines that rule until its error estimate
meets the :class:`QuadratureSpec` tolerance, or refuses, and clips the result
to the no-arbitrage bounds. :func:`european_put_grid`, the bulk path of the
series guess, makes one pass on the first grid of that refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureNotConverged, ValidationError
from .model import PriceResult, RegimeModel, require_two_states

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANEL_BLOCK = 256
_MIN_PANELS = 100  # a first grid has at least 2000 nodes, 20 per panel


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract of the spectral integral.

    The frequency grid is sized from the model, with at least
    ``_MIN_PANELS`` panels. :func:`price_european_put_rs` refines the grid
    until its error estimate is within ``max(abs_tol, rel_tol * |price|)``.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValidationError("quadrature tolerances must be > 0")


def black_scholes_put(
    s: float, k: float, r: float, sigma: float, ttm: float, q: float = 0.0
) -> float:
    """Vanilla Black-Scholes put, used as a limit and test oracle."""
    from scipy.special import ndtr

    if ttm <= 0.0:
        return max(k - s, 0.0)
    sq = sigma * math.sqrt(ttm)
    d1 = (math.log(s / k) + (r - q + 0.5 * sigma * sigma) * ttm) / sq
    d2 = d1 - sq
    return k * math.exp(-r * ttm) * ndtr(-d2) - s * math.exp(-q * ttm) * ndtr(-d1)


def discounted_strike_vector(model: RegimeModel, k: float, ttm: float) -> np.ndarray:
    """Expected discounted strike per starting regime.

    Solves ``D' = (gen - diag(r)) D`` over ``ttm`` from ``D = (k, k)``;
    this is the deep-in-the-money put limit. Collapses to
    ``k e^{-r_i ttm}`` when the short rates coincide.
    """
    from scipy.linalg import expm

    g = model.gen_array() - np.diag(model.r_array())
    return expm(g * ttm) @ np.full(model.n_states, float(k))


def _spectral_terms(model: RegimeModel, omega: np.ndarray, ttm: float) -> np.ndarray:
    """Transform-domain solution rows ``E_i(omega)``, shape (2, n)."""
    sig_sq = model.sigma_array() ** 2
    r = model.r_array()
    q = model.q_array()
    a1 = model.gen[0][1]
    a2 = model.gen[1][0]
    om_sq = omega * omega + 0.25

    phi = (
        0.5 * sig_sq[:, None] * om_sq[None, :]
        - 1j * omega[None, :] * (r - q)[:, None]
        + 0.5 * (r + q)[:, None]
        + np.array([a1, a2])[:, None]
    )
    h = 0.5 * (phi[0] + phi[1])
    delta = 0.5 * (phi[0] - phi[1])
    rad = np.sqrt(delta * delta + a1 * a2)  # branch-free: used only in even combos

    e_plus = np.exp((rad - h) * ttm)
    e_minus = np.exp(-(rad + h) * ttm)
    cosh_term = 0.5 * (e_plus + e_minus)
    # sinh(rad ttm) / rad; its series where rad ttm is too small to divide by
    small = np.abs(rad) * ttm < 1e-8
    sinh_term = 0.5 * (e_plus - e_minus) / np.where(small, 1.0, rad)
    if small.any():
        h_s, rad_s = h[small], rad[small]
        sinh_term[small] = ttm * np.exp(-h_s * ttm) * (1.0 + (rad_s * ttm) ** 2 / 6.0)
    payoff_hat = -1.0 / om_sq
    e1 = (cosh_term + (a1 - delta) * sinh_term) * payoff_hat
    e2 = (cosh_term + (a2 + delta) * sinh_term) * payoff_hat
    return np.stack([e1, e2])


def _exact_grid_sizes(model: RegimeModel, ttm: float, x_max: float):
    sig_min_sq = float(np.min(model.sigma_array()) ** 2)
    omega_max = max(50.0, math.sqrt(80.0 / (sig_min_sq * ttm)))
    width = min(3.0 * 2.0 * math.pi / (abs(x_max) + 1.0), omega_max / 8.0)
    n_panels = max(int(math.ceil(omega_max / width)), _MIN_PANELS)
    return omega_max, n_panels


def _put_transform(model: RegimeModel, x: np.ndarray, ttm: float, omega_max: float,
                   n_panels: int):
    """``(w, last)``: ``w`` (2, n_x), the transform part of the put at log-moneyness
    ``x`` (the put is ``D_i + sqrt(s k) w_i``), and ``last`` (2, 20), the last
    panel's weighted terms, which the error estimate reads. The ``P`` panels of
    ``[0, omega_max]`` go ``_PANEL_BLOCK`` at a time into one ``(2, 20, n_x)``
    sum, the running phase product carried across blocks, so nothing has length P."""
    half = 0.5 * omega_max / n_panels
    offsets = half * _GL_NODES
    step = np.exp(2j * half * x)
    phase = np.exp(1j * half * x)
    panels = 0.0
    for p in range(0, n_panels, _PANEL_BLOCK):
        mid = (2.0 * np.arange(p, min(p + _PANEL_BLOCK, n_panels)) + 1.0) * half
        terms = _spectral_terms(model, (mid[:, None] + offsets).ravel(), ttm)
        terms = terms.reshape(2, -1, 20) * (half * _GL_WEIGHTS)
        rows = np.empty((len(mid), len(x)), complex)
        rows[0], rows[1:] = phase, step
        rows = np.cumprod(rows, axis=0)
        panels += terms.transpose(0, 2, 1) @ rows  # (2, 20, n_x)
        phase = rows[-1] * step
    w = (panels * np.exp(1j * np.outer(offsets, x))).real.sum(axis=1) / math.pi
    return w, terms[:, -1]


def european_put_grid(model: RegimeModel, s_values, k: float, ttm: float) -> np.ndarray:
    """Exact put values for an array of spots, both regimes at once.

    Returns shape ``(2, n_s)``. Meant for bulk evaluation such as series
    initial guesses: one pass, no refinement; ``ttm = 0`` returns the payoff.
    """
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    require_two_states(model)
    if ttm == 0.0:
        pay = np.maximum(k - s_values, 0.0)
        return np.stack([pay, pay])
    x = np.log(s_values / k)
    sizes = _exact_grid_sizes(model, ttm, float(np.max(np.abs(x))))
    w, _ = _put_transform(model, x, ttm, *sizes)
    return discounted_strike_vector(model, k, ttm)[:, None] + np.sqrt(s_values * k)[None, :] * w


def price_european_put_rs(
    model: RegimeModel,
    s: float,
    k: float,
    t: float,
    T: float,
    regime: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PriceResult:
    """European put price for the starting regime, with an error estimate.

    The quadrature error estimate combines the change under node halving
    with the last panel's contribution, floored at ``8 * np.spacing(D_i)``
    (a price is ``D_i`` plus the transform; converged rules differ by up to
    4 such spacings), so a tolerance below roundoff is never met. Each pass
    that misses ``max(quad.abs_tol, quad.rel_tol * |price|)`` doubles the
    panels and stretches the cutoff by 1.3; after six refinements the call
    raises :class:`QuadratureNotConverged`. The converged price is clipped
    to the no-arbitrage bounds ``[max(D_i - s Q_i, 0), D_i]``, ``D`` the
    expected discounted strike and ``Q`` the expected dividend discount; a
    clip that moves the price records the unclipped value as ``unclipped_price``.
    Equal regime variances take the same path as any other two-state model.
    """
    require_two_states(model)
    if regime not in (0, 1):
        raise ValidationError(f"regime index {regime!r} not 0 or 1")
    if not (s > 0.0 and k > 0.0):
        raise ValidationError("spot and strike must be > 0")
    if not (0.0 <= t <= T):
        raise ValidationError(f"t={t!r} outside [0, {T!r}]")
    ttm = T - t
    if ttm == 0.0:
        return PriceResult(price=max(k - s, 0.0), method="european_rs", error_estimate=0.0)
    x = np.log(np.array([s]) / k)
    scale = math.sqrt(s * k)
    d = discounted_strike_vector(model, k, ttm)[regime]
    omega_max, n_panels = _exact_grid_sizes(model, ttm, abs(math.log(s / k)))
    attempts = 0
    while True:
        fine, last = _put_transform(model, x, ttm, omega_max, n_panels)
        halved, _ = _put_transform(model, x, ttm, omega_max, max(1, n_panels // 2))
        price = float(d + scale * fine[regime, 0])
        coarse = float(d + scale * halved[regime, 0])
        tail = float(np.abs(last[regime]).sum()) * scale / math.pi
        err = max(abs(price - coarse) + tail, 8.0 * float(np.spacing(d)))
        tol = max(quad.abs_tol, quad.rel_tol * max(abs(price), 1e-12))
        if err <= tol:
            break
        attempts += 1
        if attempts > 6:
            raise QuadratureNotConverged(
                f"error estimate {err:.3e} above tolerance {tol:.3e} after {attempts} refinements"
            )
        omega_max, n_panels = omega_max * 1.3, n_panels * 2

    diagnostics = {"nodes": (omega_max, n_panels)}
    q_disc = discounted_strike_vector(model.swap_rates_dividends(), 1.0, ttm)[regime]
    clipped = min(max(price, d - s * q_disc, 0.0), d)
    if clipped != price:
        diagnostics["unclipped_price"] = price
    return PriceResult(price=float(clipped), method="european_rs", error_estimate=err,
                       diagnostics=diagnostics)
