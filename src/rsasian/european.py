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
offset_g``; as ``mid_p = (2p + 1) mid_0``, the panel phases are powers of
``e^{2 i mid_0 x}``. :func:`_put_transform` forms them as a 16-row running
product times a running product of stride 16, one complex product per block of
panels, and streams the blocks, so its memory stays flat however many panels a
short maturity needs. ``D_i`` is the 2x2 matrix exponential in closed form
(:func:`discounted_strike_vector`), so pricing calls no ``scipy.linalg``
routine. Every function here that takes a model refuses one without exactly two
states.

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
_PHASE_ROWS = 16  # divides _PANEL_BLOCK, so a block starts a row of sub-blocks
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
    """Expected discounted strike per starting regime of a two-state model.

    Solves ``D' = (gen - diag(r)) D`` over ``ttm`` from ``D = (k, k)``;
    this is the deep-in-the-money put limit. Collapses to
    ``k e^{-r_i ttm}`` when the short rates coincide. ``D = k e^{A ttm} (1, 1)``
    for ``A = gen - diag(r)`` comes from the eigen-split of
    :func:`_spectral_terms`, with no term that cancels and no BLAS call.

    ``A`` has eigenvalues ``h +- rad``, the one nearer zero taken as ``det(A)``
    over the other, and row ``i`` of ``A - h I`` sums to ``b_i``, so entry ``i`` is
    ``cosh + b_i sinh``: ``cosh = (e_+ + e_-)/2``, and ``sinh = (e_+ - e_-)/(2 rad)``
    or, where ``2 rad ttm <= 1``, ``e_- expm1(2 rad ttm)/(2 rad)`` (``ttm e_-`` at
    ``rad = 0``). An entry with ``b_i < 0`` is ``(e_+ (rad + b_i) + e_- (rad - b_i))
    / (2 rad)`` instead, with ``rad + b_i = A_ij (s_j - s_i) / (rad - b_i)`` for the
    row sums ``s`` of ``A``; both weights then lie in [0, 1].
    """
    require_two_states(model)
    (g00, a01), (a10, g11) = model.gen
    s0, s1 = (g00 + a01) - model.r[0], (a10 + g11) - model.r[1]
    h = 0.5 * (s0 + s1 - a01 - a10)
    delta = 0.5 * (s0 - s1 - a01 + a10)
    rad = math.hypot(delta, math.sqrt(max(a01, 0.0)) * math.sqrt(max(a10, 0.0)))
    det = s0 * s1 - s0 * a10 - a01 * s1
    far = h - rad if h <= 0.0 else h + rad
    near = det / far if far != 0.0 else 0.0
    e_far, e_near = math.exp(far * ttm), math.exp(near * ttm)
    e_plus, e_minus = (e_near, e_far) if h <= 0.0 else (e_far, e_near)
    if 2.0 * rad * ttm > 1.0:
        sinh = (e_plus - e_minus) / (2.0 * rad)
    else:
        sinh = e_minus * (math.expm1(2.0 * rad * ttm) / (2.0 * rad) if rad > 0.0 else ttm)
    out = np.empty(2)
    for i, (b, g) in enumerate(((0.5 * (s0 - s1 + a01 + a10), a01 * (s1 - s0)),
                                (0.5 * (s1 - s0 + a01 + a10), a10 * (s0 - s1)))):
        if b < 0.0 < rad:
            out[i] = (e_plus * g / (rad - b) + e_minus * (rad - b)) / (2.0 * rad)
        else:
            out[i] = 0.5 * (e_plus + e_minus) + b * sinh
    return float(k) * out


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


def _running_product(first: np.ndarray, factor: np.ndarray, n: int) -> np.ndarray:
    """Rows ``first * factor^j`` for ``j < n``, each the row before times ``factor``."""
    rows = np.empty((n, len(first)), complex)
    rows[0] = first
    for j in range(1, n):
        np.multiply(rows[j - 1], factor, out=rows[j])
    return rows


def _put_transform(model: RegimeModel, x: np.ndarray, ttm: float, omega_max: float,
                   n_panels: int):
    """``(w, last)``: ``w`` (2, n_x), the transform part of the put at log-moneyness
    ``x`` (the put is ``D_i + sqrt(s k) w_i``), and ``last`` (2, 20), the last
    panel's weighted terms, which the error estimate reads. The ``P`` panels of
    ``[0, omega_max]`` go ``_PANEL_BLOCK`` at a time into one ``(2, 20, n_x)``
    sum, so nothing has length P. Panel ``p = _PHASE_ROWS a + b`` has phase
    ``sub_b run_a``, both running products: ``sub`` of ``_PHASE_ROWS`` rows, and
    ``run`` of stride ``e^{2 i _PHASE_ROWS half x}``, carried across blocks. The
    node offsets pair as ``+-``, so ten cosines and sines apply all twenty."""
    half = 0.5 * omega_max / n_panels
    offsets = half * _GL_NODES
    sub = _running_product(np.exp(1j * half * x), np.exp(2j * half * x), _PHASE_ROWS)
    stride = np.exp(2j * _PHASE_ROWS * half * x)
    run = np.ones(len(x), complex)
    panels = 0.0
    for p in range(0, n_panels, _PANEL_BLOCK):
        mid = (2.0 * np.arange(p, min(p + _PANEL_BLOCK, n_panels)) + 1.0) * half
        terms = _spectral_terms(model, (offsets[:, None] + mid).ravel(), ttm)
        terms = terms.reshape(2, 20, -1) * (half * _GL_WEIGHTS)[:, None]
        runs = _running_product(run, stride, -(-len(mid) // _PHASE_ROWS))
        rows = (runs[:, None] * sub).reshape(-1, len(x))[:len(mid)]
        panels += (terms.reshape(40, -1) @ rows).reshape(2, 20, -1)
        run = runs[-1] * stride
    theta = np.outer(offsets[10:], x)
    re, im = panels.real, panels.imag
    w = ((re[:, 10:] + re[:, 9::-1]) * np.cos(theta)
         - (im[:, 10:] - im[:, 9::-1]) * np.sin(theta)).sum(axis=1) / math.pi
    return w, terms[:, :, -1]


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
        return PriceResult(price=max(k - s, 0.0), error_estimate=0.0)
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
    return PriceResult(price=float(clipped), error_estimate=err, diagnostics=diagnostics)
