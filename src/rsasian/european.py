"""European put pricing under two-state regime switching.

Averages Black-Scholes over the time the chain spends in regime 0 (Pedler,
J. Appl. Probab. 8, 1971; Guo, Quant. Finance 1, 2001). Given that time
``x`` over ``ttm``, with ``y = ttm - x`` in regime 1, log S_T is Gaussian
with total rate ``R = r_0 x + r_1 y``, dividend ``Q = q_0 x + q_1 y`` and
variance ``V = sigma_0^2 x + sigma_1^2 y``, so the put is Black-Scholes in
``(R, Q, V)``. A chain that starts in regime 0, leaves it at rate ``a`` and
returns at rate ``b`` has ``x = ttm`` with probability ``e^{-a ttm}``, and
otherwise the density ``e^{-(sqrt(ax) - sqrt(by))^2} [a i0e(z) +
sqrt(ab x/y) i1e(z)]``, ``z = 2 sqrt(ab x y)``, which never overflows; a
start in regime 1 swaps ``(a, x)`` with ``(b, y)``. The integrand is smooth
on ``[0, ttm]`` since ``V > 0``, so a Gauss-Legendre rule on ``x``
converges fast. The nodes are the same for both starting regimes, so one
Black-Scholes evaluation per node and spot serves both; only the two weight
rows differ. Nothing divides by ``sigma_0^2 - sigma_1^2``, so equal or
unequal variances, rates and dividend yields take the same path.

:func:`european_put_grid`, the bulk path of the series guess, makes one
pass with a node count sized from the switch rates, the maturity and the
gap between the variances (:func:`_node_count`).
:func:`price_european_put_rs` doubles the nodes until the change is within
the fixed tolerance ``max(1e-9, 1e-7 |price|)``, or the roundoff of ``D_i``
where that is larger, or refuses, and clips the result to the no-arbitrage
bounds, whose expected discounted strike ``D_i`` is the 2x2 matrix exponential
in closed form (:func:`discounted_strike_vector`), so pricing calls no
``scipy.linalg`` routine. Every function here that takes a model refuses one without exactly
two states.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureNotConverged, ValidationError
from .model import PriceResult, RegimeModel, require_two_states

# Tolerance of price_european_put_rs: max(_ABS_TOL, _REL_TOL * |price|), or the
# estimate's roundoff floor where larger. At strike 100, over volatilities 0.05-0.6,
# switch rates up to 500 a year and ttm 1e-4-3, the first doubling meets it, so a
# looser one changes no price.
_ABS_TOL = 1e-9
_REL_TOL = 1e-7


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
    for ``A = gen - diag(r)`` comes from the eigen-split of ``A``, with no
    term that cancels and no BLAS call.

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


_MAX_NODES = 2048  # leggauss is a dense O(n^3) solve: ~1 s, 50 MB at 2048; 7 s at 4096


def _within_cap(n: int) -> int:
    if n > _MAX_NODES:
        raise QuadratureNotConverged(
            f"the occupation-time rule needs {n} nodes, above its cap of {_MAX_NODES}"
        )
    return n


@functools.lru_cache(maxsize=64)
def _legendre(n: int):
    """Gauss-Legendre nodes and weights of ``n`` points on [0, 1], read-only
    since every caller shares them."""
    t, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _node_count(model: RegimeModel, ttm: float) -> int:
    """Gauss-Legendre nodes that meet about 1e-12 of the strike in one pass.

    Two things narrow the integrand: the density's peak, whose width shrinks
    as ``1/sqrt(max(a, b) ttm)``, and the zero of ``V`` at an ``x`` just
    outside ``[0, ttm]``, which nears it as the variances part (Bernstein
    ellipse ``log rho = acosh(1 + 2 min sigma^2 / (max sigma^2 - min
    sigma^2))``). The constants 5 and 12 were fitted to twice the nodes of
    each rule over switch rates 0-500, ``ttm`` 0.01-3 and volatilities
    0.05-0.6. Past ``max(a, b) ttm`` of about 100 the roundoff of the
    weights, some 1e-14 of the strike times that product, sets the floor.
    A count above ``_MAX_NODES`` (volatilities more than about 340 times
    apart) is refused.
    """
    lo, hi = sorted(model.sigma_array() ** 2)
    log_rho = math.acosh(1.0 + 2.0 * lo / (hi - lo)) if hi > lo else math.inf
    lam = max(model.gen[0][1], model.gen[1][0])
    return _within_cap(4 * math.ceil(max(8.0, 5.0 * math.sqrt(lam * ttm), 12.0 / log_rho) / 4.0))


def _occupation_law(model: RegimeModel, ttm: float, n: int):
    """``(x, weights, atoms)``: the ``n`` nodes of the time in regime 0, the
    rule's weights ``(2, n)`` of its density per starting regime, and the
    two atoms, ``x = ttm`` from regime 0 and ``x = 0`` from regime 1."""
    from scipy.special import i0e, i1e

    t, w = _legendre(n)
    x, y = ttm * t, ttm * t[::-1]  # the nodes are symmetric, so x + y = ttm
    a, b = model.gen[0][1], model.gen[1][0]
    z = 2.0 * np.sqrt(a * b * x * y)
    i0, i1 = i0e(z), i1e(z)
    weights = ttm * w * np.exp(-(np.sqrt(a * x) - np.sqrt(b * y)) ** 2) * np.stack([
        a * i0 + np.sqrt(a * b * x / y) * i1,
        b * i0 + np.sqrt(a * b * y / x) * i1,
    ])
    return x, weights, np.array([math.exp(-a * ttm), math.exp(-b * ttm)])


def _occupation_put(model: RegimeModel, s: np.ndarray, k: float, ttm: float,
                    n: int) -> np.ndarray:
    """Put values ``(2, n_s)`` from the ``n``-node rule: Black-Scholes in
    ``(R, Q, V)`` at each node and at the two atoms, one evaluation for both
    starting regimes."""
    from scipy.special import ndtr

    nodes, weights, atoms = _occupation_law(model, ttm, n)
    x = np.concatenate([nodes, [ttm, 0.0]])
    y = ttm - x
    (r0, r1), (q0, q1) = model.r_array(), model.q_array()
    sig0, sig1 = model.sigma_array() ** 2
    rate, div, var = r0 * x + r1 * y, q0 * x + q1 * y, sig0 * x + sig1 * y
    sd = np.sqrt(var)[:, None]
    d1 = (np.log(s / k) + (rate - div + 0.5 * var)[:, None]) / sd
    bs = k * np.exp(-rate)[:, None] * ndtr(sd - d1) - s * np.exp(-div)[:, None] * ndtr(-d1)
    return weights @ bs[:n] + atoms[:, None] * bs[n:]


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
    return _occupation_put(model, s_values, k, ttm, _node_count(model, ttm))


def price_european_put_rs(
    model: RegimeModel,
    s: float,
    k: float,
    t: float,
    T: float,
    regime: int,
) -> PriceResult:
    """European put price for the starting regime, with an error estimate.

    The error estimate is the change from the rule of half the nodes,
    floored at ``8 * np.spacing(D_i)`` (``D_i`` the expected discounted
    strike, the price's scale), its roundoff. The tolerance is
    ``max(_ABS_TOL, _REL_TOL * |price|)``, raised to that floor where it is
    below it (past ``D_i`` of about 2^20), so a large strike is not refused
    for roundoff. Each pass that misses it doubles the nodes; after seven
    doublings, or once a rule would pass ``_MAX_NODES`` nodes, the call raises
    :class:`QuadratureNotConverged`. The converged price is clipped to the
    no-arbitrage bounds ``[max(D_i - s Q_i, 0), D_i]``, ``Q`` the expected
    dividend discount; a clip that moves the price records the unclipped value
    as ``unclipped_price``. The ``nodes`` diagnostic is the node count of the
    priced rule.
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
    spot = np.array([s])
    d = discounted_strike_vector(model, k, ttm)[regime]
    n = _node_count(model, ttm)
    coarse = float(_occupation_put(model, spot, k, ttm, n)[regime, 0])
    for doublings in range(1, 8):
        n = _within_cap(2 * n)
        price = float(_occupation_put(model, spot, k, ttm, n)[regime, 0])
        floor = 8.0 * float(np.spacing(d))
        err = max(abs(price - coarse), floor)
        tol = max(_ABS_TOL, _REL_TOL * max(abs(price), 1e-12), floor)
        if err <= tol:
            break
        coarse = price
    else:
        raise QuadratureNotConverged(
            f"error estimate {err:.3e} above tolerance {tol:.3e} after {doublings} doublings"
        )

    diagnostics = {"nodes": n}
    q_disc = discounted_strike_vector(model.swap_rates_dividends(), 1.0, ttm)[regime]
    clipped = min(max(price, d - s * q_disc, 0.0), d)
    if clipped != price:
        diagnostics["unclipped_price"] = price
    return PriceResult(price=float(clipped), error_estimate=err, diagnostics=diagnostics)
