"""Core market model, option contracts, and payoffs.

The market is a geometric Brownian motion whose drift ``r_i`` and
volatility ``sigma_i`` are modulated by a continuous-time Markov chain
with generator matrix ``gen`` (rows sum to zero, off-diagonal entries
are switch intensities, diagonal entries are minus the exit rates).

The floating-strike Asian payoffs depend on the running arithmetic
average ``A_t / t`` with ``A_t = integral of S_u du`` from 0 to ``t``.
Dividing the three-dimensional value function by spot collapses the
problem to the ratio ``y = a / s``; the series engine additionally uses
the log coordinate ``z = -ln(y)`` and the per-regime diffusion time
``tau_i = (T - t) * sigma_i**2 / 2``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InterpolationOutOfRange, ValidationError


class OptionStyle(enum.Enum):
    """Supported contract styles.

    Floating styles compare terminal spot with the average (scaled by
    ``strike_multiplier``); fixed styles compare the average with the
    cash strike ``K``; ``EUROPEAN_PUT`` is the vanilla put used as a
    series initial guess and as a Monte Carlo calibration target.
    """

    FLOATING_PUT = "floating_put"
    FLOATING_CALL = "floating_call"
    FIXED_PUT = "fixed_put"
    FIXED_CALL = "fixed_call"
    EUROPEAN_PUT = "european_put"


# cash-strike (average-rate) and average-strike styles
FIXED_STYLES = (OptionStyle.FIXED_PUT, OptionStyle.FIXED_CALL)
FLOATING_STYLES = (OptionStyle.FLOATING_PUT, OptionStyle.FLOATING_CALL)


def _as_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class RegimeModel:
    """Markov-modulated GBM parameters.

    Attributes
    ----------
    r:
        Per-regime short rates (continuously compounded).
    sigma:
        Per-regime volatilities, strictly positive.
    gen:
        Generator matrix of the modulating chain. ``gen[i][j]`` for
        ``j != i`` is the intensity of switching from regime ``i`` to
        ``j``; ``gen[i][i] = -sum of the off-diagonal row entries``.
    q:
        Per-regime continuous dividend yields; defaults to zero. The
        series engine refuses nonzero dividends; the other engines and
        the fixed/floating symmetry price them.

    Construction raises :class:`ValidationError` naming the first violated
    condition; generator signs are checked to within 1e-12.
    """

    r: tuple[float, ...]
    sigma: tuple[float, ...]
    gen: tuple[tuple[float, ...], ...]
    q: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "r", _as_tuple(self.r))
        object.__setattr__(self, "sigma", _as_tuple(self.sigma))
        object.__setattr__(self, "gen", tuple(_as_tuple(row) for row in self.gen))
        q = self.q if self.q else tuple(0.0 for _ in self.r)
        object.__setattr__(self, "q", _as_tuple(q))
        n = self.n_states
        if n < 1:
            raise ValidationError("model needs at least one regime")
        if len(self.sigma) != n:
            raise ValidationError(f"sigma has {len(self.sigma)} entries, expected {n}")
        if len(self.q) != n:
            raise ValidationError(f"q has {len(self.q)} entries, expected {n}")
        if len(self.gen) != n:
            raise ValidationError(f"generator has {len(self.gen)} rows, expected {n}")
        for i, s in enumerate(self.sigma):
            if not (s > 0.0) or not math.isfinite(s):
                raise ValidationError(f"sigma[{i}] not > 0")
        for i, rate in enumerate(self.r):
            if not math.isfinite(rate):
                raise ValidationError(f"r[{i}] not finite")
        for i, dy in enumerate(self.q):
            if not math.isfinite(dy):
                raise ValidationError(f"q[{i}] not finite")
        for i, row in enumerate(self.gen):
            if len(row) != n:
                raise ValidationError(f"generator row {i} has {len(row)} entries, expected {n}")
            for j, a in enumerate(row):
                if not math.isfinite(a):
                    raise ValidationError(f"generator entry [{i}][{j}] not finite")
                if i != j and a < -1e-12:
                    raise ValidationError(f"generator entry [{i}][{j}] negative ({a!r})")
            if row[i] > 1e-12:
                raise ValidationError(f"generator diagonal [{i}][{i}] positive ({row[i]!r})")
            s = math.fsum(row)
            if abs(s) > 1e-9 * max(1.0, max(abs(a) for a in row)):
                raise ValidationError(f"generator row {i} sums to {s:g}")

    @property
    def n_states(self) -> int:
        return len(self.r)

    def gen_array(self) -> np.ndarray:
        return np.array(self.gen, dtype=float)

    def r_array(self) -> np.ndarray:
        return np.array(self.r, dtype=float)

    def q_array(self) -> np.ndarray:
        return np.array(self.q, dtype=float)

    def sigma_array(self) -> np.ndarray:
        return np.array(self.sigma, dtype=float)

    def swap_rates_dividends(self) -> "RegimeModel":
        """Model with the roles of rates and dividends exchanged."""
        return RegimeModel(r=self.q, sigma=self.sigma, gen=self.gen, q=self.r)


def two_state_model(
    r1: float,
    r2: float,
    sigma1: float,
    sigma2: float,
    a12: float,
    a21: float,
    q1: float = 0.0,
    q2: float = 0.0,
) -> RegimeModel:
    """Convenience constructor for the two-regime case."""
    return RegimeModel(
        r=(r1, r2),
        sigma=(sigma1, sigma2),
        gen=((-a12, a12), (a21, -a21)),
        q=(q1, q2),
    )


def require_two_states(model: RegimeModel) -> None:
    """The closed-form European leg and the series engine are two-state only."""
    if model.n_states != 2:
        raise ValidationError(
            f"this pricer requires exactly 2 regimes, model has {model.n_states}"
        )


@dataclass(frozen=True)
class AsianOptionSpec:
    """Contract descriptor.

    ``K`` is the cash strike; it is required for fixed styles and the
    European put and ignored by floating styles. ``strike_multiplier``
    scales the average leg of floating payoffs, e.g. a floating put
    pays ``max(multiplier * A_T / T - S_T, 0)``. Averaging is
    continuous arithmetic over ``[0, T]``.
    """

    style: OptionStyle
    T: float
    K: float | None = None
    strike_multiplier: float = 1.0

    def __post_init__(self):
        if isinstance(self.style, str):
            object.__setattr__(self, "style", OptionStyle(self.style))
        if not (self.T > 0.0):
            raise ValidationError(f"T not > 0 (got {self.T!r})")
        if self.style in FIXED_STYLES or self.style is OptionStyle.EUROPEAN_PUT:
            if self.K is None or not (self.K > 0.0):
                raise ValidationError(f"K required and > 0 for style {self.style.value}")
        if not (self.strike_multiplier > 0.0):
            raise ValidationError("strike_multiplier not > 0")


@dataclass(frozen=True)
class MarketState:
    """Valuation state: time, spot, accumulated spot integral, regime.

    ``a`` is the running integral of spot over ``[0, t]`` (currency x
    years), so the running average is ``a / t``; at ``t = 0`` it must be
    zero. ``regime`` is a zero-based index into the model's regimes.
    """

    t: float
    s: float
    a: float
    regime: int

    def __post_init__(self):
        # integer inputs (a JSON "s": 100) would give engines integer arrays
        for name in ("t", "s", "a"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.s > 0.0):
            raise ValidationError(f"spot not > 0 (got {self.s!r})")
        if self.t < 0.0:
            raise ValidationError(f"t negative ({self.t!r})")
        if self.a < 0.0:
            raise ValidationError(f"a negative ({self.a!r})")
        if self.t == 0.0 and self.a != 0.0:
            raise ValidationError("a must be 0 when t = 0")
        if self.regime < 0:
            raise ValidationError(f"regime index negative ({self.regime!r})")


@dataclass(frozen=True)
class PriceResult:
    """A price plus its error estimate and method-specific diagnostics."""

    price: float
    error_estimate: float | None = None
    diagnostics: dict = field(default_factory=dict)


# --- dimensionless per-regime ratios -----------------------------------

def rate_ratios(model: RegimeModel, i: int) -> tuple[float, float]:
    """Generator and short-rate ratios scaled by half the regime variance.

    Returns ``(2 * gen[i][i] / sigma_i**2, 2 * r_i / sigma_i**2)``. The
    first is nonpositive (diagonal generator entries are minus the exit
    rates); both drive the transformed coupled system.
    """
    half_var = 0.5 * model.sigma[i] ** 2
    return model.gen[i][i] / half_var, model.r[i] / half_var


# --- grid reads ---------------------------------------------------------

def bilinear(surface: np.ndarray, rows: tuple, cols: tuple) -> float:
    """Bilinear read of a 2-D ``surface``; refuses points off the grid.

    ``rows`` and ``cols`` are ``(name, nodes, point)`` for the two axes
    of ``surface``; the name labels the refusal.
    """
    at, frac = [], []
    for name, nodes, x in (rows, cols):
        if not (nodes[0] <= x <= nodes[-1]):
            raise InterpolationOutOfRange(
                f"{name}={float(x)} outside [{float(nodes[0])}, {float(nodes[-1])}]")
        k = min(int(np.searchsorted(nodes, x, side="right")) - 1, len(nodes) - 2)
        at.append(k)
        frac.append((x - nodes[k]) / (nodes[k + 1] - nodes[k]))
    (k, j), (wt, wy) = at, frac
    v = surface[k : k + 2, j : j + 2]
    return float(
        (1 - wt) * ((1 - wy) * v[0, 0] + wy * v[0, 1])
        + wt * ((1 - wy) * v[1, 0] + wy * v[1, 1])
    )


# series surfaces, their lag kernels and FD grids by key, least recently read first
_SURFACES_CACHE: dict = {}
_SURFACES_CACHE_SIZE = 8  # entries, whatever their size


def cached_surface(key, build):
    """The entry under ``key``, made by ``build()`` on a miss and kept for the life of
    the process: a series or FD surface, or a series lag kernel. A read moves its entry
    to the newest slot; past ``_SURFACES_CACHE_SIZE`` entries, counted whatever their
    bytes, the least recently read is dropped."""
    hit = _SURFACES_CACHE.pop(key, None)
    if hit is None:
        hit = build()
    _SURFACES_CACHE[key] = hit
    if len(_SURFACES_CACHE) > _SURFACES_CACHE_SIZE:
        del _SURFACES_CACHE[next(iter(_SURFACES_CACHE))]
    return hit


# --- payoffs ------------------------------------------------------------

def payoff(spec: AsianOptionSpec, s_T, avg_T):
    """Terminal payoff for scalar or array inputs.

    ``avg_T`` is the arithmetic average of spot over ``[0, T]``. All
    payoffs are nonnegative and positively homogeneous of degree one in
    ``(s_T, avg_T, K)`` jointly.
    """
    s_T = np.asarray(s_T, dtype=float)
    avg_T = np.asarray(avg_T, dtype=float)
    m = spec.strike_multiplier
    if spec.style is OptionStyle.FLOATING_PUT:
        out = np.maximum(m * avg_T - s_T, 0.0)
    elif spec.style is OptionStyle.FLOATING_CALL:
        out = np.maximum(s_T - m * avg_T, 0.0)
    elif spec.style is OptionStyle.FIXED_PUT:
        out = np.maximum(spec.K - avg_T, 0.0)
    elif spec.style is OptionStyle.FIXED_CALL:
        out = np.maximum(avg_T - spec.K, 0.0)
    elif spec.style is OptionStyle.EUROPEAN_PUT:
        out = np.maximum(spec.K - s_T, 0.0)
    else:  # pragma: no cover - enum is closed
        raise ValidationError(f"unknown style {spec.style!r}")
    if out.ndim == 0:
        return float(out)
    return out
