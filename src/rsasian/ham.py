"""Homotopy-series engine for the transformed coupled put system.

The reduced floating-put system in ``z = -ln(y)`` and regime times
``tau_i = (T - t) sigma_i^2 / 2`` is solved as a power series: term 0 is
an initial guess (a mapped European value by default), and every later
term solves a linear nonhomogeneous heat problem whose source is built
from the previous term. Each step is evaluated through the half-line
kernel of :mod:`rsasian.greens` as a double integral over source
position ``xi`` and source time.

Numerical layout
----------------
Both regimes live on one physical-time grid ``u = T - t``; the kernel
time for regime ``i`` between levels is ``(sigma_i^2/2) (u_k - u_l)``,
so no cross-regime time interpolation is ever needed. The ``xi``
integral treats the gridded source as piecewise linear and integrates
the hat functions against the kernel exactly (erf/Gaussian closed
forms) for the two Gaussian pieces, and by short Gauss-Legendre panels
scaled to ``sqrt(tau)`` for the erfc correction piece, which is
:func:`rsasian.greens.robin_correction`, the function
:func:`rsasian.greens.greens_function` evaluates. Because spatial
nodes sit on one lattice with a node exactly at ``z = 0``, the weights
form one dense matrix per kernel time (a Toeplitz and a Hankel lookup
into two weight vectors), applied to all pending source levels at once.
The time integral is a trapezoid over grid levels; its ``tau -> 0``
endpoint is the kernel's delta identity.

Outputs for ``z < 0`` (in-the-money averages, ``y > 1``) evaluate the
same representation; the half-line construction makes no statement
there, so residual checks apply only to the ``z > 0`` interior and the
grid oracles arbitrate the rest.

:func:`series_surfaces` builds the terms once per ``(model, T, config)``
and caches every partial sum; pricing, the CLI convergence table and
:func:`ham_vs_fd_report` all read from it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erf

from .errors import ExtrapolationRefused, InterpolationOutOfRange, ValidationError
from .european import QuadratureSpec, european_put_grid
from .greens import robin_correction
from .model import (
    MarketState,
    PriceResult,
    RegimeModel,
    rate_ratios,
    require_two_states,
    validate_model,
)

_TERMINAL_MODES = ("payoff", "paper_zero")
_GUESS_MODES = ("european_rs", "zero")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

_ROBIN_PANEL_X = 0.5  # see _robin_lobes
_ROBIN_CUT_X = 8.5
_SOURCE_TAIL_WARN = 1e-10  # ham_step warns above this share of the source peak
_SURFACES_CACHE_SIZE = 8  # assembled surfaces kept, oldest dropped first


@dataclass(frozen=True)
class HamConfig:
    """Series truncation, grid shape, and mode switches.

    ``z_min``/``z_max`` default to ``-ln(20 T)`` and ``-ln(1e-4)`` at
    build time (payoff support below, boundary decay above); the lower
    endpoint is snapped onto the node lattice so one node sits exactly
    at ``z = 0``. ``terminal_mode`` picks what term 0 carries at
    ``u = 0``: the reduced payoff ``(e^{-z}/T - 1)^+`` or a literal
    zero. ``initial_guess_mode`` picks the whole of term 0: the mapped
    European put value or zero.
    """

    m_trunc: int = 4
    n_z: int = 401
    n_u: int = 101
    z_min: float | None = None
    z_max: float | None = None
    terminal_mode: str = field(default="payoff", metadata={"enum": _TERMINAL_MODES})
    initial_guess_mode: str = field(default="european_rs", metadata={"enum": _GUESS_MODES})
    guess_quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.m_trunc < 1:
            raise ValidationError("m_trunc not >= 1")
        if self.n_z < 9 or self.n_u < 3:
            raise ValidationError("grid too small (need n_z >= 9, n_u >= 3)")
        if self.z_min is not None and self.z_max is not None and not (self.z_max > self.z_min):
            raise ValidationError("z_max not > z_min")
        if self.terminal_mode not in _TERMINAL_MODES:
            raise ValidationError(f"unknown terminal_mode {self.terminal_mode!r}")
        if self.initial_guess_mode not in _GUESS_MODES:
            raise ValidationError(f"unknown initial_guess_mode {self.initial_guess_mode!r}")


@dataclass(frozen=True)
class TermGrid:
    """One series term on the shared grid.

    ``values[i]`` and ``d_dz[i]`` are ``(n_u, n_z)`` arrays for regime
    ``i``; rows follow ``u_nodes`` (time to maturity), columns follow
    ``z_nodes``. Arrays are marked read-only on construction.
    """

    m: int
    z_nodes: np.ndarray
    u_nodes: np.ndarray
    values: tuple[np.ndarray, np.ndarray]
    d_dz: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        for arr in (self.z_nodes, self.u_nodes, *self.values, *self.d_dz):
            arr.setflags(write=False)

    def boundary_decay(self, i: int) -> float:
        """max_u |V(u, z_max)| relative to the term's overall sup-norm."""
        peak = float(np.max(np.abs(self.values[i])))
        if peak == 0.0:
            return 0.0
        return float(np.max(np.abs(self.values[i][:, -1]))) / peak


def ham_window(config: HamConfig, T: float) -> tuple[float, float]:
    """``(z_min, z_max)`` with the defaults ``-ln(20 T)`` and ``-ln(1e-4)`` filled in."""
    z_lo = -math.log(20.0 * T) if config.z_min is None else config.z_min
    z_hi = -math.log(1e-4) if config.z_max is None else config.z_max
    return z_lo, z_hi


def ham_grid(config: HamConfig, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Node arrays ``(z_nodes, u_nodes)`` for maturity ``T``.

    Requires the z-window to straddle the origin: the source integral
    runs over ``xi >= 0`` and is represented on the same lattice.
    """
    z_lo, z_hi = ham_window(config, T)
    if not (z_lo <= 0.0 < z_hi):
        raise ValidationError(f"z window [{z_lo}, {z_hi}] must satisfy z_min <= 0 < z_max")
    h = (z_hi - z_lo) / (config.n_z - 1)
    j0 = int(round(-z_lo / h))
    z = (np.arange(config.n_z) - j0) * h
    u = np.linspace(0.0, T, config.n_u)
    return z, u


def _deriv_z(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order d/dz along the last axis, one-sided at the edges."""
    d = np.empty_like(vals)
    d[..., 2:-2] = (
        vals[..., :-4] - 8.0 * vals[..., 1:-3] + 8.0 * vals[..., 3:-1] - vals[..., 4:]
    ) / (12.0 * h)
    fwd0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    fwd1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    d[..., 0] = vals[..., :5] @ fwd0 / h
    d[..., 1] = vals[..., :5] @ fwd1 / h
    d[..., -1] = -(vals[..., -1:-6:-1] @ fwd0) / h
    d[..., -2] = -(vals[..., -1:-6:-1] @ fwd1) / h
    return d


def _reduced_payoff(z: np.ndarray, T: float) -> np.ndarray:
    return np.maximum(np.exp(-z) / T - 1.0, 0.0)


def _floor_far_field(vals: np.ndarray, j0: int, rel: float = 1e-12) -> None:
    """Zero sub-noise magnitudes on the half-line part of the field.

    The recursion feeds each term through an ``e^{z}``-weighted source,
    so roundoff dust in a term's far tail (for instance the quadrature
    floor of the European guess, ~1e-10 absolute) would grow by roughly
    ``e^{z_max}`` per term and dominate the far field within a few
    terms. True terms decay superexponentially out there, so entries
    below ``rel`` of the field's half-line magnitude are dust, not
    signal; zeroing them is well inside the scheme's error budget. One
    global threshold serves all time rows because the noise floor is
    absolute while early rows have small genuine content.
    """
    half = vals[:, j0:]
    cut = rel * float(np.max(np.abs(half)))
    np.copyto(half, 0.0, where=np.abs(half) < cut)


def initial_guess(model: RegimeModel, grid, mode: str, T: float,
                  terminal_mode: str = "payoff",
                  quad: QuadratureSpec | None = None) -> TermGrid:
    """Term 0 on ``grid = (z_nodes, u_nodes)``.

    ``mode="european_rs"`` maps the reduced state to a European put:
    ``(y/T - 1)^+ = e^{-z} (1/T - e^{z})^+`` is ``e^{-z}`` times a
    vanilla put payoff in ``x = e^{z} = 1/y`` with strike ``1/T``, so
    term 0 is ``e^{-z} P_i(S=e^{z}, K=1/T, ttm=u)``. This matches the
    terminal payoff exactly at ``u = 0`` and decays as ``z`` grows.
    ``mode="zero"`` carries the terminal slice (payoff or zero per
    ``terminal_mode``) unchanged in time.
    """
    z, u = grid
    if mode not in _GUESS_MODES:
        raise ValidationError(f"unknown initial guess mode {mode!r}")
    if terminal_mode not in _TERMINAL_MODES:
        raise ValidationError(f"unknown terminal_mode {terminal_mode!r}")
    n_u, n_z = len(u), len(z)
    vals = [np.zeros((n_u, n_z)), np.zeros((n_u, n_z))]
    if mode == "european_rs":
        quad = quad if quad is not None else QuadratureSpec()
        s_vals = np.exp(z)
        damp = np.exp(-z)
        for l, ttm in enumerate(u):
            both = european_put_grid(model, s_vals, 1.0 / T, float(ttm), quad)
            vals[0][l] = damp * both[0]
            vals[1][l] = damp * both[1]
    else:
        row = _reduced_payoff(z, T) if terminal_mode == "payoff" else np.zeros(n_z)
        vals[0][:] = row
        vals[1][:] = row
    if terminal_mode == "paper_zero":
        vals[0][0] = 0.0
        vals[1][0] = 0.0
    else:
        vals[0][0] = _reduced_payoff(z, T)
        vals[1][0] = _reduced_payoff(z, T)
    j0 = int(np.argmin(np.abs(np.asarray(z))))
    _floor_far_field(vals[0], j0)
    _floor_far_field(vals[1], j0)
    h = float(z[1] - z[0])
    d = [_deriv_z(vals[0], h), _deriv_z(vals[1], h)]
    return TermGrid(m=0, z_nodes=np.asarray(z, dtype=float),
                    u_nodes=np.asarray(u, dtype=float),
                    values=(vals[0], vals[1]), d_dz=(d[0], d[1]))


# --- kernel weight tables -------------------------------------------------

def _gauss_lobes(d: np.ndarray, h: float, tau: float):
    """Exact left/right hat-lobe integrals of ``exp(-t^2/4 tau)``.

    ``lobe_l(d)`` integrates the rising half over ``[d-h, d]`` and
    ``lobe_r(d)`` the falling half over ``[d, d+h]``.
    """
    root = math.sqrt(tau)

    def F(v):
        return math.sqrt(math.pi) * root * erf(v / (2.0 * root))

    def Gm(v):
        return -2.0 * tau * np.exp(-(v * v) / (4.0 * tau))

    f_lo, f_mid, f_hi = F(d - h), F(d), F(d + h)
    g_lo, g_mid, g_hi = Gm(d - h), Gm(d), Gm(d + h)
    lobe_l = ((g_mid - g_lo) - (d - h) * (f_mid - f_lo)) / h
    lobe_r = ((d + h) * (f_hi - f_mid) - (g_hi - g_mid)) / h
    return lobe_l, lobe_r


def _robin_lobes(d: np.ndarray, h: float, tau: float, gamma: float):
    """Hat-lobe integrals of the correction piece by scaled GL panels.

    Panels are at most ``_ROBIN_PANEL_X`` wide in the similarity
    variable ``v / (2 sqrt(tau))`` so short kernel times stay resolved;
    lobes entirely beyond ``_ROBIN_CUT_X`` on the decaying side are zero.
    """
    d = np.asarray(d, dtype=float)
    lobe_l = np.zeros_like(d)
    lobe_r = np.zeros_like(d)
    if gamma == 1.0:
        return lobe_l, lobe_r
    root2 = 2.0 * math.sqrt(tau)
    v_cut = _ROBIN_CUT_X * root2
    width = min(h, _ROBIN_PANEL_X * root2)
    n_pan = max(1, int(math.ceil(h / width)))
    edges = np.linspace(0.0, h, n_pan + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    # offsets (n_pan, 8) within [0, h], shared across lobes
    t_off = mids[:, None] + half[:, None] * _GL_NODES[None, :]
    w_off = half[:, None] * _GL_WEIGHTS[None, :]

    active = d - h < v_cut
    if not np.any(active):
        return lobe_l, lobe_r
    da = d[active]
    # left lobe spans [d-h, d] with weight (t - (d - h))/h
    t_l = (da[:, None, None] - h) + t_off[None, :, :]
    vals_l = robin_correction(t_l, tau, gamma) * (t_off[None, :, :] / h)
    lobe_l[active] = np.sum(vals_l * w_off[None, :, :], axis=(1, 2))
    # right lobe spans [d, d+h] with weight ((d + h) - t)/h
    t_r = da[:, None, None] + t_off[None, :, :]
    vals_r = robin_correction(t_r, tau, gamma) * (1.0 - t_off[None, :, :] / h)
    lobe_r[active] = np.sum(vals_r * w_off[None, :, :], axis=(1, 2))
    return lobe_l, lobe_r


def _build_tables(z: np.ndarray, j0: int, tau: float, gamma: float) -> np.ndarray:
    """Dense weight matrix for one regime and one kernel time.

    Entry ``(k, n)`` integrates hat ``n`` (on the ``xi`` lattice)
    against the full kernel at output ``z_k``; both kernel pieces are
    functions of lattice offsets, so the matrix is a Toeplitz plus a
    Hankel lookup into two weight vectors, with the two edge hats
    corrected for clipping. A dense product keeps genuinely empty far
    field entries at exact zero (the Gaussian weights underflow), which
    matters because the recursion's source prefactor grows like
    ``e^{(3 + gamma) xi / 2}`` and would amplify convolution dust.
    """
    n_z = len(z)
    n_xi = n_z - j0
    h = float(z[1] - z[0])
    norm = 1.0 / (2.0 * math.sqrt(math.pi * tau))
    k_idx = np.arange(n_z)[:, None] - j0
    n_idx = np.arange(n_xi)[None, :]

    # direct piece: offsets (k - j0 - n) h
    p = np.arange(-(n_z - 1), n_z - j0) * h
    ll, rr = _gauss_lobes(p, h, tau)
    w1 = (ll + rr) * norm
    mat = w1[(n_z - 1) + k_idx - n_idx]

    # reflected piece (image plus correction): offsets (k - j0 + n) h
    q = np.arange(-j0, n_z - 1 - j0 + n_xi) * h
    ll_g, rr_g = _gauss_lobes(q, h, tau)
    ll_r, rr_r = _robin_lobes(q, h, tau, gamma)
    w2 = (ll_g + rr_g + ll_r + rr_r) * norm
    mat = mat + w2[j0 + k_idx + n_idx]

    # edge hats keep one lobe each: xi = 0 its right half, xi_max its left
    _, r0 = _gauss_lobes(z - z[j0], h, tau)
    lN, _ = _gauss_lobes(z - z[-1], h, tau)
    l0g, _ = _gauss_lobes(z + z[j0], h, tau)
    l0r, _ = _robin_lobes(z + z[j0], h, tau, gamma)
    _, rNg = _gauss_lobes(z + z[-1], h, tau)
    _, rNr = _robin_lobes(z + z[-1], h, tau, gamma)
    mat[:, 0] -= (r0 + l0g + l0r) * norm
    mat[:, -1] -= (lN + rNg + rNr) * norm
    return mat


# --- recursion ------------------------------------------------------------

def _source_fields(prev: TermGrid, model: RegimeModel) -> list[np.ndarray]:
    """Recursion sources ``lam_i (V_i - V_j) - (2 e^z / sigma_i^2) dV_i/dz``."""
    out = []
    for i in (0, 1):
        j = 1 - i
        lam, _ = rate_ratios(model, i)
        sig_sq = model.sigma[i] ** 2
        out.append(
            lam * (prev.values[i] - prev.values[j])
            - (2.0 / sig_sq) * np.exp(prev.z_nodes)[None, :] * prev.d_dz[i]
        )
    return out


def ham_step(prev: TermGrid, model: RegimeModel) -> TermGrid:
    """Series term ``m`` from term ``m - 1``.

    Solves the transformed heat problem by the kernel double integral:
    trapezoid over source levels in physical time (the zero-lag endpoint
    is the delta identity), exact-plus-panel hat weights over ``xi``.
    The returned term is zero at ``u = 0`` by construction.
    """
    require_two_states(model)
    z, u = prev.z_nodes, prev.u_nodes
    n_u, n_z = len(u), len(z)
    h = float(z[1] - z[0])
    du = float(u[1] - u[0])
    j0 = int(np.argmin(np.abs(z)))
    if abs(float(z[j0])) > 1e-12:
        raise ValidationError("z grid has no node at 0; build it with ham_grid")
    sources = _source_fields(prev, model)

    new_vals = []
    for i in (0, 1):
        lam, gamma = rate_ratios(model, i)
        sig_half = 0.5 * model.sigma[i] ** 2
        growth = 0.25 * (1.0 + gamma) ** 2
        xi = z[j0:]
        # source with its transform prefactor, (n_xi, n_u): column l is level l
        pref = np.exp(0.5 * (1.0 + gamma) * xi)[:, None] * np.exp(
            growth * sig_half * u
        )[None, :]
        s_hat = pref * sources[i][:, j0:].T

        peak = float(np.max(np.abs(s_hat)))
        if peak > 0.0:
            tail = float(np.max(np.abs(s_hat[-1])))
            if tail > _SOURCE_TAIL_WARN * peak:
                warnings.warn(
                    f"xi-integrand tail at xi_max is {tail / peak:.2e} of its peak "
                    f"(regime {i}, term {prev.m + 1}); widen z_max",
                    stacklevel=2,
                )

        accum = np.zeros((n_z, n_u))
        for j in range(1, n_u):
            tau = sig_half * j * du
            mat = _build_tables(z, j0, tau, gamma)
            conv = mat @ s_hat[:, : n_u - j]
            accum[:, j] += 0.5 * conv[:, 0]
            if j + 1 < n_u:
                accum[:, j + 1 :] += conv[:, 1 : n_u - j]
        # delta-identity endpoint: kernel mass lands at xi = |z|, which
        # falls outside the truncated source range for z < -z_max
        mirror = np.abs(np.arange(n_z) - j0)
        inside = mirror <= (n_z - 1 - j0)
        accum[inside] += 0.5 * s_hat[mirror[inside], :]
        v_hat = (sig_half * du) * accum
        v_hat[:, 0] = 0.0

        damp = np.exp(-0.5 * (1.0 + gamma) * z)[:, None] * np.exp(
            -growth * sig_half * u
        )[None, :]
        new_vals.append((damp * v_hat).T)

    _floor_far_field(new_vals[0], j0)
    _floor_far_field(new_vals[1], j0)
    d = [_deriv_z(new_vals[0], h), _deriv_z(new_vals[1], h)]
    return TermGrid(m=prev.m + 1, z_nodes=z, u_nodes=u,
                    values=(new_vals[0], new_vals[1]), d_dz=(d[0], d[1]))


def recursion_residual(term: TermGrid, prev: TermGrid, model: RegimeModel,
                       z_margin: float = 0.5, u_margin: int = 2) -> dict:
    """Relative interior residual of the recursion PDE for both regimes.

    Applies the transformed operator to the computed term by finite
    differences and compares with the source built from ``prev``,
    normalized by the source sup-norm. The window keeps the interior
    ``z_margin <= z <= z_max - z_margin`` (``z_margin`` is a distance,
    not a node count) and drops the first/last time rows.

    The margin at the reflecting end matters: the terminal payoff has a
    kink at ``z = 0`` whose early-time image in the source is narrower
    than the grid can represent, leaving a resolution boundary layer of
    width about one unit. Inside that layer the residual converges like
    ``h^2`` at fixed ``z`` but with a constant that grows as ``z`` drops;
    beyond it the double integral is accurate to many more digits than
    the finite-difference probe can see.
    """
    z, u = term.z_nodes, term.u_nodes
    h = float(z[1] - z[0])
    du = float(u[1] - u[0])
    j0 = int(np.argmin(np.abs(z)))
    sources = _source_fields(prev, model)
    out = {}
    skip = max(3, int(math.ceil(z_margin / h)))
    lo = j0 + skip
    hi = len(z) - skip
    if hi - lo < 5:
        raise ValidationError("z_margin leaves no interior window")
    for i in (0, 1):
        _, gamma = rate_ratios(model, i)
        sig_half = 0.5 * model.sigma[i] ** 2
        v = term.values[i]
        dv_du = (v[2:] - v[:-2]) / (2.0 * du)
        d1 = term.d_dz[i][1:-1]
        d2 = np.empty_like(v[1:-1])
        d2[:, 2:-2] = (
            -v[1:-1, :-4] + 16.0 * v[1:-1, 1:-3] - 30.0 * v[1:-1, 2:-2]
            + 16.0 * v[1:-1, 3:-1] - v[1:-1, 4:]
        ) / (12.0 * h * h)
        d2[:, :2] = 0.0
        d2[:, -2:] = 0.0
        lhs = dv_du / sig_half - d2 - (1.0 + gamma) * d1
        res = lhs - sources[i][1:-1]
        window = res[u_margin - 1 : len(u) - 1 - u_margin, lo:hi]
        scale = float(np.max(np.abs(sources[i])))
        out[i] = float(np.max(np.abs(window))) / (scale if scale > 0.0 else 1.0)
    return out


# --- assembly and pricing -------------------------------------------------

@dataclass(frozen=True)
class SeriesSurfaces:
    """Partial sums of the series with per-term diagnostics.

    ``partials[m]`` is the factorial-weighted sum of terms ``0..m``, so
    ``partials[-1]`` is the truncated series.
    """

    z_nodes: np.ndarray
    u_nodes: np.ndarray
    partials: np.ndarray  # (m_trunc + 1, 2, n_u, n_z)
    term_norms: tuple[tuple[float, float], ...]  # per term, per regime, /m!

    def __post_init__(self):
        for arr in (self.z_nodes, self.u_nodes, self.partials):
            arr.setflags(write=False)

    def value(self, u: float, z: float, regime: int, m: int = -1) -> float:
        """Bilinear read of partial sum ``m`` (default: all terms)."""
        uu, zz = self.u_nodes, self.z_nodes
        if not (uu[0] <= u <= uu[-1]) or not (zz[0] <= z <= zz[-1]):
            raise InterpolationOutOfRange(
                f"(u={u!r}, z={z!r}) outside [{uu[0]}, {uu[-1]}] x [{zz[0]}, {zz[-1]}]"
            )
        ku = min(int(np.searchsorted(uu, u, "right")) - 1, len(uu) - 2)
        kz = min(int(np.searchsorted(zz, z, "right")) - 1, len(zz) - 2)
        fu = (u - uu[ku]) / (uu[ku + 1] - uu[ku])
        fz = (z - zz[kz]) / (zz[kz + 1] - zz[kz])
        v = self.partials[m, regime]
        return float(
            v[ku, kz] * (1 - fu) * (1 - fz)
            + v[ku + 1, kz] * fu * (1 - fz)
            + v[ku, kz + 1] * (1 - fu) * fz
            + v[ku + 1, kz + 1] * fu * fz
        )


def assemble_series(terms: list[TermGrid]) -> SeriesSurfaces:
    """Running factorial-weighted sums of the terms plus the norm diagnostic."""
    if not terms:
        raise ValidationError("no terms to assemble")
    z, u = terms[0].z_nodes, terms[0].u_nodes
    for t in terms[1:]:
        if t.z_nodes.shape != z.shape or not np.array_equal(t.z_nodes, z) \
                or not np.array_equal(t.u_nodes, u):
            raise ValidationError("terms disagree on the grid")
    partials = np.empty((len(terms), 2, len(u), len(z)))
    total = np.zeros((2, len(u), len(z)))
    norms = []
    for k, t in enumerate(terms):
        w = 1.0 / math.factorial(t.m)
        total[0] += w * t.values[0]
        total[1] += w * t.values[1]
        partials[k] = total
        norms.append((
            w * float(np.max(np.abs(t.values[0]))),
            w * float(np.max(np.abs(t.values[1]))),
        ))
    return SeriesSurfaces(z_nodes=z, u_nodes=u, partials=partials,
                          term_norms=tuple(norms))


def build_terms(model: RegimeModel, T: float, config: HamConfig) -> list[TermGrid]:
    """Terms ``0..m_trunc`` for the configured grid and modes."""
    validate_model(model)
    require_two_states(model)
    grid = ham_grid(config, T)
    terms = [initial_guess(model, grid, config.initial_guess_mode, T,
                           terminal_mode=config.terminal_mode,
                           quad=config.guess_quad)]
    for _ in range(config.m_trunc):
        terms.append(ham_step(terms[-1], model))
    return terms


_SURFACES_CACHE: dict = {}


def series_surfaces(model: RegimeModel, T: float, config: HamConfig) -> SeriesSurfaces:
    """The series surface for ``(model, T, config)``, built on first use.

    The newest ``_SURFACES_CACHE_SIZE`` surfaces are kept.
    """
    key = (model, T, config)
    hit = _SURFACES_CACHE.get(key)
    if hit is None:
        hit = assemble_series(build_terms(model, T, config))
        _SURFACES_CACHE[key] = hit
        if len(_SURFACES_CACHE) > _SURFACES_CACHE_SIZE:
            del _SURFACES_CACHE[next(iter(_SURFACES_CACHE))]
    return hit


def series_dollar_price(surfaces: SeriesSurfaces, state: MarketState,
                        T: float, m: int = -1) -> tuple[float, dict]:
    """Dollar price ``s * V_regime(T - t, -ln(a/s))`` of partial sum ``m``.

    ``a = 0`` maps to ``z = +infinity``; the far column ``z_max`` stands
    in for it (the construction's boundary value), flagged in the
    returned info dict. States below ``z_min`` (deep in-the-money
    averages) are refused rather than extrapolated, as are states past
    maturity.
    """
    u = T - state.t
    if u < 0.0:
        raise ExtrapolationRefused(f"state time {state.t!r} is past maturity {T!r}")
    y = state.a / state.s
    clamped = False
    if y <= 0.0:
        z = float(surfaces.z_nodes[-1])
        clamped = True
    else:
        z = -math.log(y)
        if z > float(surfaces.z_nodes[-1]):
            z = float(surfaces.z_nodes[-1])
            clamped = True
        elif z < float(surfaces.z_nodes[0]):
            raise ExtrapolationRefused(
                f"z={z:.4f} below grid minimum {float(surfaces.z_nodes[0]):.4f}; "
                "rebuild with a wider window"
            )
    reduced = surfaces.value(u, z, state.regime, m)
    return state.s * reduced, {"z": z, "clamped": clamped}


def price_floating_put_ham(state: MarketState, model: RegimeModel,
                           config: HamConfig, T: float) -> PriceResult:
    """Dollar price of the unit-multiplier floating put via the series."""
    surfaces = series_surfaces(model, T, config)
    price, info = series_dollar_price(surfaces, state, T)
    return PriceResult(
        price=price,
        method="ham_series",
        diagnostics={
            "m_trunc": config.m_trunc,
            "terminal_mode": config.terminal_mode,
            "initial_guess_mode": config.initial_guess_mode,
            "z": info["z"],
            "clamped": info["clamped"],
            "term_norms": surfaces.term_norms,
        },
    )


def ham_vs_fd_report(model: RegimeModel, T: float, s: float = 100.0,
                     config: HamConfig | None = None,
                     fd_config=None,
                     probes: tuple = ((0.5, 0.25), (0.5, 0.5), (0.5, 0.75)),
                     ) -> dict:
    """Series-vs-grid comparison across all mode combinations.

    For each terminal mode crossed with each initial-guess mode, reads
    the series surface to ``m_trunc`` (:func:`series_surfaces`, so a
    repeated call builds nothing) and reports, per regime: the partial-sum
    dollar price at the fresh state (``t = 0``, ``a = 0``, evaluated at
    the far column, which the construction treats as the small-``y``
    boundary value) after 0..m_trunc terms, the successive price deltas,
    the factorial-weighted term norms, and the gap to the Crank-Nicolson
    grid price. ``probes`` adds mid-life rows ``(t, y)`` where the
    surfaces carry genuine content. The gap is informational: the two
    methods resolve the small-``y`` boundary differently, so agreement
    is not asserted here, only measured.

    Everything returned is plain Python (floats, lists, dicts), ready
    for JSON serialization.
    """
    from .fd import FdConfig, fd_price

    validate_model(model)
    require_two_states(model)
    base = config if config is not None else HamConfig(m_trunc=4)
    fd_cfg = fd_config if fd_config is not None else FdConfig(n_y=800, n_t=800)
    fd_surf = fd_price(model, T, fd_cfg)
    fd_desk = [fd_surf.dollar_price(MarketState(t=0.0, s=s, a=0.0, regime=i))
               for i in (0, 1)]

    report = {
        "T": float(T),
        "s": float(s),
        "m_trunc": int(base.m_trunc),
        "fd": {
            "n_y": int(fd_cfg.n_y),
            "n_t": int(fd_cfg.n_t),
            "desk_price": [float(p) for p in fd_desk],
        },
        "modes": [],
    }
    for terminal_mode in _TERMINAL_MODES:
        for guess_mode in _GUESS_MODES:
            cfg = replace(base, terminal_mode=terminal_mode,
                          initial_guess_mode=guess_mode)
            surf = series_surfaces(model, T, cfg)
            z_top = float(surf.z_nodes[-1])
            prices = [[s * surf.value(T, z_top, i, m) for m in range(len(surf.partials))]
                      for i in (0, 1)]
            deltas = [[abs(p[k] - p[k - 1]) for k in range(1, len(p))]
                      for p in prices]
            mono = all(
                all(d[k] <= d[k - 1] for k in range(2, len(d)))
                for d in deltas
            )
            probe_rows = []
            for (t_probe, y_probe) in probes:
                u = T - t_probe
                z = -math.log(y_probe)
                for i in (0, 1):
                    ham_val = s * surf.value(u, z, i)
                    fd_val = s * fd_surf.value(t_probe, y_probe, i)
                    probe_rows.append({
                        "t": float(t_probe), "y": float(y_probe), "regime": i,
                        "ham": float(ham_val), "fd": float(fd_val),
                        "gap": float(ham_val - fd_val),
                    })
            report["modes"].append({
                "terminal_mode": terminal_mode,
                "initial_guess_mode": guess_mode,
                "partial_prices": [[float(p) for p in row] for row in prices],
                "deltas": [[float(d) for d in row] for row in deltas],
                "non_increasing_m2_on": bool(mono),
                "term_norms": [list(map(float, pair))
                               for pair in surf.term_norms],
                "desk_gap": [float(prices[i][-1] - fd_desk[i]) for i in (0, 1)],
                "probes": probe_rows,
            })
    report["any_mode_non_increasing"] = bool(
        any(m["non_increasing_m2_on"] for m in report["modes"])
    )
    return report
