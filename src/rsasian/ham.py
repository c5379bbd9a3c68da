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
A term is one array of shape ``(2, n_u, n_z)``: the regime is its first
axis, so every step, residual and sum treats both regimes at once and
regime ``i`` couples to ``1 - i`` by reversing that axis. The
``d/dz`` a source needs is computed where it is read, never stored.
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
at one kernel time come from hat lobes on two offset lattices, and the
lobes the two edge hats lose are slices of the same lobes; the two
correction lobes that share an interval share its panel values. Stacked by
lag, the resulting generators (Toeplitz ``w1``, Hankel ``w2``, one clip
per edge hat) make the sum over source nodes and levels linear 2-D
convolutions in ``(xi, u)``, summed by FFT (Hairer, Lubich and Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985, block the same history sum for a
march that needs it level by level); a clip meets one source row, so it is
a 1-D convolution in ``u`` per output node. :func:`build_terms` makes every
lag of a regime in one pass and transforms the stacks once.
The spectrum of the ``xi``-reversed source is the forward spectrum's row 0
and then its other rows in reverse order, times a phase, which the ``w2``
spectrum carries; the ``w2`` product reads those rows through two views of
the forward spectrum, so no reordered copy is made. A step costs one
forward 2-D ``numpy.fft`` transform of both regimes' sources and one
inverse, whose ``u`` transform runs only on the rows it keeps after the
clips' ``u``-spectra are added to them. The spectra are stored with the
``xi`` axis contiguous, so the ``xi`` transforms, the longer ones, and the
products run along unit strides; numpy transforms each line alike whatever
its stride, so the layout changes no bit. The roundoff stays below the
``1e-12`` far-field floor. The time integral is a trapezoid over grid
levels; its ``tau -> 0`` end is the delta identity.

Outputs for ``z < 0`` (in-the-money averages, ``y > 1``) evaluate the
same representation; the half-line construction makes no statement
there, so residual checks apply only to the ``z > 0`` interior and the
grid oracles arbitrate the rest.

:func:`series_surfaces` builds the terms once per ``(model, T, config)``
and caches every partial sum for the life of the process, in the bounded cache
FD's Richardson grids share; pricing, the CLI convergence table and
:func:`ham_vs_fd_report` all read from it. The lag kernel depends only on
the grid and the model, so :func:`ham_step` keeps it in the same cache, where
every build on that grid and model, whatever its modes or ``m_trunc``, finds it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PricingError, ValidationError
from .european import european_put_grid
from .fd import FdConfig, fd_price
from .greens import robin_correction
from .model import (
    MarketState,
    PriceResult,
    RegimeModel,
    bilinear,
    cached_surface,
    rate_ratios,
    require_two_states,
)
# the shared cache keeps its old name here: clearing ``ham._SURFACES_CACHE`` empties both engines'
from .model import _SURFACES_CACHE  # noqa: F401

_TERMINAL_MODES = ("payoff", "paper_zero")
_GUESS_MODES = ("european_rs", "zero")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

_ROBIN_PANEL_X = 0.5  # see _robin_lobes
_ROBIN_CUT_X = 8.5
_ROBIN_BLOCK = 2048  # active lobes evaluated at once, which bounds the temporaries
_SOURCE_TAIL_WARN = 1e-10  # ham_step warns above this share of the source peak
_DIVERGENCE_LIMIT = 100.0  # largest later term norm a price accepts, in term-0 norms


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

    ``values`` has shape ``(2, n_u, n_z)``: regime, then rows along
    ``u_nodes`` (time to maturity), then columns along ``z_nodes``.
    ``d/dz`` is not stored; readers take it with :func:`_deriv_z`. Arrays
    are marked read-only on construction.
    """

    m: int
    z_nodes: np.ndarray
    u_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for arr in (self.z_nodes, self.u_nodes, self.values):
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


def _floor_far_field(vals: np.ndarray, j0: int) -> None:
    """Zero sub-noise magnitudes on the half-line part of each regime's field.

    The recursion feeds each term through an ``e^{z}``-weighted source,
    so roundoff dust in a term's far tail (for instance the quadrature
    floor of the European guess, ~1e-12 of its strike) would grow by roughly
    ``e^{z_max}`` per term and dominate the far field within a few
    terms. True terms decay superexponentially out there, so entries
    below 1e-12 of the field's half-line magnitude are dust, not
    signal; zeroing them is well inside the scheme's error budget. One
    threshold per regime serves all its time rows because the noise
    floor is absolute while early rows have small genuine content.
    """
    half = vals[..., j0:]
    cut = 1e-12 * np.max(np.abs(half), axis=(-2, -1), keepdims=True)
    np.copyto(half, 0.0, where=np.abs(half) < cut)


def initial_guess(model: RegimeModel, T: float, config: HamConfig) -> TermGrid:
    """Term 0 on :func:`ham_grid` of ``config`` and ``T``, for ``config``'s two modes.

    ``initial_guess_mode="european_rs"`` maps the reduced state to a European put:
    ``(y/T - 1)^+ = e^{-z} (1/T - e^{z})^+`` is ``e^{-z}`` times a
    vanilla put payoff in ``x = e^{z} = 1/y`` with strike ``1/T``, so
    term 0 is ``e^{-z} P_i(S=e^{z}, K=1/T, ttm=u)``. This matches the
    terminal payoff exactly at ``u = 0`` and decays as ``z`` grows. Each
    ``u`` level is one :func:`european_put_grid` call, a single pass of the
    occupation-time rule for both regimes, accurate to about 1e-12 of
    the strike ``1/T``; volatilities more than about 340 times apart need
    more nodes than the rule's cap, and the guess refuses.
    ``initial_guess_mode="zero"`` carries the terminal slice (payoff or
    zero per ``terminal_mode``) unchanged in time.
    """
    z, u = ham_grid(config, T)
    vals = np.zeros((2, len(u), len(z)))
    if config.initial_guess_mode == "european_rs":
        s_vals = np.exp(z)
        damp = np.exp(-z)
        for l, ttm in enumerate(u):
            vals[:, l] = damp * european_put_grid(model, s_vals, 1.0 / T, float(ttm))
    elif config.terminal_mode == "payoff":
        vals[:] = _reduced_payoff(z, T)
    vals[:, 0] = _reduced_payoff(z, T) if config.terminal_mode == "payoff" else 0.0
    _floor_far_field(vals, int(np.argmin(np.abs(z))))
    return TermGrid(m=0, z_nodes=z, u_nodes=u, values=vals)


# --- kernel weight tables -------------------------------------------------

def _gauss_lobes(v: np.ndarray, h: float, tau: np.ndarray):
    """Exact left/right hat-lobe integrals of ``exp(-t^2/4 tau)``, one row per kernel time.

    At each inner node ``d`` of the step-``h`` lattice ``v``, ``lobe_l(d)`` integrates the
    rising half over ``[d-h, d]`` and ``lobe_r(d)`` the falling half over ``[d, d+h]``.
    """
    from scipy.special import erf

    tau = tau[:, None]
    root = np.sqrt(tau)
    f = math.sqrt(math.pi) * root * erf(v / (2.0 * root))
    g = -2.0 * tau * np.exp(-(v * v) / (4.0 * tau))
    df, dg = np.diff(f), np.diff(g)
    lobe_l = (dg[:, :-1] - v[:-2] * df[:, :-1]) / h
    lobe_r = (v[2:] * df[:, 1:] - dg[:, 1:]) / h
    return lobe_l, lobe_r


def _robin_lobes(d: np.ndarray, h: float, tau: np.ndarray, gamma: float):
    """Hat-lobe integrals of the correction piece by scaled GL panels, one row per kernel time.

    Panels are at most ``_ROBIN_PANEL_X`` wide in the similarity
    variable ``v / (2 sqrt(tau))`` so short kernel times stay resolved;
    lobes entirely beyond ``_ROBIN_CUT_X`` on the decaying side are zero.
    The right lobe of node ``d`` and the left lobe of ``d + h`` span one
    interval, so the correction is evaluated once per interval for both.
    Kernel times with the same panel count share the panel offsets, so
    their active intervals are evaluated together, ``_ROBIN_BLOCK`` at a time.
    """
    # interval c spans [start_c, start_c + h]: node c's left lobe, node c - 1's right
    lobe_l = np.zeros((len(tau), len(d) + 1))
    lobe_r = np.zeros_like(lobe_l)
    starts = np.concatenate(([d[0] - h], d))
    root2 = 2.0 * np.sqrt(tau)
    width = np.minimum(h, _ROBIN_PANEL_X * root2)
    n_pans = np.maximum(1, np.ceil(h / width)).astype(int)
    active = starts - h < (_ROBIN_CUT_X * root2)[:, None]  # as node c - 1 is
    for n_pan in np.unique(n_pans):
        edges = np.linspace(0.0, h, n_pan + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        # offsets (n_pan, 8) within [0, h], shared across intervals, and the
        # weights of the rising (left lobe) and falling (right lobe) hat halves
        t_off = mids[:, None] + half[:, None] * _GL_NODES[None, :]
        w_off = half[:, None] * _GL_WEIGHTS[None, :]
        w_l, w_r = w_off * (t_off / h), w_off * (1.0 - t_off / h)
        rows, cols = np.nonzero(active & (n_pans == n_pan)[:, None])
        for start in range(0, len(rows), _ROBIN_BLOCK):
            r, c = rows[start:start + _ROBIN_BLOCK], cols[start:start + _ROBIN_BLOCK]
            vals = robin_correction(starts[c, None, None] + t_off, tau[r, None, None], gamma)
            lobe_l[r, c] = np.sum(vals * w_l, axis=(1, 2))
            lobe_r[r, c] = np.sum(vals * w_r, axis=(1, 2))
    return np.where(active[:, 1:], lobe_l[:, :-1], 0.0), lobe_r[:, 1:]


def _kernel_generators(z: np.ndarray, j0: int, tau: np.ndarray, gamma: float):
    """Weights at the kernel times ``tau``, one row per time: ``w1`` (direct piece,
    offsets ``(k - j0 - n) h``), ``w2`` (image plus correction, ``(k - j0 + n) h``) and,
    per output node, the lobe each edge hat loses (``xi = 0`` keeps its right half,
    ``xi_max`` its left)."""
    n_z = len(z)
    n_xi = n_z - j0
    h = float(z[1] - z[0])
    norm = 1.0 / (2.0 * np.sqrt(np.pi * tau))[:, None]
    # p = (-(n_z - 1) .. n_xi - 1) h and q = (-j0 .. n_z - 2 + n_xi - j0) h lie on
    # one lattice: q starts a = n_z - 1 - j0 nodes after p
    a, b = n_z - 1 - j0, n_xi - 1
    ll_u, rr_u = _gauss_lobes(np.arange(-n_z, n_z + n_xi - j0) * h, h, tau)
    ll, rr, ll_g, rr_g = ll_u[:, :n_z + b], rr_u[:, :n_z + b], ll_u[:, a:], rr_u[:, a:]
    ll_r, rr_r = _robin_lobes(np.arange(-j0, n_z - 1 + n_xi - j0) * h, h, tau, gamma)
    # the clips are slices of the same lobes: z - xi_0 = z is p[a:], z - xi_max
    # is p[:n_z], z + xi_0 is q[:n_z] and z + xi_max is q[b:]
    return ((ll + rr) * norm, (ll_g + rr_g + ll_r + rr_r) * norm,
            (rr[:, a:] + ll_g[:, :n_z] + ll_r[:, :n_z]) * norm,
            (ll[:, :n_z] + rr_g[:, b:] + rr_r[:, b:]) * norm)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer ``>= n``, a length ``numpy.fft`` transforms quickly."""
    p = range(n.bit_length() + 1)
    return min(m for a in p for b in p for c in p if (m := 2 ** a * 3 ** b * 5 ** c) >= n)


def _kernel_key(z: np.ndarray, u: np.ndarray, model: RegimeModel) -> dict:
    """What the lag weights depend on: the grid and each regime's ``sigma^2/2`` and ``gamma``."""
    j0 = int(np.argmin(np.abs(z)))
    if abs(float(z[j0])) > 1e-12:
        raise ValidationError("z grid has no node at 0; build it with ham_grid")
    _, gamma, sig_half = _regime_axes(model)
    return {"n_z": len(z), "n_u": len(u), "h": float(z[1] - z[0]), "j0": j0,
            "du": float(u[1] - u[0]), "sigma^2/2": sig_half.ravel().tolist(),
            "gamma": gamma.ravel().tolist()}


def _lag_generators(z: np.ndarray, u: np.ndarray, model: RegimeModel) -> dict:
    """:func:`_kernel_key` plus, per regime, the 2-D ``spectra`` of the lag-stacked
    ``w1`` and ``w2`` and the ``u``-spectra ``clips`` of the two edge-hat clips, one
    row per output node; column ``j`` of a stack is lag ``j``.

    All lags of a regime come from one :func:`_kernel_generators` call. The ``w2``
    spectrum carries the phase that lets :func:`_kernel_integral` read the
    ``xi``-reversed source's spectrum off the forward one. The ``spectra`` are
    stored ``xi``-contiguous, as the step's spectra are, and both arrays are
    marked read-only, since the surface cache shares the kernel across builds.
    """
    kernel = _kernel_key(z, u, model)
    n_z, n_u, j0, du = kernel["n_z"], kernel["n_u"], kernel["j0"], kernel["du"]
    n_xi = n_z - j0
    kernel["shape"] = (_fast_len(n_z + n_xi - 1), _fast_len(2 * n_u - 1))
    n0, n1 = kernel["shape"]
    kernel["spectra"] = _xi_contiguous((2, 2, n0, n1 // 2 + 1))
    kernel["clips"] = np.empty((2, 2, n_z, n1 // 2 + 1), complex)
    # the xi-reversed source's spectrum at row k0 is the source's at row (-k0) mod n0
    # times this phase
    phase = np.exp(-2j * np.pi * (np.arange(n0) * (n_xi - 1) % n0) / n0)[:, None]
    lags = np.arange(1, n_u)
    stack = np.zeros((2, n_z + n_xi - 1, n_u))  # lag 0 stays zero
    clips = np.zeros((2, n_z, n_u))
    for i, (sig_half, gamma) in enumerate(zip(kernel["sigma^2/2"], kernel["gamma"])):
        w1, w2, c0, c_n = _kernel_generators(z, j0, sig_half * lags * du, gamma)
        stack[0, :, 1:], stack[1, :, 1:] = w1.T, w2.T
        clips[0, :, 1:], clips[1, :, 1:] = c0.T, c_n.T
        del w1, w2, c0, c_n
        for p in range(2):  # rfft2 of one plane at a time, straight into its slot
            np.fft.fft(np.fft.rfft(stack[p], n1), n0, axis=0, out=kernel["spectra"][i, p])
        kernel["spectra"][i, 1] *= phase
        kernel["clips"][i] = np.fft.rfft(clips, n1)
    kernel["spectra"].setflags(write=False)
    kernel["clips"].setflags(write=False)
    return kernel


def _xi_contiguous(shape: tuple) -> np.ndarray:
    """An empty complex array of ``shape`` whose ``xi`` (second-to-last) axis is the
    contiguous one, so the ``xi`` transforms and the products run along unit strides."""
    return np.empty((*shape[:-2], shape[-1], shape[-2]), complex).swapaxes(-1, -2)


def _kernel_integral(kernel: dict, s_half: np.ndarray) -> np.ndarray:
    """``sum_{j >= 1} mat_j @ s_half[i, :, t - j]`` for each regime ``i`` and level ``t``,
    ``(2, n_z, n_u)``, as the 2-D convolutions of the module docstring.

    Both regimes' sources take one forward transform into an ``xi``-contiguous
    buffer. The ``xi``-reversed source's spectrum is its row 0 followed by rows
    ``n0 - 1`` down to 1, which the ``w2`` product reads through two views of the
    forward spectrum, so no reordered copy is made. The inverse runs the ``xi``
    transform in place, copies the ``n_z`` rows kept out ``u``-contiguous, subtracts
    the clips' ``u`` convolutions with the two edge rows, then runs the ``u``
    transform.
    """
    n_xi, (n0, n1), n_z = s_half.shape[1], kernel["shape"], kernel["n_z"]
    spec = kernel["spectra"]
    planes = _xi_contiguous((2, n0, n1 // 2 + 1))
    np.fft.fft(np.fft.rfft(s_half, n1), n0, axis=1, out=planes)  # rfft2, xi-contiguous
    edges = np.fft.rfft(s_half[:, (0, -1), None], n1)
    # products in place: the step holds two spectrum-sized buffers
    part = np.empty_like(planes)
    np.multiply(planes[:, :1], spec[:, 1, :1], out=part[:, :1])
    np.multiply(planes[:, :0:-1], spec[:, 1, 1:], out=part[:, 1:])
    planes *= spec[:, 0]
    planes += part
    np.fft.ifft(planes, axis=1, out=planes)
    rows = np.ascontiguousarray(planes[:, n_xi - 1: n_xi - 1 + n_z])  # u-contiguous
    del planes, part  # the rest of the step reuses their memory
    clip = np.empty_like(rows)
    for p in (0, 1):  # the clips against the edge rows
        rows -= np.multiply(kernel["clips"][:, p], edges[:, p], out=clip)
    return np.fft.irfft(rows, n1)[..., :kernel["n_u"]].copy()  # frees the padded buffer


# --- recursion ------------------------------------------------------------

def _regime_axes(model: RegimeModel):
    """``(lam, gamma, sigma^2/2)`` per regime, shaped ``(2, 1, 1)`` to broadcast over a term."""
    ratios = np.array([rate_ratios(model, i) for i in (0, 1)])
    sig_half = np.array([0.5 * model.sigma[i] ** 2 for i in (0, 1)])
    return ratios[:, 0, None, None], ratios[:, 1, None, None], sig_half[:, None, None]


def _source_fields(prev: TermGrid, model: RegimeModel) -> np.ndarray:
    """Recursion sources ``lam_i (V_i - V_j) - (2 e^z / sigma_i^2) dV_i/dz``, stacked."""
    lam, _, sig_half = _regime_axes(model)
    z, v = prev.z_nodes, prev.values
    return lam * (v - v[::-1]) - (1.0 / sig_half) * np.exp(z) * _deriv_z(v, float(z[1] - z[0]))


def ham_step(prev: TermGrid, model: RegimeModel) -> TermGrid:
    """Series term ``m`` from term ``m - 1``.

    Solves the transformed heat problem by the kernel double integral:
    trapezoid over source levels in physical time (the zero-lag endpoint
    is the delta identity), exact-plus-panel hat weights over ``xi``.
    The returned term is zero at ``u = 0`` by construction. The kernel,
    :func:`_lag_generators` of the term's grid and ``model``, is read from the
    surface cache (:func:`rsasian.model.cached_surface`) and built on a miss.
    """
    require_two_states(model)
    z, u = prev.z_nodes, prev.u_nodes
    key = _kernel_key(z, u, model)
    kernel = cached_surface(("lag kernel", repr(key)), lambda: _lag_generators(z, u, model))
    n_z, j0, du = key["n_z"], key["j0"], key["du"]
    _, gamma, sig_half = _regime_axes(model)
    growth = 0.25 * (1.0 + gamma) ** 2
    # source with its transform prefactor, (2, n_xi, n_u): column l is level l
    pref = np.exp(0.5 * (1.0 + gamma) * z[j0:, None]) * np.exp(growth * sig_half * u)
    s_hat = pref * _source_fields(prev, model)[..., j0:].transpose(0, 2, 1)

    peak = np.max(np.abs(s_hat), axis=(1, 2))
    tail = np.max(np.abs(s_hat[:, -1]), axis=1)
    for i in np.flatnonzero((peak > 0.0) & (tail > _SOURCE_TAIL_WARN * peak)):
        warnings.warn(
            f"xi-integrand tail at xi_max is {tail[i] / peak[i]:.2e} of its peak "
            f"(regime {i}, term {prev.m + 1}); widen z_max",
            stacklevel=2,
        )

    # level 0 is the trapezoid's end point, so it enters with half weight
    s_half = np.concatenate((0.5 * s_hat[..., :1], s_hat[..., 1:]), axis=-1)
    accum = _kernel_integral(kernel, s_half)
    # delta-identity endpoint: kernel mass lands at xi = |z|, which
    # falls outside the truncated source range for z < -z_max; z < 0 reads the
    # source in reverse, z >= 0 reads it forward
    lo = max(0, 2 * j0 + 1 - n_z)
    accum[:, lo:j0] += 0.5 * s_hat[:, j0 - lo:0:-1]
    accum[:, j0:] += 0.5 * s_hat
    v_hat = (sig_half * du) * accum
    v_hat[..., 0] = 0.0

    damp = np.exp(-0.5 * (1.0 + gamma) * z[:, None]) * np.exp(-growth * sig_half * u)
    new_vals = (damp * v_hat).transpose(0, 2, 1)
    _floor_far_field(new_vals, j0)
    return TermGrid(m=prev.m + 1, z_nodes=z, u_nodes=u, values=new_vals)


def recursion_residual(term: TermGrid, prev: TermGrid, model: RegimeModel) -> dict:
    """Relative interior residual of the recursion PDE for both regimes.

    Applies the transformed operator to the computed term by finite
    differences and compares with the source built from ``prev``,
    normalized by the source sup-norm. The window keeps the interior
    ``0.5 <= z <= z_max - 0.5`` (a distance, at least three nodes) and
    drops the first two and the last two time rows.

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
    skip = max(3, int(math.ceil(0.5 / h)))
    lo = j0 + skip
    hi = len(z) - skip
    if hi - lo < 5:
        raise ValidationError("the 0.5 z margin leaves no interior window")
    _, gamma, sig_half = _regime_axes(model)
    sources = _source_fields(prev, model)
    v = term.values[:, 1:-1]
    dv_du = (term.values[:, 2:] - term.values[:, :-2]) / (2.0 * du)
    d2 = np.zeros_like(v)
    d2[..., 2:-2] = (
        -v[..., :-4] + 16.0 * v[..., 1:-3] - 30.0 * v[..., 2:-2] + 16.0 * v[..., 3:-1] - v[..., 4:]
    ) / (12.0 * h * h)
    lhs = dv_du / sig_half - d2 - (1.0 + gamma) * _deriv_z(v, h)
    window = (lhs - sources[:, 1:-1])[:, 1 : len(u) - 3, lo:hi]
    scale = np.max(np.abs(sources), axis=(1, 2))
    return {i: float(np.max(np.abs(window[i]))) / (float(scale[i]) if scale[i] > 0.0 else 1.0)
            for i in (0, 1)}


# --- assembly and pricing -------------------------------------------------

@dataclass(frozen=True)
class SeriesSurfaces:
    """Partial sums of the series with per-term diagnostics.

    ``partials[m]`` is the factorial-weighted sum of terms ``0..m``, so
    ``partials[-1]`` is the truncated series. ``model`` is the model the
    terms were built for.
    """

    z_nodes: np.ndarray
    u_nodes: np.ndarray
    partials: np.ndarray  # (m_trunc + 1, 2, n_u, n_z)
    term_norms: tuple[tuple[float, float], ...]  # per term, per regime, /m!
    model: RegimeModel

    def __post_init__(self):
        for arr in (self.z_nodes, self.u_nodes, self.partials):
            arr.setflags(write=False)

    def value(self, u: float, z: float, regime: int, m: int = -1) -> float:
        """Bilinear read of partial sum ``m`` (default: all terms)."""
        return bilinear(self.partials[m, regime], ("u", self.u_nodes, u), ("z", self.z_nodes, z))


def assemble_series(terms: list[TermGrid], model: RegimeModel) -> SeriesSurfaces:
    """Running factorial-weighted sums of ``model``'s terms plus the norm diagnostic."""
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
        total += w * t.values
        partials[k] = total
        norms.append(tuple((w * np.max(np.abs(t.values), axis=(1, 2))).tolist()))
    return SeriesSurfaces(z_nodes=z, u_nodes=u, partials=partials,
                          term_norms=tuple(norms), model=model)


def build_terms(model: RegimeModel, T: float, config: HamConfig) -> list[TermGrid]:
    """Terms ``0..m_trunc`` for the configured grid and modes."""
    require_two_states(model)
    if any(q != 0.0 for q in model.q):
        raise ValidationError(f"model.q={list(model.q)}: the series engine prices only q = 0")
    terms = [initial_guess(model, T, config)]
    for _ in range(config.m_trunc):
        terms.append(ham_step(terms[-1], model))
    return terms


def series_surfaces(model: RegimeModel, T: float, config: HamConfig) -> SeriesSurfaces:
    """The series surface for ``(model, T, config)``, built on first use.

    The key carries :func:`ham_window`, so a filled-in default window
    shares the entry, in the cache FD reads share (:func:`rsasian.model.cached_surface`).
    """
    z_lo, z_hi = ham_window(config, T)
    key = (model, T, replace(config, z_min=z_lo, z_max=z_hi))
    return cached_surface(key, lambda: assemble_series(build_terms(model, T, config), model))


def series_dollar_price(surfaces: SeriesSurfaces, state: MarketState,
                        m: int = -1) -> tuple[float, dict]:
    """Dollar price ``s * V_regime(T - t, -ln(a/s))`` of partial sum ``m``, with the
    maturity ``T`` read off the surface's last time node.

    ``a = 0`` maps to ``z = +infinity``; the far column ``z_max`` stands
    in for it (the construction's boundary value), flagged in the
    returned info dict. The grid read refuses states below ``z_min``
    (deep in-the-money averages) and past maturity with
    :class:`InterpolationOutOfRange`. A divergent series is refused with
    :class:`PricingError`: one whose factorial-weighted term norms after
    term 0 reach more than ``_DIVERGENCE_LIMIT`` times term 0's in either
    regime.
    """
    norms = np.array(surfaces.term_norms)
    for i in (0, 1):
        first, later = norms[0, i], norms[1:, i].max(initial=0.0)
        if later > _DIVERGENCE_LIMIT * first:
            model = surfaces.model
            growth = later / first if first > 0.0 else math.inf
            raise PricingError(
                f"the series diverges: regime {i} term norms grow to {growth:.3g} times "
                f"term 0's (limit {_DIVERGENCE_LIMIT:g}) at r={list(model.r)}, "
                f"sigma={list(model.sigma)}"
            )
    y = state.a / state.s
    z = -math.log(y) if y > 0.0 else math.inf
    clamped = z > float(surfaces.z_nodes[-1])
    if clamped:
        z = float(surfaces.z_nodes[-1])
    reduced = surfaces.value(float(surfaces.u_nodes[-1]) - state.t, z, state.regime, m)
    return state.s * reduced, {"z": z, "clamped": clamped}


def price_floating_put_ham(state: MarketState, model: RegimeModel,
                           config: HamConfig, T: float) -> PriceResult:
    """Dollar price of the unit-multiplier floating put via the series.

    A negative read, which the paper form's own error can leave on a coarse
    grid, is clipped to 0 and recorded as ``unclipped_price``, as
    :func:`rsasian.european.price_european_put_rs` records its clips;
    :func:`series_dollar_price` stays unclipped.
    """
    if state.regime not in (0, 1):
        raise ValidationError(f"regime index {state.regime!r} not 0 or 1")
    surfaces = series_surfaces(model, T, config)
    price, info = series_dollar_price(surfaces, state)
    diagnostics = {
        "m_trunc": config.m_trunc,
        "terminal_mode": config.terminal_mode,
        "initial_guess_mode": config.initial_guess_mode,
        "z": info["z"],
        "clamped": info["clamped"],
        "term_norms": surfaces.term_norms,
    }
    if price < 0.0:
        diagnostics["unclipped_price"], price = price, 0.0
    return PriceResult(price=price, diagnostics=diagnostics)


def ham_vs_fd_report(model: RegimeModel, T: float, config: HamConfig = HamConfig(),
                     fd_config: FdConfig = FdConfig()) -> dict:
    """Series-vs-grid comparison across all mode combinations.

    For each terminal mode crossed with each initial-guess mode, reads
    the series surface to ``m_trunc`` (:func:`series_surfaces`, so a
    repeated call builds nothing) and reports, per regime: the partial-sum
    dollar price at the fresh state (``t = 0``, ``a = 0``, evaluated at
    the far column, which the construction treats as the small-``y``
    boundary value) after 0..m_trunc terms, the successive price deltas,
    the factorial-weighted term norms, and the gap to the Crank-Nicolson
    grid price, all at spot ``s = 100``. The probes add mid-life rows at
    ``t = 0.5`` and ``y`` in 0.25, 0.5 and 0.75, where the surfaces carry
    genuine content. The gap is informational: the two methods resolve
    the small-``y`` boundary differently, so agreement is not asserted
    here, only measured. The surfaces are read directly, not through
    :func:`series_dollar_price`, so a divergent series is reported, not refused.

    Everything returned is plain Python (floats, lists, dicts), ready
    for JSON serialization.
    """
    require_two_states(model)
    s, probes = 100.0, ((0.5, 0.25), (0.5, 0.5), (0.5, 0.75))
    fd_surf = fd_price(model, T, fd_config)
    fd_desk = [fd_surf.dollar_price(MarketState(t=0.0, s=s, a=0.0, regime=i))
               for i in (0, 1)]

    report = {
        "T": float(T),
        "s": float(s),
        "m_trunc": int(config.m_trunc),
        "fd": {
            "n_y": int(fd_config.n_y),
            "n_t": int(fd_config.n_t),
            "desk_price": [float(p) for p in fd_desk],
        },
        "modes": [],
    }
    for terminal_mode in _TERMINAL_MODES:
        for guess_mode in _GUESS_MODES:
            cfg = replace(config, terminal_mode=terminal_mode,
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
