"""Half-line heat kernel with a rate-dependent boundary correction.

The transformed series terms solve ``v_tau = v_zz`` on ``z > 0`` with
sources; their integral representation uses a kernel built from a direct
Gaussian, a reflected Gaussian, and an erfc correction whose strength is
``(1 - gamma)`` with ``gamma = 2 r / sigma**2``. Two exponent variants
are provided for the correction term:

- ``"tau_scaled"``: the correction carries ``exp[(1-gamma)^2 tau / 4]``,
  which makes the kernel an exact solution of the heat equation (it is
  the classical Robin-boundary image kernel). This is the default.
- ``"paper_printed"``: the time factor is replaced by the constant
  ``exp[(1-gamma)^2 / 4]``. Dimensionally inconsistent; kept solely so
  the finite-difference residual check can demonstrate which variant is
  the solving kernel.

The correction depends on ``z`` and ``xi`` only through ``z + xi``;
:func:`robin_correction` evaluates it, and both :func:`greens_function`
and the series engine's kernel tables call it. It is stabilized with
``erfcx``: the correction is written as
``(1-gamma) sqrt(pi tau) erfcx(arg) exp[-(z+xi)^2 / 4 tau]`` so that no
intermediate overflows for large ``z + xi``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_VARIANTS = ("tau_scaled", "paper_printed")


def _require_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValidationError(f"unknown exponent variant {variant!r}; expected one of {_VARIANTS}")


def robin_correction(v, tau, gamma: float, variant: str = "tau_scaled") -> np.ndarray:
    """The erfc correction piece of the kernel at ``v = z + xi``.

    Returns ``(1-g) sqrt(pi tau) e^{b^2 - 2 b s} erfc(s - b)`` with
    ``s = v / (2 sqrt(tau))`` and ``b = (1-g) sqrt(tau) / 2``, before the
    kernel's common ``1 / (2 sqrt(pi tau))`` normalization. ``tau`` is
    positive, a scalar or an array that broadcasts against ``v``.
    """
    from scipy.special import erfcx

    one_mg = 1.0 - gamma
    root = np.sqrt(tau)
    s = np.asarray(v, dtype=float) / (2.0 * root)
    b = np.broadcast_to(0.5 * one_mg * root, s.shape)
    arg = s - b
    out = np.empty_like(s)
    low = arg < -25.0
    # erfc saturates at 2 on the far left; fold the Gaussian in
    # analytically there since erfcx(arg) would overflow.
    b_low = b[low]
    out[low] = 2.0 * np.exp(b_low * b_low - 2.0 * b_low * s[low])
    out[~low] = erfcx(arg[~low]) * np.exp(-s[~low] ** 2)
    out *= one_mg * math.sqrt(math.pi) * root
    if variant == "paper_printed":
        out *= np.exp(one_mg * one_mg * (1.0 - tau) / 4.0)
    return out


def greens_function(tau: float, z, xi, gamma: float, variant: str = "tau_scaled"):
    """Kernel value ``G(tau, z, xi)`` for regime ratio ``gamma``.

    ``tau`` is the (regime-scaled) kernel time, a positive scalar;
    ``z`` and ``xi`` broadcast. ``xi`` is the source coordinate on the
    half-line, ``z`` the evaluation coordinate.
    """
    _require_variant(variant)
    if not tau > 0.0:
        raise ValidationError("tau not > 0 in greens_function")
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    direct = np.exp(-((z - xi) ** 2) / (4.0 * tau))
    image = np.exp(-((z + xi) ** 2) / (4.0 * tau))
    robin = robin_correction(z + xi, tau, gamma, variant)
    out = (direct + image + robin) / (2.0 * math.sqrt(math.pi * tau))
    return out if out.ndim else float(out)


def heat_residual(tau: float, z: float, xi: float, gamma: float,
                  variant: str = "tau_scaled") -> float:
    """|dG/dtau - d2G/dz2| by fourth-order central differences.

    The steps are ``sqrt(tau)/70`` in space and ``tau/200`` in time, small
    enough that the finite-difference truncation error sits well below the
    1e-6 acceptance band for moderate ``(z, xi)`` while staying far above
    the roundoff floor of the stencils.
    """
    if tau <= 0.0:
        raise ValidationError("tau not > 0 in heat_residual")
    dz, dtau = math.sqrt(tau) / 70.0, tau / 200.0

    def g(tt, zz):
        return greens_function(tt, zz, xi, gamma, variant)

    # 5-point fourth-order stencils: f' ~ (-f2 + 8 f1 - 8 f-1 + f-2)/12h,
    # f'' ~ (-f2 + 16 f1 - 30 f0 + 16 f-1 - f-2)/12h^2.
    g_tau = (
        -g(tau + 2 * dtau, z) + 8.0 * g(tau + dtau, z)
        - 8.0 * g(tau - dtau, z) + g(tau - 2 * dtau, z)
    ) / (12.0 * dtau)
    g_zz = (
        -g(tau, z + 2 * dz) + 16.0 * g(tau, z + dz) - 30.0 * g(tau, z)
        + 16.0 * g(tau, z - dz) - g(tau, z - 2 * dz)
    ) / (12.0 * dz * dz)
    return abs(g_tau - g_zz)


def delta_property_error(tau: float, z: float, phi, gamma: float) -> float:
    """|Integral of G(tau, z, xi) phi(xi) dxi - phi(z)| for the solving kernel.

    For smooth ``phi`` supported away from the boundary the error decays
    like ``tau`` (leading term ``tau * phi''(z)``); used by the tests to
    verify the short-time delta behavior at first order.
    """
    if tau <= 0.0:
        raise ValidationError("tau not > 0 in delta_property_error")
    upper = z + 15.0 * math.sqrt(tau) + 6.0
    xi = np.linspace(0.0, upper, 40001)
    vals = greens_function(tau, z, xi, gamma) * phi(xi)
    return abs(float(np.trapezoid(vals, xi)) - float(phi(z)))


def select_exponent_variant() -> str:
    """Return the variant whose heat residual is below 1e-6 everywhere sampled.

    The samples are ``gamma`` in 0.5, 1 and 2.5, ``tau`` in 0.01 and 0.1,
    and ``(z, xi)`` in (0.3, 0.5), (1, 0.4) and (0.8, 1.2). Both variants
    coincide at ``gamma = 1`` (the correction vanishes), so ties break
    toward ``"tau_scaled"``. Raises if neither variant passes.
    """
    for variant in _VARIANTS:
        worst = max(
            heat_residual(tau, z, xi, gamma, variant)
            for gamma in (0.5, 1.0, 2.5)
            for tau in (0.01, 0.1)
            for (z, xi) in ((0.3, 0.5), (1.0, 0.4), (0.8, 1.2))
        )
        if worst < 1e-6:
            return variant
    raise ValidationError("no exponent variant passes the heat-equation residual check")
