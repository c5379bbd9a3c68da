"""Reference values computed apart from the pricing engines.

Put-call parity fixes the difference of each put/call pair without any
model of the option's optionality. Under the regime-switching GBM, with
``G`` the chain generator, ``D`` the discount factor to ``T`` and ``1``
the vector of ones, the three expectations it needs are, per starting
regime ``i``:

* ``E[D S_T]     = s (e^{(G - diag q) T} 1)_i``
* ``E[D A_T / T] = (s / T) int_0^T (e^{(G - diag q) t} e^{(G - diag r)(T - t)} 1)_i dt``
* ``E[D]         = (e^{(G - diag r) T} 1)_i``

The time integral is the upper-right block of the exponential of the
block matrix ``[[G - diag q, I], [0, G - diag r]] T`` (Van Loan, 1978),
so all three are exact up to the matrix exponential's rounding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


def discounted_moments(r, q, gen, T: float, s: float):
    """``(E[D S_T], E[D A_T / T], E[D])`` per starting regime, as arrays."""
    g = np.asarray(gen, dtype=float)
    n = g.shape[0]
    share = g - np.diag(np.asarray(q, dtype=float))
    cash = g - np.diag(np.asarray(r, dtype=float))
    ones = np.ones(n)
    block = np.block([[share, np.eye(n)], [np.zeros((n, n)), cash]])
    integral = expm(block * T)[:n, n:] @ ones
    return s * (expm(share * T) @ ones), (s / T) * integral, expm(cash * T) @ ones


def floating_parity(model: dict, T: float, s: float, regime: int) -> float:
    """Floating put minus floating call (unit multiplier): ``E[D (A_T/T - S_T)]``."""
    d_s, d_avg, _ = discounted_moments(model["r"], _q(model), model["gen"], T, s)
    return float(d_avg[regime] - d_s[regime])


def fixed_parity(model: dict, T: float, s: float, regime: int, k: float) -> float:
    """Fixed put minus fixed call at strike ``k``: ``E[D (K - A_T/T)]``."""
    _, d_avg, d = discounted_moments(model["r"], _q(model), model["gen"], T, s)
    return float(k * d[regime] - d_avg[regime])


def _q(model: dict):
    return model.get("q", [0.0] * len(model["r"]))


def self_test() -> None:
    """Check the reference against its single-regime closed form (``G = 0``).

    With no switching, ``E[D S_T] = s e^{-qT}``, ``E[D] = e^{-rT}`` and
    ``E[D A_T/T] = s (e^{-qT} - e^{-rT}) / ((r - q) T)`` in each regime.
    Raises ``AssertionError`` naming the first quantity that disagrees.
    """
    r, q, T, s = (0.05, 0.01), (0.0, 0.03), 1.5, 100.0
    d_s, d_avg, d = discounted_moments(r, q, [[0.0, 0.0], [0.0, 0.0]], T, s)
    for i in (0, 1):
        want = (
            s * math.exp(-q[i] * T),
            s * (math.exp(-q[i] * T) - math.exp(-r[i] * T)) / ((r[i] - q[i]) * T),
            math.exp(-r[i] * T),
        )
        for name, got, ref in zip(("E[D S_T]", "E[D A_T/T]", "E[D]"), (d_s[i], d_avg[i], d[i]), want):
            if not math.isclose(got, ref, rel_tol=1e-12):
                raise AssertionError(f"reference {name} regime {i}: {got!r} != closed form {ref!r}")
