"""Tests for the Crank-Nicolson solver on the reduced one-factor PDE.

The floating put reduces to a single spatial variable y (running average
over spot). The characteristic at y = 0 flows into the domain, so the
treatment there is pure transport.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from rsasian import (
    FdConfig,
    InterpolationOutOfRange,
    LinearSolveFailure,
    MarketState,
    RegimeModel,
    ValidationError,
    default_y_max,
    fd_price,
    richardson_order,
    two_state_model,
)
from rsasian import fd

INCEPTION = MarketState(t=0.0, s=100.0, a=0.0, regime=0)

THREE_STATE = RegimeModel(
    r=(0.05, 0.03, 0.01),
    sigma=(0.3, 0.2, 0.4),
    gen=((-1.5, 1.0, 0.5), (0.3, -0.7, 0.4), (2.0, 1.0, -3.0)),
    q=(0.01, 0.0, 0.02),
)

# converged desk-model reference from a 3200 x 3200 grid
DESK_REFERENCE = 4.977686


@pytest.fixture(scope="module")
def desk_surface(desk_model):
    return fd_price(desk_model, 1.0, FdConfig(n_y=200, n_t=200))


class TestTerminalAndBounds:
    @pytest.mark.parametrize("y", [0.0, 0.5, 1.0, 1.7, 3.2])
    @pytest.mark.parametrize("regime", [0, 1])
    def test_terminal_slice_is_the_payoff(self, desk_surface, y, regime):
        got = desk_surface.value(1.0, y, regime)
        want = max(y / 1.0 - 1.0, 0.0)
        assert got == pytest.approx(want, abs=1e-12), f"v(T, {y}) = {got}"

    def test_interpolation_refused_beyond_the_grid(self, desk_surface):
        with pytest.raises(InterpolationOutOfRange):
            desk_surface.value(0.0, desk_surface.y_nodes[-1] + 1.0, 0)

    def test_surface_is_monotone_in_y(self, desk_surface):
        assert desk_surface.monotone_in_y()

    def test_default_domain_grows_with_the_entry_point(self):
        assert default_y_max(1.0) == pytest.approx(4.0)
        assert default_y_max(1.0, y0=2.0) > default_y_max(1.0)


class TestPriceQuality:
    def test_grid_refinement_approaches_the_reference(self, desk_model):
        errs = []
        for n in (100, 400):
            surf = fd_price(desk_model, 1.0, FdConfig(n_y=n, n_t=n))
            errs.append(abs(surf.dollar_price(INCEPTION) - DESK_REFERENCE))
        assert errs[1] < errs[0] / 4.0, f"errors {errs}"

    @pytest.mark.parametrize("regime", [0, 1])
    def test_richardson_order_near_two(self, desk_model, regime):
        state = MarketState(t=0.0, s=100.0, a=0.0, regime=regime)
        order, prices = richardson_order(
            desk_model, 1.0, FdConfig(n_y=400, n_t=400), state
        )
        assert order > 1.7, f"order {order:.3f} from prices {prices}"

    def test_dollar_price_is_homogeneous(self, desk_surface):
        base = desk_surface.dollar_price(MarketState(t=0.5, s=100.0, a=50.0, regime=0))
        double = desk_surface.dollar_price(MarketState(t=0.5, s=200.0, a=100.0, regime=0))
        assert double == pytest.approx(2.0 * base, rel=1e-12)

    def test_price_increases_with_volatility(self):
        prices = []
        for bump in (0.0, 0.1, 0.2):
            model = two_state_model(0.05, 0.03, 0.3 + bump, 0.2 + bump, 1.0, 1.0)
            surf = fd_price(model, 1.0, FdConfig(n_y=100, n_t=100))
            prices.append(surf.dollar_price(INCEPTION))
        assert prices[0] < prices[1] < prices[2], f"prices {prices}"


class TestVariants:
    def test_startup_smoothing_is_a_small_correction(self, desk_model, desk_surface):
        raw = fd_price(desk_model, 1.0, FdConfig(n_y=200, n_t=200, rannacher_steps=0))
        a = raw.dollar_price(INCEPTION)
        b = desk_surface.dollar_price(INCEPTION)
        assert np.isclose(a, b, rtol=2e-3), f"no-smoothing {a} vs default {b}"


@pytest.fixture(params=["desk", "three_state"])
def any_model(request, desk_model):
    return desk_model if request.param == "desk" else THREE_STATE


class TestEarlyStop:
    """``t_min`` stops the march at the last level at or below it."""

    @pytest.mark.parametrize("t_min", [0.37, 0.5, 1.0])
    def test_kept_levels_are_the_full_march_sliced(self, any_model, t_min):
        cfg = FdConfig(n_y=60, n_t=100)
        full = fd_price(any_model, 1.0, cfg)
        short = fd_price(any_model, 1.0, replace(cfg, t_min=t_min))
        first = min(np.flatnonzero(full.t_nodes <= t_min)[-1], cfg.n_t - 1)
        assert short.t_nodes[0] <= t_min
        assert np.array_equal(short.t_nodes, full.t_nodes[first:])
        assert np.array_equal(short.values, full.values[first:])
        assert np.array_equal(short.y_nodes, full.y_nodes)

    def test_richardson_matches_the_full_march(self, any_model, monkeypatch):
        state = MarketState(t=0.5, s=100.0, a=60.0, regime=1)
        cfg = FdConfig(y_max=default_y_max(1.0, 0.6), n_y=50, n_t=50)
        got = richardson_order(any_model, 1.0, cfg, state)
        monkeypatch.setattr(fd, "fd_price", lambda m, T, c: fd_price(m, T, replace(c, t_min=None)))
        want = richardson_order(any_model, 1.0, cfg, state)
        assert got == want

    def test_non_finite_level_is_refused(self, desk_model, monkeypatch):
        # one mid-march solve returns a NaN; the march is checked once, at its end
        splu = fd.spla.splu

        class OneBadSolve:
            def __init__(self, matrix):
                self.lu, self.calls = splu(matrix), 0

            def solve(self, rhs):
                self.calls += 1
                out = self.lu.solve(rhs)
                if self.calls == 8:
                    out[3] = np.nan
                return out

        monkeypatch.setattr(fd.spla, "splu", OneBadSolve)
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            fd_price(desk_model, 1.0, FdConfig(n_y=30, n_t=30, t_min=0.5))

    def test_read_before_the_first_level_is_refused(self, desk_model):
        surf = fd_price(desk_model, 1.0, FdConfig(n_y=40, n_t=40, t_min=0.5))
        with pytest.raises(InterpolationOutOfRange, match="t="):
            surf.value(surf.t_nodes[0] - 0.01, 0.5, 0)

    @pytest.mark.parametrize("t_min", [-0.1, math.nan])
    def test_negative_t_min_is_rejected(self, t_min):
        with pytest.raises(ValidationError, match="t_min"):
            FdConfig(t_min=t_min)

    def test_t_min_past_expiry_is_rejected(self, desk_model):
        with pytest.raises(ValidationError, match="t_min"):
            fd_price(desk_model, 1.0, FdConfig(n_y=40, n_t=40, t_min=1.5))

    def test_state_at_expiry_still_prices(self, any_model):
        surf = fd_price(any_model, 1.0, FdConfig(n_y=40, n_t=40, t_min=1.0))
        assert len(surf.t_nodes) == 2
        state = MarketState(t=1.0, s=100.0, a=150.0, regime=0)
        assert surf.dollar_price(state) == pytest.approx(50.0, abs=1e-10)


class TestScheme:
    """The march is Crank-Nicolson with the Rannacher startup.

    The reference forms each level's right-hand side explicitly,
    ``v + dt/2 (A v)``, and solves with ``I - dt/2 A``; ``fd_price`` makes
    the same level as one solve, ``2 (I - dt/2 A)^-1 v - v``.
    """

    @pytest.mark.parametrize("n", [50, 200])
    def test_levels_match_the_explicit_right_hand_side(self, any_model, n):
        cfg, T = FdConfig(n_y=n, n_t=n), 1.0
        surf = fd_price(any_model, T, cfg)
        y, dt = surf.y_nodes, T / cfg.n_t
        a = fd._spatial_operator(any_model, y)
        lu = splu((sp.identity(a.shape[0]) - 0.5 * dt * a).tocsc())
        v = np.repeat(np.maximum(y / T - 1.0, 0.0), any_model.n_states)
        levels = [v]
        for step in range(cfg.n_t):
            if step < cfg.rannacher_steps:
                v = lu.solve(lu.solve(v))
            else:
                v = lu.solve(v + 0.5 * dt * (a @ v))
            levels.append(v)
        want = np.reshape(levels[::-1], (cfg.n_t + 1, y.size, -1)).transpose(0, 2, 1)
        assert surf.values.shape == want.shape
        gap = np.abs(surf.values - want).max()
        assert gap <= 1e-11 * np.abs(want).max(), f"max gap {gap:.3e}"


class TestOperator:
    """``_spatial_operator`` applied to a quadratic in y in each regime.

    Central differences are exact on quadratics, so the interior rows
    give the generator itself; the edges give their one-sided formulas.
    """

    def test_rows_discretise_the_generator(self, any_model):
        n_states, n = any_model.n_states, 41
        y = np.linspace(0.0, 3.0, n)
        h = y[1] - y[0]
        c = np.array([[0.7, -0.4, 1.3], [0.2, 0.9, -0.5], [1.1, 0.3, 0.25]])[:n_states]
        v = c[:, :1] + c[:, 1:2] * y + c[:, 2:] * y**2  # (n_states, n)
        dv, d2v = c[:, 1:2] + 2 * c[:, 2:] * y, 2 * c[:, 2:] * np.ones_like(y)
        got = (fd._spatial_operator(any_model, y) @ v.T.reshape(-1)).reshape(n, n_states).T
        r, q, sig = (np.array(x)[:, None] for x in (any_model.r, any_model.q, any_model.sigma))
        gen = any_model.gen_array()
        coupling = np.array([sum(gen[i, k] * (v[k] - v[i]) for k in range(n_states) if k != i)
                             for i in range(n_states)])
        adv = 1.0 - (r - q) * y
        want = adv * dv + 0.5 * sig**2 * y**2 * d2v - q * v + coupling
        # far field: the one-sided slope (V_N - V_{N-1}) / h, no curvature
        want[:, -1] = adv[:, -1] * (v[:, -1] - v[:, -2]) / h - q[:, 0] * v[:, -1] + coupling[:, -1]
        # y = 0: transport with the one-sided second-order slope
        slope0 = (-3 * v[:, 0] + 4 * v[:, 1] - v[:, 2]) / (2 * h)
        want[:, 0] = adv[:, 0] * slope0 - q[:, 0] * v[:, 0] + coupling[:, 0]
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


_rates = st.floats(0.0, 0.1)
_vols = st.floats(0.05, 0.8)
_switch = st.floats(0.0, 10.0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        params=st.tuples(_rates, _rates, _vols, _vols, _switch, _switch,
                         st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
        T=st.floats(0.1, 3.0),
        n_y=st.integers(3, 60),
        n_t=st.integers(3, 60),
    )
    def test_random_two_state_surfaces_are_monotone_in_y(self, params, T, n_y, n_t):
        surf = fd_price(two_state_model(*params), T, FdConfig(n_y=n_y, n_t=n_t))
        assert surf.monotone_in_y(), f"min step {np.diff(surf.values, axis=2).min()}"

    @settings(max_examples=25, deadline=None)
    @given(
        params=st.tuples(_rates, _rates, _vols, _vols, _switch, _switch,
                         st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
        T=st.floats(0.1, 3.0),
        t_share=st.floats(0.01, 1.0),
        y_share=st.floats(0.0, 0.99),
        s=st.floats(1.0, 1000.0),
        scale=st.floats(0.01, 100.0),
        regime=st.integers(0, 1),
    )
    def test_random_two_state_prices_are_homogeneous(self, params, T, t_share, y_share, s,
                                                      scale, regime):
        # the price at (scale s, scale a) is scale times the price at (s, a)
        surf = fd_price(two_state_model(*params), T, FdConfig(n_y=40, n_t=40))
        t, a = t_share * T, s * y_share * surf.y_nodes[-1]
        base = surf.dollar_price(MarketState(t=t, s=s, a=a, regime=regime))
        scaled = surf.dollar_price(MarketState(t=t, s=scale * s, a=scale * a, regime=regime))
        want = scale * base
        assert abs(scaled - want) <= 1e-10 * abs(want), f"{scaled} vs {want}"
