"""Tests for the Crank-Nicolson solver on the reduced one-factor PDE.

The floating put reduces to a single spatial variable y (running average
over spot). The characteristic at y = 0 flows into the domain, so the
treatment there is pure transport.
"""

import numpy as np
import pytest

from rsasian import (
    FdConfig,
    InterpolationOutOfRange,
    MarketState,
    default_y_max,
    fd_price,
    richardson_order,
    two_state_model,
)

INCEPTION = MarketState(t=0.0, s=100.0, a=0.0, regime=0)

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
