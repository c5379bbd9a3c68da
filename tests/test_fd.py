"""Tests for the Crank-Nicolson solver on the reduced one-factor PDE.

The floating put reduces to a single spatial variable y (running average
over spot). The characteristic at y = 0 flows into the domain, so the
treatment there is pure transport.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import rsasian
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
from rsasian import cli, fd, ham
from rsasian.model import _SURFACES_CACHE_SIZE

INCEPTION = MarketState(t=0.0, s=100.0, a=0.0, regime=0)

THREE_STATE = RegimeModel(
    r=(0.05, 0.03, 0.01),
    sigma=(0.3, 0.2, 0.4),
    gen=((-1.5, 1.0, 0.5), (0.3, -0.7, 0.4), (2.0, 1.0, -3.0)),
    q=(0.01, 0.0, 0.02),
)

# desk inception, regime 0: the order-2 Richardson limit P + (P - P_3200) / 3 of the
# 1600, 3200 and 6400 grids (n_y = n_t, y_max = 4), P = P_6400; P_3200 reads 4.977686
DESK_REFERENCE = 4.977741


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
        # 4 max(T, y0): the inception buffer, kept around a state past the kink
        for (T, y0), want in {(1.0, 0.0): 4.0, (1.0, 0.75): 4.0, (1.0, 2.0): 8.0,
                              (0.25, 0.1): 1.0}.items():
            assert default_y_max(T, y0) == want, (T, y0)
        assert default_y_max(1.0) == 4.0

    @pytest.mark.parametrize("params", [
        (0.05, 0.03, 0.3, 0.2, 1.0, 1.0),
        (0.05, 0.03, 0.3, 0.2, 50.0, 50.0),
        (0.08, 0.01, 0.1, 0.5, 3.0, 0.5),
        (0.05, 0.03, 0.6, 0.45, 1.0, 1.0),
        (0.02, 0.02, 0.06, 0.06, 1.0, 1.0),
    ], ids=["desk", "rate_50", "large_gamma", "high_vol", "low_vol"])
    @pytest.mark.parametrize("y0", [0.5, 1.0, 1.5])
    def test_default_domain_truncates_no_mid_life_price(self, params, y0):
        # same grid step on the default domain and on the wider 4 y0 + 4T one
        # it replaced: the nodes past the default bound move no price
        model, step = two_state_model(*params), 0.01
        surfaces = [
            fd_price(model, 1.0, FdConfig(y_max=y_max, n_y=round(y_max / step), n_t=100,
                                          t_min=0.5))
            for y_max in (default_y_max(1.0, y0), 4.0 * y0 + 4.0)
        ]
        assert surfaces[0].y_nodes[1] == surfaces[1].y_nodes[1] == step
        for regime in (0, 1):
            state = MarketState(t=0.5, s=100.0, a=100.0 * y0, regime=regime)
            got, wide = (surf.dollar_price(state) for surf in surfaces)
            assert abs(got - wide) <= 1e-8, (regime, got, wide)


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

    @pytest.mark.parametrize("c,k", [(5.0, 3.0), (4.977741, -0.7), (-2.5, 1e3)])
    def test_richardson_limit_is_exact_on_an_h_squared_sequence(self, c, k):
        prices = [c + k * h**2 for h in (0.1, 0.05, 0.025)]
        limit, estimate = fd.richardson_limit(prices)
        assert limit == pytest.approx(c, abs=1e-12 * max(1.0, abs(k)))
        assert estimate <= 1e-12 * max(1.0, abs(k))

    def test_richardson_limit_is_exported(self):
        assert rsasian.richardson_limit is fd.richardson_limit
        assert "richardson_limit" in rsasian.__all__

    def test_default_compare_row_lies_within_its_estimate(self, tmp_path):
        # n = 800 (grids 200, 400, 800): the limit sits 8.2e-5 off the reference,
        # inside an estimate of 1.26e-3; the finest grid alone sits 8.7e-4 off
        report = tmp_path / "compare.json"
        config = {
            "schema_version": 1,
            "model": {"r": [0.05, 0.03], "sigma": [0.3, 0.2], "gen": [[-1.0, 1.0], [1.0, -1.0]]},
            "option": {"style": "floating_put", "T": 1.0},
            "state": {"t": 0.0, "s": 100.0, "a": 0.0, "regime": 0},
            "method": {"compare": {"fd": {}}},
            "output": {"format": "json", "path": str(report)},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert cli.main(["compare", "--config", str(tmp_path / "cfg.json")]) == 0
        (row,) = json.loads(report.read_text())["rows"]
        assert row["diagnostics"]["finest_n_y"] == row["diagnostics"]["finest_n_t"] == 800
        assert abs(row["price"] - DESK_REFERENCE) <= row["error_estimate"], row

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
    def test_startup_smoothing_is_a_small_correction(self, desk_model, desk_surface,
                                                     monkeypatch):
        monkeypatch.setattr(fd, "_STARTUP_STEPS", 0)
        raw = fd_price(desk_model, 1.0, FdConfig(n_y=200, n_t=200))
        a = raw.dollar_price(INCEPTION)
        b = desk_surface.dollar_price(INCEPTION)
        assert np.isclose(a, b, rtol=2e-3), f"no-smoothing {a} vs default {b}"


@pytest.fixture(params=["desk", "three_state"])
def any_model(request, desk_model):
    return desk_model if request.param == "desk" else THREE_STATE


class TestEarlyStop:
    """``t_min`` stops the march at the last level at or below it and keeps
    that level and the next; ``t_min=None`` keeps every level."""

    @pytest.mark.parametrize("t_min", [0.0, 0.37, 0.5, 1.0])
    def test_kept_levels_are_the_full_march_sliced(self, any_model, t_min):
        cfg = FdConfig(n_y=60, n_t=100)
        full = fd_price(any_model, 1.0, cfg)
        short = fd_price(any_model, 1.0, replace(cfg, t_min=t_min))
        first = min(np.flatnonzero(full.t_nodes <= t_min)[-1], cfg.n_t - 1)
        assert short.t_nodes[0] <= t_min <= short.t_nodes[1]
        assert np.array_equal(short.t_nodes, full.t_nodes[first:first + 2])
        assert np.array_equal(short.values, full.values[first:first + 2])
        assert np.array_equal(short.y_nodes, full.y_nodes)
        for regime in range(any_model.n_states):
            for y in (0.0, 0.61, 1.3):
                assert short.value(t_min, y, regime) == full.value(t_min, y, regime)

    def test_state_read_memory_does_not_grow_with_n_t(self, desk_model):
        # keeping every level of the 1600 x 1600 march takes 41 MB; a state read keeps two
        fd_price(desk_model, 1.0, FdConfig(n_y=10, n_t=10))  # imports done untraced
        cfg = FdConfig(n_y=1600, n_t=1600, t_min=0.0)
        tracemalloc.start()
        try:
            fd_price(desk_model, 1.0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"

    def test_richardson_matches_the_full_march(self, any_model, monkeypatch, cold_surfaces):
        state = MarketState(t=0.5, s=100.0, a=60.0, regime=1)
        cfg = FdConfig(y_max=default_y_max(1.0, 0.6), n_y=50, n_t=50)
        got = richardson_order(any_model, 1.0, cfg, state)
        full = []
        monkeypatch.setattr(fd, "fd_price", lambda m, T, c: full.append(c) or
                            fd_price(m, T, replace(c, t_min=None)))
        cold_surfaces.clear()  # else the cached grids answer and the full march never runs
        want = richardson_order(any_model, 1.0, cfg, state)
        assert len(full) == 3
        assert got == want

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "inf", "-inf", "inf_and_-inf"])
    def test_non_finite_level_is_refused(self, desk_model, monkeypatch, bad):
        # the last solve of the march returns the injected entries, so no later
        # level can catch them; an inf and a -inf sum to NaN
        banded_lu = fd._banded_lu
        cfg = FdConfig(n_y=30, n_t=30, t_min=0.5)
        # levels 29 down to 15, plus one more solve per startup step
        last = 15 + fd._STARTUP_STEPS

        def one_bad_solve(band, kl, ku):
            solve, calls = banded_lu(band, kl, ku), []

            def bad_solve(x):
                calls.append(1)
                solve(x)
                if len(calls) == last:
                    x[3:3 + len(bad)] = bad
            return bad_solve

        monkeypatch.setattr(fd, "_banded_lu", one_bad_solve)
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            fd_price(desk_model, 1.0, cfg)

    def test_nan_in_an_overwritten_level_is_refused(self, desk_model, monkeypatch):
        # the second startup half-step puts a NaN into level n_t - 1, and every
        # solve is handed a cleaned right-hand side, so no later level inherits
        # it; a read at 0.5 keeps levels 15 and 16, so the NaN is caught only
        # if each level is checked as it is written
        banded_lu = fd._banded_lu

        def bad_then_clean(band, kl, ku):
            solve, calls = banded_lu(band, kl, ku), []

            def bad(x):
                calls.append(1)
                x[:] = np.nan_to_num(x)
                solve(x)
                if len(calls) == 2:
                    x[3] = np.nan
            return bad

        monkeypatch.setattr(fd, "_banded_lu", bad_then_clean)
        cfg = FdConfig(n_y=30, n_t=30, t_min=0.5)
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            fd_price(desk_model, 1.0, cfg)

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


class TestSurfaceCache:
    """:func:`richardson_order` reads its three fitted grids through the surface cache the
    series engine shares: a repeated read marches nothing, any change to the fitted grid
    marches again, and the cache stays within its bound."""

    STATE = MarketState(t=0.5, s=100.0, a=60.0, regime=0)
    CFG = FdConfig(n_y=20, n_t=20)

    @pytest.fixture()
    def marches(self, monkeypatch, cold_surfaces):
        """The grid of each ``fd_price`` call, made with the cache emptied."""
        grids = []
        monkeypatch.setattr(fd, "fd_price", lambda m, T, c: grids.append(c) or fd_price(m, T, c))
        return grids

    def test_a_repeated_read_marches_nothing(self, desk_model, marches, monkeypatch):
        first = richardson_order(desk_model, 1.0, self.CFG, self.STATE)
        assert len(marches) == 3
        monkeypatch.setattr(fd, "fd_price", lambda *args: pytest.fail("a grid was marched"))
        assert richardson_order(desk_model, 1.0, self.CFG, self.STATE) == first
        # a/s below T and another regime fit the same grids
        other = MarketState(t=0.5, s=50.0, a=40.0, regime=1)
        assert richardson_order(desk_model, 1.0, self.CFG, other)[1] == \
            [fd_price(desk_model, 1.0, grid).dollar_price(other) for grid in marches]

    @pytest.mark.parametrize("change", [
        {"state": MarketState(t=0.6, s=100.0, a=60.0, regime=0)},
        {"state": MarketState(t=0.5, s=100.0, a=150.0, regime=0)},  # a/s > T: wider y_max
        {"cfg": FdConfig(n_y=24, n_t=20)},
        {"cfg": FdConfig(n_y=20, n_t=24)},
        {"model": two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 2.0)},
        {"T": 1.2},
    ], ids=["t", "y_max", "n_y", "n_t", "model", "T"])
    def test_a_changed_grid_marches_again(self, desk_model, marches, change):
        richardson_order(desk_model, 1.0, self.CFG, self.STATE)
        args = {"model": desk_model, "T": 1.0, "cfg": self.CFG, "state": self.STATE, **change}
        richardson_order(**args)
        assert len(marches) == 6

    def test_a_cleared_cache_marches_again(self, desk_model, marches):
        first = richardson_order(desk_model, 1.0, self.CFG, self.STATE)
        ham._SURFACES_CACHE.clear()
        assert richardson_order(desk_model, 1.0, self.CFG, self.STATE) == first
        assert len(marches) == 6

    def test_a_cached_surface_is_read_only(self, desk_model, cold_surfaces):
        first = richardson_order(desk_model, 1.0, self.CFG, self.STATE)
        assert len(cold_surfaces) == 3
        for surf in cold_surfaces.values():
            for arr in (surf.t_nodes, surf.y_nodes, surf.values):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        assert richardson_order(desk_model, 1.0, self.CFG, self.STATE) == first

    def test_mixed_entries_stay_within_the_bound(self, desk_model, marches, build_calls):
        # FIFO would drop the series surface at the third FD read; each read moves it
        # to the newest slot, so the FD grids read longest ago go first
        hcfg = ham.HamConfig(m_trunc=1, n_z=41, n_u=5)
        series = ham.series_surfaces(desk_model, 1.0, hcfg)
        times = (0.1, 0.2, 0.3, 0.4, 0.5)
        for t in times:
            richardson_order(desk_model, 1.0, self.CFG, replace(self.STATE, t=t))
            assert len(ham._SURFACES_CACHE) <= _SURFACES_CACHE_SIZE
            assert ham.series_surfaces(desk_model, 1.0, hcfg) is series
        assert len(ham._SURFACES_CACHE) == _SURFACES_CACHE_SIZE
        assert (len(build_calls), len(marches)) == (1, 3 * len(times))
        richardson_order(desk_model, 1.0, self.CFG, replace(self.STATE, t=times[-1]))
        assert len(marches) == 3 * len(times), "the newest grids are kept"
        richardson_order(desk_model, 1.0, self.CFG, replace(self.STATE, t=times[0]))
        assert len(marches) == 3 * len(times) + 3, "the oldest grids were dropped"


class TestForState:
    """``FdConfig.for_state`` fits a grid to a state: the march stops at
    ``state.t``, an unset ``y_max`` is ``default_y_max(T, a/s)``, and a state
    past the last node the march builds is refused before any march."""

    PAST_4T = MarketState(t=0.5, s=100.0, a=500.0, regime=0)  # a/s = 5

    def test_time_and_domain_follow_the_state(self):
        cfg = FdConfig(n_y=50, n_t=50, t_min=0.9).for_state(1.0, self.PAST_4T)
        assert (cfg.t_min, cfg.y_max, cfg.n_y, cfg.n_t) == (0.5, 20.0, 50, 50)
        assert FdConfig(y_max=5.5).for_state(1.0, self.PAST_4T).y_max == 5.5
        assert FdConfig(t_min=0.3).for_state(1.0, INCEPTION) == FdConfig(y_max=4.0, t_min=0.0)

    def test_richardson_prices_a_state_past_four_t_as_the_cli_does(self, desk_model,
                                                                   tmp_path):
        # the library once left an unset y_max at 4T, short of a/s = 5, and refused
        _, prices = richardson_order(desk_model, 1.0, FdConfig(n_y=50, n_t=50), self.PAST_4T)
        report = tmp_path / "compare.json"
        config = {
            "schema_version": 1,
            "model": {"r": [0.05, 0.03], "sigma": [0.3, 0.2], "gen": [[-1.0, 1.0], [1.0, -1.0]]},
            "option": {"style": "floating_put", "T": 1.0},
            "state": {"t": 0.5, "s": 100.0, "a": 500.0, "regime": 0},
            "method": {"compare": {"fd": {"n_y": 200, "n_t": 200}}},
            "output": {"format": "json", "path": str(report)},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert cli.main(["compare", "--config", str(tmp_path / "cfg.json")]) == 0
        (row,) = json.loads(report.read_text())["rows"]
        assert prices == row["diagnostics"]["grid_prices"]

    @pytest.mark.parametrize("y_max,a,last", [(2.0, 300.0, 2.0), (4.2, 418.0, 50 * (1 / 12))],
                             ids=["past_y_max", "past_the_snapped_node"])
    def test_a_state_past_the_last_node_is_refused(self, desk_model, y_max, a, last):
        # at y_max = 4.2 and n_y = 50 the kink y = 1 snaps onto node 12, so the
        # last node is 50 h = 4.1667 with h = 1/12, below y_max and below a/s = 4.18
        cfg = FdConfig(y_max=y_max, n_y=50, n_t=50)
        assert fd_price(desk_model, 1.0, cfg).y_nodes[-1] == last
        state = MarketState(t=0.5, s=100.0, a=a, regime=0)
        with pytest.raises(ValidationError,
                           match=rf"^a/s={a / 100.0} lies past the last grid node "
                                 rf"y={last} \(y_max={y_max}\)$"):
            cfg.for_state(1.0, state)
        at_last = MarketState(t=0.5, s=1.0, a=last, regime=0)
        assert cfg.for_state(1.0, at_last).y_max == y_max


def generator_matrix(model, y):
    """``fd._generator_band`` expanded into a sparse matrix: band row ``kl + ku - o``
    holds diagonal ``o``, indexed by column."""
    band, kl, ku = fd._generator_band(model, y)
    offsets = np.arange(ku, -kl - 1, -1)
    return sp.dia_matrix((band[kl:], offsets), shape=(band.shape[1],) * 2).tocsr()


def explicit_rhs_levels(model, T, cfg, y):
    """Every level of the march, each right-hand side formed as ``v + dt/2 (A v)``
    and solved with SuperLU; shaped like ``FdSurfaces.values``."""
    dt = T / cfg.n_t
    a = generator_matrix(model, y)
    lu = splu((sp.identity(a.shape[0]) - 0.5 * dt * a).tocsc())
    v = np.repeat(np.maximum(y / T - 1.0, 0.0), model.n_states)
    levels = [v]
    for step in range(cfg.n_t):
        if step < fd._STARTUP_STEPS:
            v = lu.solve(lu.solve(v))
        else:
            v = lu.solve(v + 0.5 * dt * (a @ v))
        levels.append(v)
    return np.reshape(levels[::-1], (cfg.n_t + 1, y.size, -1)).transpose(0, 2, 1)


class TestScheme:
    """The march is Crank-Nicolson with the Rannacher startup.

    The reference forms each level's right-hand side explicitly,
    ``v + dt/2 (A v)``, and solves with ``I - dt/2 A`` by SuperLU;
    ``fd_price`` makes the same level as one banded LU solve,
    ``2 (I - dt/2 A)^-1 v - v``.
    """

    @pytest.mark.parametrize("n", [50, 200])
    def test_levels_match_the_explicit_right_hand_side(self, any_model, n):
        cfg, T = FdConfig(n_y=n, n_t=n), 1.0
        surf = fd_price(any_model, T, cfg)
        want = explicit_rhs_levels(any_model, T, cfg, surf.y_nodes)
        assert surf.values.shape == want.shape
        gap = np.abs(surf.values - want).max()
        assert gap <= 1e-11 * np.abs(want).max(), f"max gap {gap:.3e}"

    def test_row_exchanges_take_the_pivoted_solve(self, monkeypatch):
        # fast switching at high volatility on a coarse time grid: dgbtrf
        # exchanges rows, so every level goes through dgbtrs and its pivots
        model = two_state_model(0.05, 0.4, 0.69, 0.95, 8.5, 18.8)
        cfg, T = FdConfig(y_max=4.0, n_y=41, n_t=6), 1.0
        pivots, dgbtrf = [], scipy.linalg.lapack.dgbtrf

        def spy(*args, **kwargs):
            lu, piv, info = dgbtrf(*args, **kwargs)
            pivots.append(piv.copy())
            return lu, piv, info

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", spy)
        surf = fd_price(model, T, cfg)
        (piv,) = pivots
        assert (piv != np.arange(piv.size)).any(), "no rows exchanged"
        want = explicit_rhs_levels(model, T, cfg, surf.y_nodes)
        gap = np.abs(surf.values - want).max()
        assert gap <= 1e-11 * np.abs(want).max(), f"max gap {gap:.3e}"

    @pytest.mark.parametrize("name,cfg", [
        ("desk", FdConfig(n_y=40, n_t=40)),
        ("desk", FdConfig(n_y=40, n_t=40, t_min=0.5)),
        ("rate_50", FdConfig(n_y=40, n_t=40)),
        ("pivoted", FdConfig(y_max=4.0, n_y=41, n_t=6)),
    ], ids=["desk", "desk_t_min", "rate_50", "pivoted"])
    def test_solving_twice_v_gives_the_doubled_solve_bits(self, desk_model, name, cfg):
        # reference: each Crank-Nicolson level as v copied, solved, doubled and
        # v subtracted; the pivoted model's levels go through dgbtrs
        model = {"desk": desk_model,
                 "rate_50": two_state_model(0.05, 0.03, 0.3, 0.2, 50.0, 50.0),
                 "pivoted": two_state_model(0.05, 0.4, 0.69, 0.95, 8.5, 18.8)}[name]
        y = fd._y_nodes(1.0, cfg)
        t_nodes = np.linspace(0.0, 1.0, cfg.n_t + 1)
        t_min = 0.0 if cfg.t_min is None else cfg.t_min
        first = min(int(np.searchsorted(t_nodes, t_min, side="right")) - 1, cfg.n_t - 1)
        band, kl, ku = fd._generator_band(model, y)
        band *= -0.5 / cfg.n_t
        band[kl + ku] += 1.0
        solve = fd._banded_lu(band, kl, ku)
        v = np.repeat(np.maximum(y - 1.0, 0.0), 2)
        levels = [v]
        for level in range(cfg.n_t - 1, first - 1, -1):
            out = v.copy()
            solve(out)
            if level >= cfg.n_t - fd._STARTUP_STEPS:
                solve(out)
            else:
                out *= 2.0
                out -= v
            levels.append(out)
            v = out
        want = np.reshape(levels[::-1][:None if cfg.t_min is None else 2], (-1, y.size, 2))
        assert np.array_equal(fd_price(model, 1.0, cfg).values, want.transpose(0, 2, 1))

    def test_zero_pivot_is_refused(self, desk_model, monkeypatch):
        dgbtrf = scipy.linalg.lapack.dgbtrf
        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf",
                            lambda *args, **kwargs: (*dgbtrf(*args, **kwargs)[:2], 5))
        with pytest.raises(LinearSolveFailure, match="pivot 4 is zero"):
            fd_price(desk_model, 1.0, FdConfig(n_y=30, n_t=30))


class TestOperator:
    """The generator band, expanded by ``generator_matrix``, applied to a
    quadratic in y in each regime.

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
        got = (generator_matrix(any_model, y) @ v.T.reshape(-1)).reshape(n, n_states).T
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
