"""Tests for the Monte Carlo oracle.

Each path carries an exact chain (exponential clocks, next regime from
the generator row) and takes one exact lognormal step per base step,
built from that step's occupation times, so the only discretization is
the trapezoid rule for the running average. The chain and occupation
times are checked through ``mc_price`` itself, on near-zero-volatility
models whose discount factor has a matrix-exponential law.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import rsasian.mc
from rsasian import (
    AsianOptionSpec,
    MarketState,
    McConfig,
    McEstimate,
    OptionStyle,
    RegimeModel,
    ValidationError,
    black_scholes_put,
    mc_price,
    two_state_model,
)

FLOATING_PUT = AsianOptionSpec(style="floating_put", T=1.0)
INCEPTION = MarketState(t=0.0, s=100.0, a=0.0, regime=0)


class TestConfig:
    def test_needs_at_least_two_paths(self):
        with pytest.raises(ValidationError):
            McConfig(n_paths=1)

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(ValidationError):
            McConfig(n_paths=101, antithetic=True)


class TestEuropeanCheck:
    def test_single_regime_matches_black_scholes(self, flat_model):
        spec = AsianOptionSpec(style="european_put", T=1.0, K=100.0)
        cfg = McConfig(n_paths=100_000, n_steps=1, seed=17, antithetic=True)
        est = mc_price(spec, INCEPTION, flat_model, cfg)
        want = black_scholes_put(100.0, 100.0, 0.05, 0.3, 1.0)
        z = (est.price - want) / est.std_error
        assert abs(z) < 3.5, f"z = {z:.2f} (mc {est.price:.4f} vs bs {want:.4f})"

    def test_step_count_does_not_bias_european(self, flat_model):
        # the European put takes one exact step whatever n_steps, so the two
        # runs differ by their seeds and agreement is statistical
        spec = AsianOptionSpec(style="european_put", T=1.0, K=100.0)
        coarse = mc_price(
            spec, INCEPTION, flat_model, McConfig(n_paths=100_000, n_steps=1, seed=19)
        )
        fine = mc_price(
            spec, INCEPTION, flat_model, McConfig(n_paths=100_000, n_steps=64, seed=23)
        )
        se = np.hypot(coarse.std_error, fine.std_error)
        assert abs(coarse.price - fine.price) < 3.5 * se

    @pytest.mark.parametrize("state", [INCEPTION, MarketState(t=0.3, s=100.0, a=20.0, regime=1)],
                             ids=["inception", "mid_life"])
    def test_european_ignores_the_step_count(self, desk_model, state):
        # the payoff reads only S_T, so n_steps must not touch the stream
        spec = AsianOptionSpec(style="european_put", T=1.0, K=100.0)
        ests = [
            mc_price(spec, state, desk_model,
                     McConfig(n_paths=20_000, n_steps=n, seed=31, antithetic=True))
            for n in (1, 64, 252)
        ]
        assert ests[0] == ests[1] == ests[2], ests


class TestDeterminism:
    def test_same_seed_same_estimate(self, desk_model):
        cfg = McConfig(n_paths=20_000, n_steps=32, seed=5, antithetic=True)
        a = mc_price(FLOATING_PUT, INCEPTION, desk_model, cfg)
        b = mc_price(FLOATING_PUT, INCEPTION, desk_model, cfg)
        assert a == b, "same configuration must reproduce bit-identical output"

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # three batches, so the pool runs; at 50 switches a year the carried
        # clocks consume each batch's stream unevenly across paths
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 50.0, 50.0)
        cfg = McConfig(
            n_paths=2 * rsasian.mc._BATCH_SIZE + 2, n_steps=8, seed=5, antithetic=True
        )
        pools = []

        class CountingPool(rsasian.mc.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(rsasian.mc, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setenv("PRICER_THREADS", "1")
        serial = mc_price(FLOATING_PUT, INCEPTION, model, cfg)
        monkeypatch.setenv("PRICER_THREADS", "2")
        threaded = mc_price(FLOATING_PUT, INCEPTION, model, cfg)
        assert pools == [2], f"pool sizes used: {pools}"
        assert serial == threaded, (
            f"thread count changed the estimate: {serial} vs {threaded}"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(
        style=st.sampled_from(OptionStyle),
        regime=st.integers(0, 1),
        rates=st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0)),
        seed=st.integers(0, 2**63 - 1),
        antithetic=st.booleans(),
        threads=st.integers(2, 3),
        pairs=st.integers(65, 192),
    )
    # at the smallest normal rate the mean hold is 4.5e307 years; its draws must not overflow
    @example(style=OptionStyle.FLOATING_PUT, regime=0, rates=(2.2250738585072014e-308, 1.0),
             seed=1, antithetic=False, threads=2, pairs=65)
    def test_thread_count_never_changes_the_estimate(self, style, regime, rates, seed,
                                                     antithetic, threads, pairs):
        # 64-path batches, so 130-384 paths make 3-6 of them
        model = two_state_model(0.05, 0.03, 0.3, 0.2, *rates)
        spec = AsianOptionSpec(style=style, T=1.0, K=100.0)
        state = MarketState(t=0.0, s=100.0, a=0.0, regime=regime)
        cfg = McConfig(n_paths=2 * pairs, n_steps=8, seed=seed, antithetic=antithetic)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rsasian.mc, "_BATCH_SIZE", 64)
            mp.setenv("PRICER_THREADS", "1")
            serial = mc_price(spec, state, model, cfg)
            mp.setenv("PRICER_THREADS", str(threads))
            threaded = mc_price(spec, state, model, cfg)
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(serial) == repr(threaded)
        assert len(serial.terminal_price) == 2

    def test_different_seeds_differ(self, desk_model):
        a = mc_price(FLOATING_PUT, INCEPTION, desk_model, McConfig(n_paths=4000, seed=1))
        b = mc_price(FLOATING_PUT, INCEPTION, desk_model, McConfig(n_paths=4000, seed=2))
        assert a.price != b.price


class TestVarianceReduction:
    def test_antithetic_shrinks_the_error_bar(self, desk_model):
        plain = mc_price(
            FLOATING_PUT, INCEPTION, desk_model, McConfig(n_paths=40_000, seed=7)
        )
        anti = mc_price(
            FLOATING_PUT,
            INCEPTION,
            desk_model,
            McConfig(n_paths=40_000, seed=7, antithetic=True),
        )
        assert anti.std_error < plain.std_error, (
            f"antithetic {anti.std_error:.5f} !< plain {plain.std_error:.5f}"
        )


class TestTerminalSplit:
    def test_split_sums_to_price(self, desk_model):
        cfg = McConfig(n_paths=20_000, n_steps=32, seed=5, antithetic=True)
        est = mc_price(FLOATING_PUT, INCEPTION, desk_model, cfg)
        assert len(est.terminal_price) == len(est.terminal_se) == 2
        assert math.isclose(sum(est.terminal_price), est.price, rel_tol=1e-12), (
            f"{est.terminal_price} vs {est.price}"
        )
        # switching at rate 1 over a year leaves mass in both regimes
        assert min(est.terminal_price) > 0.0
        assert min(est.terminal_se) > 0.0

    def test_no_switching_keeps_the_mass_in_the_starting_regime(self):
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 0.0, 0.0)
        state = MarketState(t=0.0, s=100.0, a=0.0, regime=1)
        cfg = McConfig(n_paths=20_000, n_steps=32, seed=5, antithetic=True)
        est = mc_price(FLOATING_PUT, state, model, cfg)
        assert est.terminal_price[0] == 0.0
        assert est.terminal_se[0] == 0.0
        assert math.isclose(est.terminal_price[1], est.price, rel_tol=1e-12)
        assert math.isclose(est.terminal_se[1], est.std_error, rel_tol=1e-9)


class TestStructure:
    def test_expiry_state_prices_exactly(self, desk_model):
        state = MarketState(t=1.0, s=90.0, a=120.0, regime=1)
        est = mc_price(FLOATING_PUT, state, desk_model, McConfig(n_paths=1000, seed=3))
        assert est == McEstimate(
            price=30.0,
            std_error=0.0,
            n_paths=1000,
            terminal_price=(0.0, 30.0),
            terminal_se=(0.0, 0.0),
        )

    def test_scaling_spot_and_average_scales_the_price(self, desk_model):
        # floating payoffs are degree-one homogeneous and a shared seed makes
        # the scaled run a deterministic rescaling of the base run
        state = MarketState(t=0.5, s=100.0, a=50.0, regime=0)
        scaled = MarketState(t=0.5, s=200.0, a=100.0, regime=0)
        cfg = McConfig(n_paths=20_000, n_steps=32, seed=29, antithetic=True)
        base = mc_price(FLOATING_PUT, state, desk_model, cfg)
        double = mc_price(FLOATING_PUT, scaled, desk_model, cfg)
        assert np.isclose(double.price, 2.0 * base.price, rtol=1e-12), (
            f"{double.price} vs 2 * {base.price}"
        )


# Near-zero volatility and q = 0 make D * S_T = S_0 on every path (to about
# 1e-6 relative), where D = exp(-integral of r) is the path's discount
# factor. A European put struck above every reachable spot then pays
# K * D - S_0, so the estimate and its terminal split measure E[D] and
# E[D * 1{X_T = j}], whose exact values are the row sum and the entries of
# expm((G - diag r) * T).
_TINY_VOL = 1e-6
_CHAIN_MODELS = {
    "rate_1": two_state_model(0.12, 0.01, _TINY_VOL, _TINY_VOL, 1.0, 1.0),
    "rate_50": two_state_model(0.12, 0.01, _TINY_VOL, _TINY_VOL, 50.0, 50.0),
    "three_regimes": RegimeModel(
        r=(0.12, 0.01, 0.06),
        sigma=(_TINY_VOL,) * 3,
        gen=((-3.0, 1.0, 2.0), (4.0, -5.0, 1.0), (0.5, 2.5, -3.0)),
        q=(0.0, 0.0, 0.0),
    ),
}


class TestChainLaw:
    @pytest.mark.parametrize("n_steps", [1, 252])
    @pytest.mark.parametrize("name", sorted(_CHAIN_MODELS))
    def test_discount_and_terminal_regime_law(self, name, n_steps):
        model = _CHAIN_MODELS[name]
        s0, strike = 100.0, 200.0
        spec = AsianOptionSpec(style="european_put", T=1.0, K=strike)
        est = mc_price(spec, INCEPTION, model, McConfig(40_000, n_steps, seed=41))
        gen = model.gen_array()
        disc_law = expm((gen - np.diag(model.r_array())) * spec.T)[0]
        regime_law = expm(gen * spec.T)[0]
        zs = [((est.price + s0) / strike - disc_law.sum()) / (est.std_error / strike)]
        for j in range(model.n_states):
            got = (est.terminal_price[j] + s0 * regime_law[j]) / strike
            zs.append((got - disc_law[j]) / (est.terminal_se[j] / strike))
        assert max(abs(z) for z in zs) < 4.0, f"z = {np.round(zs, 2)}"

    @pytest.mark.parametrize("name", sorted(_CHAIN_MODELS))
    def test_average_law_on_the_base_grid(self, name):
        # A fixed put struck above every reachable average pays K * D - D * A / T,
        # and D * S_t = S_0 * exp(-integral of r over [t, T]) given the chain, so
        # E[D * S_t * 1{X_T = j}] = S_0 * [expm(G t) expm((G - diag r)(T - t))]_0j.
        # The reference sums these by the trapezoid rule on the MC base grid,
        # so it carries no discretization bias and the many-step loop is tested.
        model = _CHAIN_MODELS[name]
        s0, strike, n_steps = 100.0, 200.0, 252
        spec = AsianOptionSpec(style="fixed_put", T=1.0, K=strike)
        est = mc_price(spec, INCEPTION, model, McConfig(40_000, n_steps, seed=43))
        gen = model.gen_array()
        killed = gen - np.diag(model.r_array())
        grid = np.linspace(0.0, spec.T, n_steps + 1)
        weights = np.full(grid.size, spec.T / n_steps)
        weights[[0, -1]] *= 0.5
        avg_law = sum(w * (expm(gen * t) @ expm(killed * (spec.T - t)))[0]
                      for w, t in zip(weights, grid))
        want = strike * expm(killed * spec.T)[0] - s0 / spec.T * avg_law
        zs = [(est.price - want.sum()) / est.std_error]
        for j in range(model.n_states):
            zs.append((est.terminal_price[j] - want[j]) / est.terminal_se[j])
        assert max(abs(z) for z in zs) < 4.0, f"z = {np.round(zs, 2)}"
