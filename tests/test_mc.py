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

    def test_default_path_count(self):
        assert McConfig().n_paths == 100_000

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

    @pytest.mark.parametrize("threads", ["two", "", "0", "-1", "1.5", " 2"])
    def test_malformed_thread_count_is_refused(self, desk_model, monkeypatch, threads):
        monkeypatch.setenv("PRICER_THREADS", threads)
        with pytest.raises(ValidationError, match=rf"PRICER_THREADS={threads!r} is not"):
            mc_price(FLOATING_PUT, INCEPTION, desk_model, McConfig(n_paths=100, n_steps=2))

    def test_different_seeds_differ(self, desk_model):
        a = mc_price(FLOATING_PUT, INCEPTION, desk_model, McConfig(n_paths=4000, seed=1))
        b = mc_price(FLOATING_PUT, INCEPTION, desk_model, McConfig(n_paths=4000, seed=2))
        assert a.price != b.price


# Recorded estimates: a change to the path stepping that should leave the
# random stream alone must reproduce them, and repr round-trips every float,
# so equal reprs are equal bits. Each model comes with its own state: the
# desk at inception, the others mid-life.
_PIN_MODELS = {
    "desk": (two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0), INCEPTION),
    "rate_50": (two_state_model(0.05, 0.03, 0.3, 0.2, 50.0, 50.0, 0.02, 0.01),
                MarketState(t=0.5, s=100.0, a=45.0, regime=1)),
    "three_regimes": (RegimeModel(r=(0.05, 0.03, 0.01), sigma=(0.3, 0.2, 0.4),
                                  gen=((-1.5, 1.0, 0.5), (0.3, -0.7, 0.4), (2.0, 1.0, -3.0)),
                                  q=(0.01, 0.0, 0.02)),
                      MarketState(t=0.25, s=95.0, a=20.0, regime=2)),
    # regime 1 absorbs: its paths carry an infinite clock through the switch step
    "absorbing": (RegimeModel(r=(0.05, 0.03), sigma=(0.3, 0.2), gen=((-2.0, 2.0), (0.0, 0.0)),
                              q=(0.01, 0.0)),
                  INCEPTION),
}
_PIN_STRIKES = {"floating_put": None, "floating_call": None, "fixed_put": 100.0,
                "european_put": 100.0}
# (model, style, antithetic, n_paths, batch size or None for the default) -> repr
_PINNED = {
    ("desk", "floating_put", False, 200, None): (
        "McEstimate(price=5.183642318939617, std_error=0.4932603618003452, n_paths=200, "
        "terminal_price=(2.991717183922857, 2.1919251350167595), "
        "terminal_se=(0.4393347496828559, 0.3408760651840854))"),
    ("desk", "floating_put", True, 200, None): (
        "McEstimate(price=5.256353288148603, std_error=0.3267206784872274, n_paths=200, "
        "terminal_price=(3.358277321134557, 1.898075967014047), "
        "terminal_se=(0.37203068675396883, 0.3116289616507924))"),
    ("desk", "floating_call", False, 200, None): (
        "McEstimate(price=6.712058242204613, std_error=0.8055874053263765, n_paths=200, "
        "terminal_price=(4.270275641553888, 2.441782600650726), "
        "terminal_se=(0.7245010343750705, 0.47839747128705135))"),
    ("desk", "floating_call", True, 200, None): (
        "McEstimate(price=7.086182691212897, std_error=0.5322881715755563, n_paths=200, "
        "terminal_price=(4.499481489813118, 2.586701201399779), "
        "terminal_se=(0.5705233303151586, 0.4392737031326224))"),
    ("desk", "fixed_put", False, 200, None): (
        "McEstimate(price=6.0845573509559765, std_error=0.5964267008048663, n_paths=200, "
        "terminal_price=(3.417985693429689, 2.666571657526289), "
        "terminal_se=(0.5024874318855107, 0.44139804395154714))"),
    ("desk", "fixed_put", True, 200, None): (
        "McEstimate(price=5.474608722508087, std_error=0.37412755556745214, n_paths=200, "
        "terminal_price=(3.195616788490567, 2.27899193401752), "
        "terminal_se=(0.37416410938915007, 0.3835356755991477))"),
    ("desk", "european_put", False, 200, None): (
        "McEstimate(price=8.5823385993615, std_error=0.8630975884496934, n_paths=200, "
        "terminal_price=(4.831595262284126, 3.750743337077373), "
        "terminal_se=(0.7409511104536052, 0.6148660776556509))"),
    ("desk", "european_put", True, 200, None): (
        "McEstimate(price=8.301757685151273, std_error=0.660024777062701, n_paths=200, "
        "terminal_price=(4.820232657253218, 3.481525027898057), "
        "terminal_se=(0.6876315952226546, 0.5493823468156143))"),
    ("rate_50", "floating_put", False, 200, None): (
        "McEstimate(price=3.218795102605717, std_error=0.3558550356653634, n_paths=200, "
        "terminal_price=(1.5043952252681458, 1.714399877337571), "
        "terminal_se=(0.2587150480243045, 0.2926094410715388))"),
    ("rate_50", "floating_put", True, 200, None): (
        "McEstimate(price=2.962546051142473, std_error=0.28410271581499325, n_paths=200, "
        "terminal_price=(1.450732489071342, 1.5118135620711328), "
        "terminal_se=(0.22286899503226104, 0.2745024288005048))"),
    ("rate_50", "floating_call", False, 200, None): (
        "McEstimate(price=7.692567054554563, std_error=0.7630110540653713, n_paths=200, "
        "terminal_price=(3.7481675127359146, 3.9443995418186484), "
        "terminal_se=(0.5390725528214123, 0.6634548076329383))"),
    ("rate_50", "floating_call", True, 200, None): (
        "McEstimate(price=8.823053619054736, std_error=0.46495273944979826, n_paths=200, "
        "terminal_price=(4.1641129983703795, 4.658940620684358), "
        "terminal_se=(0.5014103038636185, 0.5972395873701131))"),
    ("rate_50", "fixed_put", False, 200, None): (
        "McEstimate(price=5.50510631989156, std_error=0.2837822882176655, n_paths=200, "
        "terminal_price=(2.668853939792329, 2.836252380099231), "
        "terminal_se=(0.2718764362493876, 0.28756112910018594))"),
    ("rate_50", "fixed_put", True, 200, None): (
        "McEstimate(price=5.196584980821524, std_error=0.07200336108420947, n_paths=200, "
        "terminal_price=(2.5060095638000504, 2.6905754170214737), "
        "terminal_se=(0.26626574541398146, 0.26552087365284566))"),
    ("rate_50", "european_put", False, 200, None): (
        "McEstimate(price=6.35689674187862, std_error=0.6279831226804382, n_paths=200, "
        "terminal_price=(2.865892502010762, 3.4910042398678582), "
        "terminal_se=(0.4773715607600655, 0.5167498234422703))"),
    ("rate_50", "european_put", True, 200, None): (
        "McEstimate(price=6.812209976562066, std_error=0.4557912391834591, n_paths=200, "
        "terminal_price=(3.30990876850248, 3.5023012080595857), "
        "terminal_se=(0.4624315421098126, 0.47758826454036984))"),
    ("three_regimes", "floating_put", False, 200, None): (
        "McEstimate(price=4.786841679079596, std_error=0.5056554188425136, n_paths=200, "
        "terminal_price=(1.9523411404136826, 1.483015776650765, 1.3514847620151482), "
        "terminal_se=(0.36620543100899716, 0.2820997854304238, 0.34316373879542883))"),
    ("three_regimes", "floating_put", True, 200, None): (
        "McEstimate(price=4.566670172416736, std_error=0.3521237718062294, n_paths=200, "
        "terminal_price=(1.8456849536762427, 1.5018873063037876, 1.219097912436706), "
        "terminal_se=(0.3392357653069891, 0.25145410831870285, 0.29004501563854945))"),
    ("three_regimes", "floating_call", False, 200, None): (
        "McEstimate(price=7.150218547369825, std_error=0.8068889117456011, n_paths=200, "
        "terminal_price=(3.19979533734951, 3.1073067720206375, 0.8431164379996774), "
        "terminal_se=(0.6126455215163937, 0.5653006174176293, 0.33096966218570634))"),
    ("three_regimes", "floating_call", True, 200, None): (
        "McEstimate(price=9.119526383597236, std_error=0.6240181552110889, n_paths=200, "
        "terminal_price=(3.6986828929605053, 3.4722971328420567, 1.9485463577946747), "
        "terminal_se=(0.6793932651795932, 0.4869458610268741, 0.48212321471541014))"),
    ("three_regimes", "fixed_put", False, 200, None): (
        "McEstimate(price=11.027158204064463, std_error=0.6632949161150388, n_paths=200, "
        "terminal_price=(3.843386507118959, 4.5484673785395735, 2.63530431840593), "
        "terminal_se=(0.5216118857432752, 0.5634478311446717, 0.49836088988533883))"),
    ("three_regimes", "fixed_put", True, 200, None): (
        "McEstimate(price=10.10588455028514, std_error=0.18686863852671257, n_paths=200, "
        "terminal_price=(3.5879170485847167, 4.3448936193348455, 2.173073882365577), "
        "terminal_se=(0.52086159498116, 0.49069845448525035, 0.43130500107567943))"),
    ("three_regimes", "european_put", False, 200, None): (
        "McEstimate(price=13.387210191930881, std_error=1.0622228551848107, n_paths=200, "
        "terminal_price=(5.6622851819720825, 5.300762552054921, 2.424162457903879), "
        "terminal_se=(0.8581131127792817, 0.7490708809889765, 0.6321409855304564))"),
    ("three_regimes", "european_put", True, 200, None): (
        "McEstimate(price=12.949585488494757, std_error=0.5774867485994242, n_paths=200, "
        "terminal_price=(5.193204827872513, 5.7741575704241725, 1.9822230901980702), "
        "terminal_se=(0.7758702447781323, 0.677626087523678, 0.5633043212623612))"),
    ("absorbing", "floating_put", False, 200, None): (
        "McEstimate(price=4.613915158596071, std_error=0.4229455800054029, n_paths=200, "
        "terminal_price=(0.6816185298179722, 3.9322966287780985), "
        "terminal_se=(0.22600211771744264, 0.3933750864806366))"),
    ("absorbing", "floating_put", True, 200, None): (
        "McEstimate(price=3.8513727887244418, std_error=0.28438136795771835, n_paths=200, "
        "terminal_price=(0.285192054701757, 3.5661807340226868), "
        "terminal_se=(0.10932992108690928, 0.299108881408622))"),
    ("desk", "floating_put", True, 300, 64): (
        "McEstimate(price=4.9831369965147365, std_error=0.28857573823289306, n_paths=300, "
        "terminal_price=(2.9132846504451906, 2.069852346069546), "
        "terminal_se=(0.3131819424430537, 0.25716444550821677))"),
    ("rate_50", "fixed_put", False, 301, 64): (
        "McEstimate(price=5.044411239969684, std_error=0.2375846952703698, n_paths=301, "
        "terminal_price=(2.1128873910875794, 2.931523848882104), "
        "terminal_se=(0.19784933298417856, 0.2420647173331965))"),
}


def _pinned_estimate(name, style, antithetic, n_paths, batch):
    model, state = _PIN_MODELS[name]
    spec = AsianOptionSpec(style=style, T=1.0, K=_PIN_STRIKES[style])
    cfg = McConfig(n_paths=n_paths, n_steps=16, seed=11, antithetic=antithetic)
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(rsasian.mc, "_BATCH_SIZE", batch)
        return mc_price(spec, state, model, cfg)


class TestPinnedStream:
    @pytest.mark.parametrize("case", sorted(_PINNED), ids=lambda c: "-".join(map(str, c)))
    def test_estimate_matches_the_recorded_stream(self, case):
        assert repr(_pinned_estimate(*case)) == _PINNED[case]


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


class TestPutCallParity:
    """Put minus call on one seed prices a linear payoff, whose discounted
    value is exact: floating ``E[D (A/T - S_T)]``, fixed ``E[D (K - A/T)]``.
    Given the chain, ``E[D S_t] = s exp(-integral of q over [0, t] - integral
    of r over [t, T])``, so ``E[D S_t | X_0 = i]`` is
    ``s [expm((G - diag q) t) expm((G - diag r)(T - t)) 1]_i``, and the
    trapezoid rule on the MC base grid gives ``E[D A]`` with no bias."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        rates=st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1)),
        vols=st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5)),
        switches=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
        dividends=st.tuples(st.floats(0.005, 0.08), st.floats(0.005, 0.08)),
        strike=st.floats(80.0, 120.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_put_minus_call_is_the_exact_linear_price(self, rates, vols, switches,
                                                        dividends, strike, seed):
        model = two_state_model(*rates, *vols, *switches, *dividends)
        s0, T, n_steps = 100.0, 1.0, 16
        gen = model.gen_array()
        to_expiry = expm((gen - np.diag(model.r_array())) * T) @ np.ones(2)
        weights = np.full(n_steps + 1, T / n_steps)
        weights[[0, -1]] *= 0.5
        spot_law = [s0 * expm((gen - np.diag(model.q_array())) * t)
                    @ expm((gen - np.diag(model.r_array())) * (T - t)) @ np.ones(2)
                    for t in np.linspace(0.0, T, n_steps + 1)]
        avg = sum(w * v for w, v in zip(weights, spot_law)) / T
        exact = {"floating": avg - spot_law[-1], "fixed": strike * to_expiry - avg}
        cfg = McConfig(n_paths=20_000, n_steps=n_steps, seed=seed)
        for kind, want in exact.items():
            put = AsianOptionSpec(style=f"{kind}_put", T=T, K=strike if kind == "fixed" else None)
            call = AsianOptionSpec(style=f"{kind}_call", T=T, K=put.K)
            for regime in (0, 1):
                state = MarketState(t=0.0, s=s0, a=0.0, regime=regime)
                p, c = mc_price(put, state, model, cfg), mc_price(call, state, model, cfg)
                gap = p.price - c.price - want[regime]
                bound = 4.0 * math.hypot(p.std_error, c.std_error)
                assert abs(gap) <= bound, f"{kind} regime {regime}: gap {gap:.4g} > {bound:.4g}"
