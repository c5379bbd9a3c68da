"""Tests for the put/call counterpart map between average-strike styles.

The map sends an average-strike (floating) contract to an average-rate
(fixed) one and vice versa, swapping rates with dividend yields and
inverting the moneyness; the left side equals the moneyness scale times
the right side. The construction reverses the chain in time, which turns
the left side's starting regime into the right side's terminal regime.
Value equality is therefore asserted per starting regime only on a flat
two-state market; on a genuinely two-state market it is asserted under
the stationary regime law and in the terminal-conditioned per-regime
form, while the same-starting-regime gap is pinned as real.
"""

import numpy as np
import pytest

from rsasian import (
    AsianOptionSpec,
    MarketState,
    McConfig,
    NotApplicable,
    OptionStyle,
    RegimeModel,
    symmetric_counterpart,
    symmetry_mc_check,
    two_state_model,
)

STATE = MarketState(t=0.0, s=100.0, a=0.0, regime=0)

FOUR_STYLES = [
    AsianOptionSpec(style="floating_put", T=1.0, strike_multiplier=1.2),
    AsianOptionSpec(style="floating_call", T=1.0, strike_multiplier=0.8),
    AsianOptionSpec(style="fixed_put", T=1.0, K=120.0),
    AsianOptionSpec(style="fixed_call", T=1.0, K=90.0),
]


@pytest.fixture(scope="module")
def dividend_model():
    return two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0, q1=0.02, q2=0.01)


class TestCounterpartMap:
    def test_floating_put_maps_to_fixed_call(self, dividend_model):
        spec = AsianOptionSpec(style="floating_put", T=1.0, strike_multiplier=1.2)
        rhs, swapped, scale = symmetric_counterpart(spec, dividend_model, STATE)
        assert rhs.style is OptionStyle.FIXED_CALL
        assert np.isclose(rhs.K, 100.0 / 1.2), f"strike {rhs.K}"
        assert np.isclose(scale, 1.2)
        assert swapped.r == dividend_model.q
        assert swapped.q == dividend_model.r
        assert swapped.sigma == dividend_model.sigma
        assert swapped.gen == dividend_model.gen

    def test_fixed_put_maps_to_floating_call(self, dividend_model):
        spec = AsianOptionSpec(style="fixed_put", T=1.0, K=120.0)
        rhs, swapped, scale = symmetric_counterpart(spec, dividend_model, STATE)
        assert rhs.style is OptionStyle.FLOATING_CALL
        assert rhs.T == spec.T
        assert np.isclose(rhs.strike_multiplier, 100.0 / 120.0)
        assert scale == pytest.approx(1.2)
        assert swapped.r == dividend_model.q, "lhs dividends become rhs rates"
        assert swapped.q == dividend_model.r, "lhs rates become rhs dividends"

    def test_unit_moneyness_is_self_scaled(self, dividend_model):
        # an at-the-money floating put maps to a fixed call struck at the
        # spot, with no price rescaling at all
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        rhs, _, scale = symmetric_counterpart(spec, dividend_model, STATE)
        assert rhs.K == pytest.approx(100.0)
        assert scale == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", FOUR_STYLES, ids=lambda s: s.style.value)
    def test_involution(self, dividend_model, spec):
        rhs, swapped, scale = symmetric_counterpart(spec, dividend_model, STATE)
        back, model_back, scale_back = symmetric_counterpart(rhs, swapped, STATE)
        assert back.style is spec.style
        assert model_back == dividend_model
        assert np.isclose(scale * scale_back, 1.0), f"{scale} * {scale_back}"
        if spec.K is not None:
            assert np.isclose(back.K, spec.K)
        assert np.isclose(back.strike_multiplier, spec.strike_multiplier)

    def test_seasoned_contract_refused(self, dividend_model):
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        seasoned = MarketState(t=0.5, s=100.0, a=50.0, regime=0)
        with pytest.raises(NotApplicable):
            symmetric_counterpart(spec, dividend_model, seasoned)

    def test_vanilla_style_refused(self, dividend_model):
        spec = AsianOptionSpec(style="european_put", T=1.0, K=100.0)
        with pytest.raises(NotApplicable):
            symmetric_counterpart(spec, dividend_model, STATE)


def _three_state(gen):
    return RegimeModel(r=(0.05, 0.03, 0.04), sigma=(0.3, 0.2, 0.25), gen=gen)


class TestDetailedBalance:
    # the time reversal needs pi_i g_ij = pi_j g_ji. Unrefused, the floating put
    # on the cyclic chain below read terminal-conditioned z = -1.4, -1.9 and
    # +4.7 (400k antithetic paths, 52 steps, seed 3); the symmetric chain's
    # rows all read |z| <= 0.85
    def test_cyclic_chain_is_refused(self):
        gen = ((-3.0, 3.0, 0.0), (0.0, -3.0, 3.0), (3.0, 0.0, -3.0))
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        with pytest.raises(NotApplicable, match=r"generator \[\[-3\.0, 3\.0, 0\.0\]"):
            symmetric_counterpart(spec, _three_state(gen), STATE)

    @pytest.mark.parametrize("model", [
        _three_state(((-3.0, 1.0, 2.0), (1.0, -1.5, 0.5), (2.0, 0.5, -2.5))),
        two_state_model(0.05, 0.03, 0.3, 0.2, 2.0, 0.0),
        two_state_model(0.05, 0.03, 0.3, 0.2, 0.0, 0.0),
    ], ids=["symmetric_three_state", "absorbing", "zero_generator"])
    def test_reversible_chains_are_accepted(self, model):
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        rhs, swapped, scale = symmetric_counterpart(spec, model, STATE)
        assert rhs.style is OptionStyle.FIXED_CALL and swapped.gen == model.gen


class TestSymmetryCase:
    def test_case_tuples_share_spot_and_expiry(self, dividend_model):
        # the check's report records each side as
        # (spot, strike or multiplier, rates, dividends, 0, expiry)
        spec = AsianOptionSpec(style="fixed_put", T=1.0, K=120.0)
        cfg = McConfig(n_paths=2_000, n_steps=8, seed=3)
        case = symmetry_mc_check(spec, dividend_model, STATE, cfg)
        lhs, rhs = case["lhs"], case["rhs"]
        assert lhs[0] == rhs[0] == 100.0
        assert lhs[5] == rhs[5] == 1.0
        assert lhs[1] == 120.0
        assert np.isclose(rhs[1], 100.0 / 120.0)
        assert lhs[2] == rhs[3], "lhs rates become rhs dividends"
        assert lhs[3] == rhs[2], "lhs dividends become rhs rates"
        assert case["scale"] == pytest.approx(1.2)


@pytest.fixture(scope="module")
def desk_check(desk_model):
    cfg = McConfig(n_paths=100_000, n_steps=126, seed=92, antithetic=True)
    spec = AsianOptionSpec(style="floating_put", T=1.0)
    return symmetry_mc_check(spec, desk_model, STATE, cfg)


class TestMonteCarloAgreement:
    def test_flat_market_agrees_per_regime(self, flat_model):
        # with identical regimes the chain is invisible, so the identity
        # holds conditionally on the starting regime for every style
        cfg = McConfig(n_paths=100_000, n_steps=126, seed=91, antithetic=True)
        for spec in FOUR_STYLES:
            res = symmetry_mc_check(spec, flat_model, STATE, cfg)
            for row in res["per_regime"]:
                assert abs(row["z"]) < 3.5, (
                    f"{spec.style.value} regime {row['regime']}: z = {row['z']:.2f}"
                )

    def test_two_state_market_agrees_in_stationary_law(self, desk_check):
        res = desk_check
        z_stat = res["stationary"]["z"]
        assert abs(z_stat) < 3.5, f"stationary z = {z_stat:.2f}"
        # conditioning on the starting regime breaks the time reversal that
        # underlies the identity, so the per-regime gaps are real and large
        z_regime = max(abs(row["z"]) for row in res["per_regime"])
        assert z_regime > 5.0, f"expected a real per-regime gap, z = {z_regime:.2f}"

    def test_two_state_market_agrees_conditioned_on_terminal_regime(self, desk_check):
        # the lhs started in regime i matches the stationary-started rhs
        # restricted to paths that end in i, scaled by 1 / pi_i
        rows = desk_check["terminal_conditioned"]
        assert [row["regime"] for row in rows] == [0, 1]
        for row in rows:
            assert abs(row["z"]) < 3.5, f"regime {row['regime']}: z = {row['z']:.2f}"

    def test_every_record_divides_its_gap_by_its_se(self, desk_check):
        # the same-start, terminal-conditioned and stationary views share one record shape
        views = [*desk_check["per_regime"], *desk_check["terminal_conditioned"],
                 desk_check["stationary"]]
        for record in views:
            assert record["gap"] == record["lhs_price"] - record["rhs_price_scaled"]
            assert record["se"] == pytest.approx(np.hypot(record["lhs_se"],
                                                          record["rhs_se_scaled"]), rel=1e-15)
            assert record["z"] == record["gap"] / record["se"]

    def test_stationary_weights(self, inception_state):
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 2.0, 0.5)
        cfg = McConfig(n_paths=2_000, n_steps=8, seed=3)
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        res = symmetry_mc_check(spec, model, inception_state, cfg)
        weights = res["stationary"]["weights"]
        assert np.allclose(weights, [0.2, 0.8]), f"weights {weights}"

    def test_transient_regime_gets_no_terminal_row(self, inception_state):
        # regime 1 is absorbing, so the stationary law never visits regime 0
        # and there is no terminal-conditioned statement for it
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 2.0, 0.0)
        cfg = McConfig(n_paths=2_000, n_steps=8, seed=3)
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        res = symmetry_mc_check(spec, model, inception_state, cfg)
        assert res["stationary"]["weights"] == [0.0, 1.0]
        assert [row["regime"] for row in res["terminal_conditioned"]] == [1]
        assert len(res["per_regime"]) == 2
