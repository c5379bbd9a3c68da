"""Tests for the market model, option spec, state, and payoff primitives."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsasian import (
    AsianOptionSpec,
    FdConfig,
    HamConfig,
    InterpolationOutOfRange,
    MarketState,
    OptionStyle,
    RegimeModel,
    ValidationError,
    fd_price,
    ham,
    payoff,
    rate_ratios,
    two_state_model,
)


class TestRegimeModel:
    def test_two_state_constructor_wiring(self):
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 1.5, 0.5, q1=0.01, q2=0.02)
        assert model.n_states == 2
        assert model.r == (0.05, 0.03)
        assert model.sigma == (0.3, 0.2)
        assert model.q == (0.01, 0.02)
        assert model.gen[0] == (-1.5, 1.5)
        assert model.gen[1] == (0.5, -0.5)

    def test_validate_accepts_well_formed_model(self, desk_model):
        # construction is the check: rebuilding the desk model from its fields passes
        assert RegimeModel(**dataclasses.asdict(desk_model)) == desk_model

    def test_generator_row_must_sum_to_zero(self):
        with pytest.raises(ValidationError, match="row 0"):
            RegimeModel(r=(0.05, 0.03), sigma=(0.3, 0.2), gen=((-1.0, 0.5), (1.0, -1.0)))

    def test_generator_off_diagonal_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            RegimeModel(r=(0.05, 0.03), sigma=(0.3, 0.2), gen=((0.5, -0.5), (1.0, -1.0)))

    @pytest.mark.parametrize("bad_sigma", [(0.0, 0.2), (0.3, -0.1)])
    def test_volatilities_must_be_positive(self, bad_sigma):
        with pytest.raises(ValidationError):
            RegimeModel(r=(0.05, 0.03), sigma=bad_sigma, gen=((-1.0, 1.0), (1.0, -1.0)))

    def test_nonfinite_rate_rejected(self):
        with pytest.raises(ValidationError):
            RegimeModel(r=(np.nan, 0.03), sigma=(0.3, 0.2), gen=((-1.0, 1.0), (1.0, -1.0)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            RegimeModel(r=(0.05, 0.03, 0.04), sigma=(0.3, 0.2), gen=((-1.0, 1.0), (1.0, -1.0)))

    @pytest.mark.parametrize("change, message", [
        (dict(r=(), sigma=(), gen=()), "model needs at least one regime"),
        (dict(sigma=(0.3,)), "sigma has 1 entries, expected 2"),
        (dict(q=(0.0, 0.0, 0.0)), "q has 3 entries, expected 2"),
        (dict(gen=((-1.0, 1.0),)), "generator has 1 rows, expected 2"),
        (dict(sigma=(0.3, np.inf)), "sigma[1] not > 0"),
        (dict(r=(0.05, np.inf)), "r[1] not finite"),
        (dict(q=(np.nan, 0.0)), "q[0] not finite"),
        (dict(gen=((-1.0, 1.0), (1.0,))), "generator row 1 has 1 entries, expected 2"),
        (dict(gen=((-1.0, 1.0), (np.nan, -1.0))), "generator entry [1][0] not finite"),
        (dict(gen=((1.0, -1.0), (1.0, -1.0))), "generator entry [0][1] negative (-1.0)"),
        (dict(gen=((0.5, 0.0), (1.0, -1.0))), "generator diagonal [0][0] positive (0.5)"),
        (dict(gen=((-1.0, 1.0), (1.0, -0.5))), "generator row 1 sums to 0.5"),
    ])
    def test_construction_names_the_first_violation(self, desk_model, change, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            dataclasses.replace(desk_model, **change)

    def test_no_invalid_model_can_be_built(self, desk_model):
        with pytest.raises(ValidationError, match=re.escape("generator row 0 sums to -0.5")):
            RegimeModel(r=(0.05, 0.03), sigma=(0.3, 0.2), gen=((-1.0, 0.5), (1.0, -1.0)))
        with pytest.raises(ValidationError, match=re.escape("sigma[0] not > 0")):
            dataclasses.replace(desk_model, sigma=(0.0, 0.2))
        with pytest.raises(ValidationError, match=re.escape("generator entry [0][1] negative")):
            two_state_model(0.05, 0.03, 0.3, 0.2, a12=-1.0, a21=1.0)

    def test_dividends_default_to_zero(self):
        model = RegimeModel(r=(0.05, 0.03), sigma=(0.3, 0.2), gen=((0.0, 0.0), (0.0, 0.0)))
        assert model.q == (0.0, 0.0)

    def test_swap_rates_dividends(self, desk_model):
        swapped = desk_model.swap_rates_dividends()
        assert swapped.r == desk_model.q
        assert swapped.q == desk_model.r
        assert swapped.sigma == desk_model.sigma
        assert swapped.gen == desk_model.gen
        # involution
        assert swapped.swap_rates_dividends() == desk_model

    def test_rate_ratios_values(self, desk_model):
        lam, gamma = rate_ratios(desk_model, 0)
        half_var = 0.5 * 0.3**2
        assert np.isclose(lam, desk_model.gen[0][0] / half_var), f"lam {lam}"
        assert np.isclose(gamma, 0.05 / half_var), f"gamma {gamma}"


@st.composite
def _malformed_generator(draw):
    """A generator with one broken row, the fault and the message that must name it."""
    n = draw(st.integers(2, 3))
    gen = [[draw(st.floats(0.0, 10.0)) if j != i else 0.0 for j in range(n)] for i in range(n)]
    for i, row in enumerate(gen):
        row[i] = -sum(row)
    i = draw(st.integers(0, n - 1))
    size = draw(st.floats(1e-3, 10.0))
    fault = draw(st.sampled_from(["negative", "diagonal", "row_sum"]))
    if fault == "negative":
        j = draw(st.sampled_from([j for j in range(n) if j != i]))
        gen[i][j] = -size
        gen[i][i] = -sum(a for k, a in enumerate(gen[i]) if k != i)
        message = f"generator entry [{i}][{j}] negative"
    elif fault == "diagonal":
        gen[i][i] = size
        message = f"generator diagonal [{i}][{i}] positive"
    else:
        gen[i][i] -= size
        message = f"generator row {i} sums to"
    return tuple(map(tuple, gen)), message


class TestMalformedGenerators:
    @settings(max_examples=60, deadline=None)
    @given(case=_malformed_generator())
    def test_rejection_names_the_entry(self, case):
        gen, message = case
        with pytest.raises(ValidationError, match=re.escape(message)):
            RegimeModel(r=(0.05,) * len(gen), sigma=(0.3,) * len(gen), gen=gen)


class TestOptionSpec:
    def test_fixed_strike_requires_k(self):
        with pytest.raises(ValidationError):
            AsianOptionSpec(style="fixed_put", T=1.0)

    def test_floating_multiplier_must_be_positive(self):
        with pytest.raises(ValidationError):
            AsianOptionSpec(style="floating_put", T=1.0, strike_multiplier=0.0)

    def test_expiry_must_be_positive(self):
        with pytest.raises(ValidationError):
            AsianOptionSpec(style="floating_put", T=0.0)

    def test_style_accepts_string(self):
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        assert spec.style is OptionStyle.FLOATING_PUT

    def test_european_requires_k(self):
        with pytest.raises(ValidationError):
            AsianOptionSpec(style="european_put", T=1.0)


class TestMarketState:
    def test_spot_must_be_positive(self):
        with pytest.raises(ValidationError):
            MarketState(t=0.0, s=0.0, a=0.0, regime=0)

    def test_running_average_nonnegative(self):
        with pytest.raises(ValidationError):
            MarketState(t=0.5, s=100.0, a=-1.0, regime=0)

    def test_inception_average_must_be_zero(self):
        with pytest.raises(ValidationError):
            MarketState(t=0.0, s=100.0, a=5.0, regime=0)

    def test_regime_index_nonnegative(self):
        with pytest.raises(ValidationError):
            MarketState(t=0.0, s=100.0, a=0.0, regime=-1)


class TestPayoff:
    S = np.array([80.0, 100.0, 125.0])
    AVG = np.array([100.0, 100.0, 100.0])

    def test_floating_put(self):
        spec = AsianOptionSpec(style="floating_put", T=1.0)
        got = payoff(spec, self.S, self.AVG)
        assert np.allclose(got, [20.0, 0.0, 0.0]), f"floating put {got}"

    def test_floating_put_multiplier(self):
        spec = AsianOptionSpec(style="floating_put", T=1.0, strike_multiplier=1.2)
        got = payoff(spec, self.S, self.AVG)
        assert np.allclose(got, [40.0, 20.0, 0.0]), f"scaled floating put {got}"

    def test_floating_call(self):
        spec = AsianOptionSpec(style="floating_call", T=1.0)
        got = payoff(spec, self.S, self.AVG)
        assert np.allclose(got, [0.0, 0.0, 25.0]), f"floating call {got}"

    def test_fixed_put_and_call(self):
        put = AsianOptionSpec(style="fixed_put", T=1.0, K=110.0)
        call = AsianOptionSpec(style="fixed_call", T=1.0, K=90.0)
        assert np.allclose(payoff(put, self.S, self.AVG), [10.0, 10.0, 10.0])
        assert np.allclose(payoff(call, self.S, self.AVG), [10.0, 10.0, 10.0])

    def test_european_put_ignores_average(self):
        spec = AsianOptionSpec(style="european_put", T=1.0, K=100.0)
        got = payoff(spec, self.S, np.zeros_like(self.S))
        assert np.allclose(got, [20.0, 0.0, 0.0]), f"european put {got}"

    @pytest.mark.parametrize("style", ["floating_put", "floating_call"])
    def test_floating_payoffs_are_degree_one_homogeneous(self, style):
        spec = AsianOptionSpec(style=style, T=1.0, strike_multiplier=1.1)
        base = payoff(spec, self.S, self.AVG)
        scaled = payoff(spec, 2.0 * self.S, 2.0 * self.AVG)
        assert np.allclose(scaled, 2.0 * base)

    def test_payoff_nonnegative(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(1.0, 200.0, size=64)
        a = rng.uniform(0.0, 200.0, size=64)
        for style, k in [
            ("floating_put", None),
            ("floating_call", None),
            ("fixed_put", 100.0),
            ("fixed_call", 100.0),
        ]:
            spec = AsianOptionSpec(style=style, T=1.0, K=k)
            assert (payoff(spec, s, a) >= 0.0).all(), style


class TestBilinear:
    def test_refusal_prints_plain_floats(self, desk_model):
        # the nodes are numpy scalars, which numpy 2 would print as np.float64(...)
        fd_surface = fd_price(desk_model, 1.0, FdConfig(n_y=50, n_t=50))
        with pytest.raises(InterpolationOutOfRange) as fd_refusal:
            fd_surface.value(0.5, 5.0, 0)
        assert str(fd_refusal.value) == "y=5.0 outside [0.0, 4.166666666666666]"
        series = ham.series_surfaces(desk_model, 1.0, HamConfig(m_trunc=2, n_z=101, n_u=21))
        with pytest.raises(InterpolationOutOfRange) as series_refusal:
            series.value(0.5, np.float64(20.0), 0)
        assert str(series_refusal.value) == (
            "z=20.0 outside [-3.051518161382543, 9.15455448414763]")
