"""Tests for the closed-form European put under two-state switching.

The price averages Black-Scholes over the law of the time the chain spends
in regime 0, an atom plus a Bessel-function density, by Gauss-Legendre
quadrature. The tests cross-check it against the Black-Scholes limit,
against Monte Carlo with exact terminal sampling, against prices of the
spectral (Fourier-inversion) leg it replaced, and against its own
structural limits (tiny spot, strong mixing, expiry, short maturities).
"""

import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsasian import (
    AsianOptionSpec,
    MarketState,
    McConfig,
    QuadratureNotConverged,
    RegimeModel,
    ValidationError,
    black_scholes_put,
    discounted_strike_vector,
    european_put_grid,
    mc_price,
    price_european_put_rs,
    two_state_model,
)
from rsasian import european
from rsasian.ham import HamConfig, ham_grid

S0, K, T = 100.0, 100.0, 1.0

_TABLE_MODELS = {
    "desk": (0.05, 0.03, 0.3, 0.2, 1.0, 1.0),
    "rate_50_q": (0.05, 0.03, 0.3, 0.2, 50.0, 50.0, 0.04, 0.01),
    "large_gamma": (0.08, 0.01, 0.1, 0.5, 3.0, 0.5),
    "one_way": (0.05, 0.03, 0.3, 0.2, 2.0, 0.0),
    "low_vol": (0.05, 0.03, 0.05, 0.075, 1.0, 1.0),
}


def _tolerance(price):
    """The European leg's fixed tolerance at ``price``."""
    return max(european._ABS_TOL, european._REL_TOL * abs(price))


def _mc_european(model, s, k, regime, n_paths=200_000, seed=11):
    # a single time step samples the terminal value exactly: the GBM
    # increment between switch times is drawn in closed form, so only the
    # chain path (handled event by event) matters
    spec = AsianOptionSpec(style="european_put", T=T, K=k)
    state = MarketState(t=0.0, s=s, a=0.0, regime=regime)
    cfg = McConfig(n_paths=n_paths, n_steps=1, seed=seed, antithetic=True)
    return mc_price(spec, state, model, cfg)


class TestBlackScholesLimits:
    def test_zero_switching_recovers_bs_in_each_regime(self):
        model = two_state_model(0.05, 0.02, 0.3, 0.2, 0.0, 0.0)
        for regime, (r, sigma) in enumerate(zip(model.r, model.sigma)):
            got = price_european_put_rs(model, S0, K, 0.0, T, regime).price
            want = black_scholes_put(S0, K, r, sigma, T)
            assert np.isclose(got, want, atol=5e-7), (
                f"regime {regime}: {got} vs BS {want}"
            )

    def test_flat_model_prices_as_black_scholes(self, flat_model):
        # nothing divides by the variance gap, so equal variances take the
        # same rule as any other model
        res = price_european_put_rs(flat_model, S0, K, 0.0, T, 0)
        want = black_scholes_put(S0, K, 0.05, 0.3, T)
        assert abs(res.price - want) <= _tolerance(want)
        assert set(res.diagnostics) == {"nodes"}, "no fallback, no clip"


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("regime", [0, 1])
    @pytest.mark.parametrize("s", [90.0, 100.0, 110.0])
    def test_exact_variant_matches_mc(self, desk_model, regime, s):
        est = _mc_european(desk_model, s, K, regime)
        exact = price_european_put_rs(desk_model, s, K, 0.0, T, regime).price
        z = (est.price - exact) / est.std_error
        assert abs(z) < 4.0, f"s={s} regime={regime}: z = {z:.2f}"

    @pytest.mark.parametrize("regime", [0, 1])
    @pytest.mark.parametrize("params", [
        (0.05, 0.03, 0.3, 0.3, 1.0, 1.0),
        (0.06, 0.02, 0.25, 0.25, 0.5, 2.0, 0.04, 0.01),
    ], ids=["no_dividends", "dividends"])
    def test_equal_variances_distinct_rates_match_mc(self, params, regime):
        # equal variances but distinct rates (and yields): the chain still
        # modulates the drift, so the price is no Black-Scholes one
        model = two_state_model(*params)
        est = _mc_european(model, S0, K, regime)
        exact = price_european_put_rs(model, S0, K, 0.0, T, regime).price
        z = (est.price - exact) / est.std_error
        assert abs(z) < 4.0, f"{params} regime={regime}: z = {z:.2f}"


class TestStructuralLimits:
    def test_tiny_spot_approaches_discounted_strike(self, desk_model):
        want = discounted_strike_vector(desk_model, K, T)
        for regime in (0, 1):
            got = price_european_put_rs(desk_model, 1e-6, K, 0.0, T, regime).price
            assert np.isclose(got, want[regime], rtol=1e-6), (
                f"regime {regime}: {got} vs {want[regime]}"
            )

    def test_deep_in_the_money_dividend_put_sits_on_its_lower_bound(self):
        # with dividends the floor is D_i - s E[e^{-int q}], above D_i - s; deep
        # in the money every node's Black-Scholes value is its own floor, so the
        # rule lands on the closed-form floor to roundoff
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0, 0.04, 0.02)
        ttm, s = 0.02, 30.0
        res = price_european_put_rs(model, s, K, 0.0, ttm, 0)
        d = discounted_strike_vector(model, K, ttm)[0]
        q_disc = discounted_strike_vector(model.swap_rates_dividends(), 1.0, ttm)[0]
        assert abs(res.price - (d - s * q_disc)) <= 8.0 * np.spacing(d)

    @pytest.mark.parametrize("params, s, ttm, shift", [
        ((0.05, 0.03, 0.3, 0.2, 1.0, 1.0), 110.0, 1e-3, -1e-6),
        ((0.05, 0.03, 0.3, 0.2, 1.0, 1.0, 0.04, 0.02), 30.0, 0.02, -1e-6),
        ((0.05, 0.03, 0.3, 0.2, 1.0, 1.0), 1e-9, 1.0, 1e-6),
    ], ids=["zero_floor", "dividend_floor", "discounted_strike_cap"])
    def test_a_rule_outside_the_bounds_is_clipped(self, monkeypatch, params, s, ttm, shift):
        # the dividend floor D_i - s Q_i sits 0.024 above D_i - s, so a clip
        # that used D_i - s (or 0) would leave the lowered rule in place
        model = two_state_model(*params)
        d = discounted_strike_vector(model, K, ttm)[0]
        q_disc = discounted_strike_vector(model.swap_rates_dividends(), 1.0, ttm)[0]
        rule = european._occupation_put
        monkeypatch.setattr(european, "_occupation_put", lambda *args: rule(*args) + shift)
        res = price_european_put_rs(model, s, K, 0.0, ttm, 0)
        raw = res.diagnostics["unclipped_price"]
        if shift < 0.0:
            assert res.price == max(d - s * q_disc, 0.0) and raw < res.price
        else:
            assert res.price == d and raw > res.price

    def test_expiry_returns_payoff(self, flat_model):
        assert price_european_put_rs(flat_model, 90.0, K, T, T, 0).price == 10.0
        assert price_european_put_rs(flat_model, 120.0, K, T, T, 0).price == 0.0

    def test_strong_mixing_erases_the_starting_regime(self):
        gaps = []
        for a in (1.0, 10.0, 100.0):
            model = two_state_model(0.05, 0.03, 0.3, 0.2, a, a)
            p0 = price_european_put_rs(model, S0, K, 0.0, T, 0).price
            p1 = price_european_put_rs(model, S0, K, 0.0, T, 1).price
            gaps.append(abs(p0 - p1))
        assert gaps[0] > gaps[1] > gaps[2], f"gaps not shrinking: {gaps}"

    @pytest.mark.parametrize("regime", [-1, 2])
    def test_regime_out_of_range_is_refused(self, desk_model, regime):
        # unchecked, a negative index wraps round to the other regime's price
        with pytest.raises(ValidationError, match=f"regime index {regime}"):
            price_european_put_rs(desk_model, S0, K, 0.0, T, regime)

    def test_put_price_bounds(self, desk_model):
        price = price_european_put_rs(desk_model, S0, K, 0.0, T, 0).price
        lo = black_scholes_put(S0, K, 0.05, 0.2, T)
        hi = black_scholes_put(S0, K, 0.03, 0.3, T)
        assert lo < price < hi, f"{lo} < {price} < {hi}"


class TestQuadrature:
    @pytest.mark.parametrize("ttm", [1e-3, 1e-4, 1e-5, 1e-7])
    @pytest.mark.parametrize("moneyness", [0.9, 1.0, 1.01, 1.1])
    def test_short_maturity_meets_the_tolerance(self, desk_model, moneyness, ttm):
        # the spectral leg refused ttm = 1e-4 at s/k = 1.01 and ttm = 1e-5 at
        # s/k in {1.0, 1.01}; every price here meets its tolerance, one that the
        # clip moved was off its bounds by less than its estimate, and out of
        # the money the rule lands on the true price, under 1e-24, with no clip
        s = moneyness * K
        for regime in (0, 1):
            res = price_european_put_rs(desk_model, s, K, 0.0, ttm, regime)
            assert res.error_estimate <= _tolerance(res.price)
            d = discounted_strike_vector(desk_model, K, ttm)[regime]
            assert max(d - s, 0.0) <= res.price <= d
            raw = res.diagnostics.get("unclipped_price", res.price)
            assert max(d - s, 0.0) - res.error_estimate <= raw <= d + res.error_estimate
            if moneyness > 1.05:
                assert 0.0 <= res.price < 1e-24
                assert set(res.diagnostics) == {"nodes"}

    def test_low_volatility_near_the_money(self):
        # sigma = (0.05, 0.075) at ttm = 0.01, s/k = 1.01: the spectral leg
        # refused regime 0 and priced regime 1 at the value below
        model = two_state_model(*_TABLE_MODELS["low_vol"])
        prices = [price_european_put_rs(model, 101.0, K, 0.0, 0.01, regime).price
                  for regime in (0, 1)]
        assert 0.0 < prices[0] < prices[1]
        assert abs(prices[1] - 0.029576014472525003) <= european._ABS_TOL

    def test_tolerance_is_raised_to_roundoff(self, desk_model, monkeypatch):
        # at ttm = 1 the rules of 8 and 16 nodes differ by 6e-14, roundoff;
        # the estimate is floored at 8 ulps of D_i (1.1e-13), and so is the
        # tolerance: one asked below it prices the same bits at the first doubling
        d = discounted_strike_vector(desk_model, K, T)[0]
        res = price_european_put_rs(desk_model, S0, K, 0.0, T, 0)
        assert res.error_estimate >= 8.0 * np.spacing(d)
        monkeypatch.setattr(european, "_ABS_TOL", 1e-16)
        monkeypatch.setattr(european, "_REL_TOL", 1e-16)
        assert price_european_put_rs(desk_model, S0, K, 0.0, T, 0) == res

    @pytest.mark.parametrize("k, s", [(2e6, 2e7), (1e7, 1e8), (1e7, 3e7), (1e8, 1e9)])
    def test_large_strikes_price_like_strike_100(self, desk_model, k, s):
        # past D_i of 2^20, 8 ulps of D_i exceed the 1e-9 absolute tolerance;
        # the price scales with the strike all the same
        big = price_european_put_rs(desk_model, s, k, 0.0, T, 0).price
        small = price_european_put_rs(desk_model, 100.0 * s / k, 100.0, 0.0, T, 0).price
        assert big > 0.0
        assert abs(big - k / 100.0 * small) <= 1e-12 * big

    def test_wide_variances_refuse_at_the_node_cap(self, monkeypatch):
        # sigma = (0.0025, 0.5) starts at 1200 nodes, and the price refuses its
        # first doubling rather than build a 2400-node rule; sigma = (0.001,
        # 0.5) would need 3000 nodes in one pass, refused before any rule is
        # built
        sizes = []
        legendre = european._legendre
        monkeypatch.setattr(european, "_legendre", lambda n: sizes.append(n) or legendre(n))
        wide = two_state_model(0.05, 0.03, 0.0025, 0.5, 1.0, 1.0)
        with pytest.raises(QuadratureNotConverged, match="2400 nodes, above its cap of 2048"):
            price_european_put_rs(wide, S0, K, 0.0, T, 0)
        assert sizes == [1200]
        sizes.clear()
        tiny = two_state_model(0.05, 0.03, 0.001, 0.5, 1.0, 1.0)
        for call in (lambda: european_put_grid(tiny, [S0], K, T),
                     lambda: price_european_put_rs(tiny, S0, K, 0.0, T, 0)):
            with pytest.raises(QuadratureNotConverged, match="3000 nodes, above its cap of 2048"):
                call()
        assert sizes == []

    def test_grid_evaluation_matches_scalar_calls(self, desk_model):
        s_values = np.array([80.0, 100.0, 125.0])
        grid = european_put_grid(desk_model, s_values, K, T)
        assert grid.shape == (2, 3)
        for regime in (0, 1):
            for j, s in enumerate(s_values):
                want = price_european_put_rs(desk_model, s, K, 0.0, T, regime).price
                assert np.isclose(grid[regime, j], want, rtol=1e-9), (
                    f"grid[{regime},{j}] = {grid[regime, j]} vs {want}"
                )


_rates = st.floats(0.0, 0.1)
_vols = st.floats(0.1, 0.6)
_switch = st.floats(0.1, 5.0)


def _discount_reference(a, ttm):
    """``e^{a ttm} (1, 1)`` by scaling and squaring in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m = [[decimal.Decimal(v) * decimal.Decimal(ttm) for v in row] for row in a]
        squarings = int(max(abs(m[0][0]) + abs(m[0][1]), abs(m[1][0]) + abs(m[1][1]))).bit_length() + 4
        m = [[v / 2 ** squarings for v in row] for row in m]  # norm below 1/16

        def times(p, q):
            return [[p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in (0, 1)] for i in (0, 1)]

        term = out = [[decimal.Decimal(i == j) for j in (0, 1)] for i in (0, 1)]
        for n in range(1, 40):
            term = [[v / n for v in row] for row in times(term, m)]
            out = [[u + v for u, v in zip(*rows)] for rows in zip(out, term)]
        for _ in range(squarings):
            out = times(out, out)
        return np.array([float(row[0] + row[1]) for row in out])


@st.composite
def _discount_models(draw):
    """Two-state ``(r0, r1, a01, a10)``: general, or one of the families where a
    closed form could cancel or divide by zero."""
    kind = draw(st.sampled_from(["general", "zero_generator", "equal_rates",
                                 "equal_eigenvalues", "one_way", "short_rate_50", "rate_50",
                                 "rate_1000"]))
    r0, r1 = draw(st.floats(-0.05, 0.2)), draw(st.floats(-0.05, 0.2))
    a01, a10 = draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0))
    if kind == "zero_generator":
        a01 = a10 = 0.0
    elif kind == "equal_rates":
        r1 = r0
    elif kind == "equal_eigenvalues":
        # A = [[-r0, 0], [a10, -a10 - r1]] with r0 = r1 + a10 exactly (binary
        # fractions): one eigenvalue, and A is not diagonalisable
        r1, a10 = draw(st.integers(0, 64)) / 512, draw(st.integers(1, 64)) / 64
        r0, a01 = r1 + a10, 0.0
    elif kind == "one_way":
        a01 = 0.0
    elif kind == "short_rate_50":  # one way out of a regime that discounts far faster
        r0, a01 = 50.0, 0.0
    elif kind == "rate_50":
        a01 = a10 = 50.0
    elif kind == "rate_1000":  # e^{2 rad ttm} overflows
        a01 = a10 = 1000.0
    return r0, r1, a01, a10


class TestTwoStateDiscount:
    @settings(max_examples=200, deadline=None)
    @given(params=_discount_models(), ttm=st.floats(1e-6, 3.0), k=st.floats(0.5, 200.0))
    def test_matches_the_exact_exponential(self, params, ttm, k):
        # e^{A ttm} (k, k) for A = gen - diag(r), each entry to its own relative
        # bound, so the smaller one may not cancel; the reference carries 60 digits
        r0, r1, a01, a10 = params
        model = two_state_model(r0, r1, 0.3, 0.2, a01, a10)
        a = model.gen_array() - np.diag(model.r_array())
        want = k * _discount_reference(a, ttm)
        got = discounted_strike_vector(model, k, ttm)
        bound = 1e-15 * (1.0 + np.abs(a).sum(axis=0).max() * ttm) * want
        assert np.all(np.abs(got - want) <= bound), f"{got} vs {want}"

    @pytest.mark.parametrize("params", [
        (0.05, 0.03, 0.3, 0.2, 1.0, 1.0),
        (0.05, 0.03, 0.3, 0.2, 50.0, 50.0),
        (0.05, 0.03, 0.3, 0.2, 0.5, 2.0),
        (0.08, 0.01, 0.1, 0.5, 3.0, 0.5),
    ], ids=["desk", "rate_50", "asymmetric", "large_gamma"])
    @pytest.mark.parametrize("ttm", [1e-4, 0.01, 0.5, 1.0, 3.0])
    def test_matches_expm(self, params, ttm):
        # the function it replaced for two states; expm itself is off by up to
        # 1e-14 (1 + |A| ttm) where A is not diagonalisable, so the families
        # above are checked against the decimal reference instead
        from scipy.linalg import expm

        model = two_state_model(*params)
        a = model.gen_array() - np.diag(model.r_array())
        want = expm(a * ttm) @ np.full(2, K)
        got = discounted_strike_vector(model, K, ttm)
        bound = 1e-15 * (1.0 + np.abs(a).sum(axis=0).max() * ttm) * np.max(want)
        assert np.max(np.abs(got - want)) <= bound

    def test_other_chain_sizes_are_refused(self):
        gen = ((-1.0, 0.5, 0.5), (0.2, -0.4, 0.2), (1.0, 1.0, -2.0))
        model = RegimeModel(r=(0.05, 0.03, 0.01), sigma=(0.3, 0.2, 0.25), gen=gen)
        with pytest.raises(ValidationError, match="exactly 2 regimes, model has 3"):
            discounted_strike_vector(model, K, 0.7)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        params=st.tuples(_rates, _rates, _vols, _vols, _switch, _switch),
        moneyness=st.floats(0.2, 5.0),
        k=st.floats(1.0, 200.0),
        ttm=st.floats(0.01, 3.0),
        regime=st.integers(0, 1),
    )
    def test_price_lies_between_the_no_arbitrage_bounds(self, params, moneyness, k, ttm, regime):
        # no dividends: (D_i - s)^+ <= P_i <= D_i, D_i the expected discounted
        # strike; the price meets its tolerance, and the bounds hold to within
        # its error estimate
        model = two_state_model(*params)
        s = k * moneyness
        d = discounted_strike_vector(model, k, ttm)[regime]
        res = price_european_put_rs(model, s, k, 0.0, ttm, regime)
        assert res.error_estimate <= _tolerance(res.price)
        lo, hi = max(d - s, 0.0) - res.error_estimate, d + res.error_estimate
        assert lo <= res.price <= hi, f"{res.price} outside [{lo}, {hi}]"

    @settings(max_examples=40, deadline=None)
    @given(
        r=_rates, sigma=_vols, q=_rates, rates=st.tuples(_switch, _switch),
        s=st.floats(1.0, 500.0), k=st.floats(1.0, 500.0),
        T=st.floats(0.01, 3.0), t_share=st.floats(0.0, 1.0), regime=st.integers(0, 1),
    )
    def test_coinciding_regimes_price_as_black_scholes(self, r, sigma, q, rates, s, k, T,
                                                      t_share, regime):
        model = two_state_model(r, r, sigma, sigma, *rates, q, q)
        got = price_european_put_rs(model, s, k, t_share * T, T, regime).price
        want = black_scholes_put(s, k, r, sigma, T - t_share * T, q)
        assert abs(got - want) <= _tolerance(want), f"{got} vs BS {want}"


# (model, s, ttm, regime, price) at k = 100 from the spectral leg, made by the
# command in TestSpectralLegPrices' docstring
_SPECTRAL_PRICES = [
    ('desk', 80.0, 1.0, 0, 19.38057013179153),
    ('desk', 80.0, 1.0, 1, 18.91746972269371),
    ('desk', 100.0, 1.0, 0, 8.61818557129547),
    ('desk', 100.0, 1.0, 1, 7.3681479441965365),
    ('desk', 125.0, 1.0, 0, 2.6142054333786433),
    ('desk', 125.0, 1.0, 1, 1.6945195239792668),
    ('desk', 80.0, 0.01, 0, 19.950111791528357),
    ('desk', 80.0, 0.01, 1, 19.969905199307803),
    ('desk', 100.0, 0.01, 0, 1.1698564113164167),
    ('desk', 100.0, 0.01, 1, 0.7849071294012901),
    ('desk', 125.0, 0.01, 0, 5.684341886080802e-14),
    ('desk', 125.0, 0.01, 1, 4.263256414560601e-14),
    ('rate_50_q', 80.0, 1.0, 0, 20.630784241130982),
    ('rate_50_q', 80.0, 1.0, 1, 20.604944683477044),
    ('rate_50_q', 100.0, 1.0, 0, 9.126261640228932),
    ('rate_50_q', 100.0, 1.0, 1, 9.086387898084837),
    ('rate_50_q', 125.0, 1.0, 0, 2.603239521154478),
    ('rate_50_q', 125.0, 1.0, 1, 2.5748714416146754),
    ('rate_50_q', 80.0, 0.01, 0, 19.981270077843817),
    ('rate_50_q', 80.0, 0.01, 1, 19.978740331869375),
    ('rate_50_q', 100.0, 0.01, 0, 1.1222659687852286),
    ('rate_50_q', 100.0, 0.01, 1, 0.8672881522138027),
    ('rate_50_q', 125.0, 0.01, 0, 2.842170943040401e-14),
    ('rate_50_q', 125.0, 0.01, 1, 4.263256414560601e-14),
    ('large_gamma', 80.0, 1.0, 0, 23.28442953837397),
    ('large_gamma', 80.0, 1.0, 1, 27.297921404957734),
    ('large_gamma', 100.0, 1.0, 0, 13.34474759719238),
    ('large_gamma', 100.0, 1.0, 1, 17.6542475141663),
    ('large_gamma', 125.0, 1.0, 0, 6.7564264001769345),
    ('large_gamma', 125.0, 1.0, 1, 10.135233424369673),
    ('large_gamma', 80.0, 0.01, 0, 19.921069269361226),
    ('large_gamma', 80.0, 0.01, 1, 19.98983132018425),
    ('large_gamma', 100.0, 0.01, 0, 0.38944697117358373),
    ('large_gamma', 100.0, 0.01, 1, 1.986260297490034),
    ('large_gamma', 125.0, 0.01, 0, 1.0830135011019593e-08),
    ('large_gamma', 125.0, 0.01, 1, 4.583466960639271e-06),
    ('one_way', 80.0, 1.0, 0, 19.07743533744069),
    ('one_way', 80.0, 1.0, 1, 18.606232801599973),
    ('one_way', 100.0, 1.0, 0, 7.8235144713120945),
    ('one_way', 100.0, 1.0, 1, 6.457956738703828),
    ('one_way', 125.0, 1.0, 0, 2.013557514500633),
    ('one_way', 125.0, 1.0, 1, 1.0745424704592637),
    ('one_way', 80.0, 0.01, 0, 19.950211085172825),
    ('one_way', 80.0, 0.01, 1, 19.97000449955003),
    ('one_way', 100.0, 0.01, 0, 1.1680564093241088),
    ('one_way', 100.0, 0.01, 1, 0.7828435923422603),
    ('one_way', 125.0, 0.01, 0, 8.526512829121202e-14),
    ('one_way', 125.0, 0.01, 1, 4.263256414560601e-14),
    ('low_vol', 80.0, 1.0, 0, 15.668580566027018),
    ('low_vol', 80.0, 1.0, 1, 16.50375044139288),
    ('low_vol', 100.0, 1.0, 0, 0.7531384729493737),
    ('low_vol', 100.0, 1.0, 1, 1.3139100665319603),
    ('low_vol', 125.0, 1.0, 0, 6.252124474315224e-05),
    ('low_vol', 125.0, 1.0, 1, 0.0003883720998487661),
    ('low_vol', 80.0, 0.01, 0, 19.950111791528357),
    ('low_vol', 80.0, 0.01, 1, 19.969905199307803),
    ('low_vol', 100.0, 0.01, 0, 0.17599714871481353),
    ('low_vol', 100.0, 0.01, 1, 0.28389365549786305),
    ('low_vol', 125.0, 0.01, 0, 2.842170943040401e-14),
    ('low_vol', 125.0, 0.01, 1, 4.263256414560601e-14),
]


class TestSpectralLegPrices:
    """Prices of the spectral (Fourier-inversion) leg this one replaced, made
    from the repository root in a ``git archive`` copy of commit 228d150::

        mkdir spectral && git archive 228d150 | tar -x -C spectral
        PYTHONPATH=spectral/src:tests python -c '
        from test_european import _TABLE_MODELS, price_european_put_rs, two_state_model
        for name, params in _TABLE_MODELS.items():
            for ttm in (1.0, 0.01):
                for s in (80.0, 100.0, 125.0):
                    for regime in (0, 1):
                        model = two_state_model(*params)
                        price = price_european_put_rs(model, s, 100.0, 0.0, ttm, regime).price
                        print(f"({name!r}, {s!r}, {ttm!r}, {regime}, {price!r}),")'

    Every one of them converged there.
    """

    @pytest.mark.parametrize("name, s, ttm, regime, want", _SPECTRAL_PRICES)
    def test_price_within_tolerance(self, name, s, ttm, regime, want):
        res = price_european_put_rs(two_state_model(*_TABLE_MODELS[name]), s, K, 0.0, ttm,
                                    regime)
        assert abs(res.price - want) <= _tolerance(want)


class TestOccupationLaw:
    @pytest.mark.parametrize("name", list(_TABLE_MODELS))
    def test_node_rule_agrees_with_twice_its_nodes(self, name):
        # every level of the series guess on the default grid (strike 1/T = 1,
        # spots e^z), and two longer maturities
        model = two_state_model(*_TABLE_MODELS[name])
        z, u = ham_grid(HamConfig(), 1.0)
        s_values = np.exp(z)
        for ttm in [*u[1:], 2.0, 3.0]:
            n = european._node_count(model, ttm)
            got = european._occupation_put(model, s_values, 1.0, ttm, n)
            want = european._occupation_put(model, s_values, 1.0, ttm, 2 * n)
            assert np.max(np.abs(got - want)) <= 1e-12, f"ttm = {ttm}, {n} nodes"

    @pytest.mark.parametrize("name", [*_TABLE_MODELS, "rate_500"])
    @pytest.mark.parametrize("ttm", [1e-7, 0.01, 1.0, 3.0])
    def test_weights_and_atom_sum_to_one(self, name, ttm):
        # and discount by the closed-form expected discount, which is the same
        # law's mean of e^{-R}
        params = _TABLE_MODELS.get(name, (0.05, 0.03, 0.3, 0.2, 500.0, 500.0))
        model = two_state_model(*params)
        x, weights, atoms = european._occupation_law(model, ttm, european._node_count(model, ttm))
        assert np.all(weights >= 0.0)
        assert np.max(np.abs(weights.sum(axis=1) + atoms - 1.0)) <= 1e-13
        r0, r1 = model.r
        disc = weights @ np.exp(-(r0 * x + r1 * (ttm - x))) + atoms * np.exp(-np.array([r0, r1]) * ttm)
        assert np.max(np.abs(disc - discounted_strike_vector(model, 1.0, ttm))) <= 1e-13
