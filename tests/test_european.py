"""Tests for the closed-form European put under two-state switching.

The semi-analytic price is an inverse-transform integral whose integrand
is built from the occupation-time density of the chain. The tests
cross-check it against the Black-Scholes limit, against Monte Carlo with
exact terminal sampling, and against its own structural limits (tiny
spot, strong mixing, expiry).
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsasian import (
    AsianOptionSpec,
    MarketState,
    McConfig,
    QuadratureNotConverged,
    QuadratureSpec,
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
        # equal variances take the spectral path like any other model
        quad = QuadratureSpec()
        res = price_european_put_rs(flat_model, S0, K, 0.0, T, 0, quad=quad)
        want = black_scholes_put(S0, K, 0.05, 0.3, T)
        assert abs(res.price - want) <= max(quad.abs_tol, quad.rel_tol * abs(want))
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
        # with dividends the floor is D_i - s E[e^{-int q}], above D_i - s; the
        # refined sum falls short of it by about 6e-9, inside its tolerance
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0, 0.04, 0.02)
        ttm, s = 0.02, 30.0
        res = price_european_put_rs(model, s, K, 0.0, ttm, 0)
        d = discounted_strike_vector(model, K, ttm)[0]
        q_disc = discounted_strike_vector(model.swap_rates_dividends(), 1.0, ttm)[0]
        assert res.price == d - s * q_disc
        assert res.diagnostics["unclipped_price"] < res.price

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
    def test_price_stable_under_refinement(self, desk_model, monkeypatch):
        res = price_european_put_rs(desk_model, S0, K, 0.0, T, 0)
        assert set(res.diagnostics) == {"nodes"}, "an in-bound price records no clip"
        base = res.price
        monkeypatch.setattr(european, "_MIN_PANELS", 2 * european._MIN_PANELS)
        fine = price_european_put_rs(desk_model, S0, K, 0.0, T, 0).price
        assert np.isclose(base, fine, rtol=1e-8), f"{base} vs {fine}"

    @pytest.mark.parametrize("moneyness", [0.9, 1.1])
    def test_short_maturity_meets_the_tolerance(self, desk_model, moneyness):
        # the first pass misses here by far (its estimate is 0.16-0.18, and at
        # s/k = 1.1 it reads -0.007); the price refines until the estimate is
        # within tolerance, then sits in its bounds
        quad, ttm = QuadratureSpec(), 1e-3
        res = price_european_put_rs(desk_model, moneyness * K, K, 0.0, ttm, 0, quad=quad)
        assert res.error_estimate <= max(quad.abs_tol, quad.rel_tol * abs(res.price))
        assert 0.0 <= res.price <= discounted_strike_vector(desk_model, K, ttm)[0]
        if moneyness > 1.0:
            assert res.price == 0.0
            assert -1e-9 < res.diagnostics["unclipped_price"] < 0.0

    def test_tolerance_below_roundoff_is_refused(self, desk_model):
        # at ttm = 1 the halved rule agrees with the priced rule to the bit, so
        # without its roundoff floor the estimate read 2.7e-42 and met 1e-16
        d = discounted_strike_vector(desk_model, K, T)[0]
        res = price_european_put_rs(desk_model, S0, K, 0.0, T, 0)
        assert res.error_estimate >= 8.0 * np.spacing(d)
        quad = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16)
        with pytest.raises(QuadratureNotConverged, match="error estimate"):
            price_european_put_rs(desk_model, S0, K, 0.0, T, 0, quad=quad)

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


def _one_pass_rule(model, ttm, omega_max, n_panels):
    """Panel midpoints (P,), node offsets (20,) and weighted terms (2, P, 20)
    of the rule, every node's terms made in one call."""
    half = 0.5 * omega_max / n_panels
    mid = (2.0 * np.arange(n_panels) + 1.0) * half
    offsets = half * european._GL_NODES
    terms = european._spectral_terms(model, (mid[:, None] + offsets).ravel(), ttm)
    return mid, offsets, terms.reshape(2, n_panels, 20) * (half * european._GL_WEIGHTS)


def _dense_phase_sum(mid, offsets, terms, x):
    """The transform part ``w`` (2, n_x) with ``e^{i omega x}`` formed at every
    node instead of factored by panel."""
    phase = np.exp(1j * np.outer((mid[:, None] + offsets[None, :]).ravel(), x))
    return (terms.reshape(2, -1, 1) * phase[None, :, :]).real.sum(axis=1) / math.pi


def _spectral_terms_both_branches(model, omega, ttm):
    """``_spectral_terms`` with the small-``rad`` series formed at every node and
    chosen by ``np.where``, and the mask of small nodes."""
    sig_sq, r, q = model.sigma_array() ** 2, model.r_array(), model.q_array()
    a1, a2 = model.gen[0][1], model.gen[1][0]
    om_sq = omega * omega + 0.25
    phi = (0.5 * sig_sq[:, None] * om_sq[None, :] - 1j * omega[None, :] * (r - q)[:, None]
           + 0.5 * (r + q)[:, None] + np.array([a1, a2])[:, None])
    h, delta = 0.5 * (phi[0] + phi[1]), 0.5 * (phi[0] - phi[1])
    rad = np.sqrt(delta * delta + a1 * a2)
    e_plus, e_minus = np.exp((rad - h) * ttm), np.exp(-(rad + h) * ttm)
    cosh_term = 0.5 * (e_plus + e_minus)
    small = np.abs(rad) * ttm < 1e-8
    sinh_term = np.where(small, ttm * np.exp(-h * ttm) * (1.0 + (rad * ttm) ** 2 / 6.0),
                         0.5 * (e_plus - e_minus) / np.where(small, 1.0, rad))
    payoff_hat = -1.0 / om_sq
    return np.stack([(cosh_term + (a1 - delta) * sinh_term) * payoff_hat,
                     (cosh_term + (a2 + delta) * sinh_term) * payoff_hat]), small


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


class TestSpectralTerms:
    @pytest.mark.parametrize("params, every_node_small", [
        ((0.0625, 0.03125, 0.3, 0.3, 0.0, 0.03125, 0.03125, 0.0), True),
        ((0.05, 0.03, 0.3, 0.2, 1.0, 1.0), False),
    ], ids=["one_way_switching", "desk"])
    def test_series_branch_where_needed_equals_both_branches(self, params, every_node_small):
        # equal volatilities and r - q, and the one switch rate equal to half
        # the gap in r + q, make the regimes' exponents equal (to the bit: the
        # rates are binary fractions) and rad = 0 at every node; the series
        # then carries regime 1's terms. The desk model leaves no node small
        model = two_state_model(*params)
        ttm = 0.5
        omega_max, n_panels = european._exact_grid_sizes(model, ttm, 3.0)
        mid, offsets, _ = _one_pass_rule(model, ttm, omega_max, n_panels)
        omega = (mid[:, None] + offsets).ravel()
        want, small = _spectral_terms_both_branches(model, omega, ttm)
        assert small.all() if every_node_small else not small.any()
        assert np.array_equal(european._spectral_terms(model, omega, ttm), want)


class TestPanelFactorisedSum:
    @settings(max_examples=40, deadline=None)
    @given(
        moneyness=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=12),
        k=st.floats(0.5, 200.0),
        ttm=st.floats(1e-3, 5.0),
        params=st.tuples(_rates, _rates, _vols, _vols, _switch, _switch, _rates, _rates),
    )
    def test_matches_the_dense_phase_sum(self, moneyness, k, ttm, params):
        # unsorted spots off any lattice
        model = two_state_model(*params)
        s_values = k * np.array(moneyness)
        x = np.log(s_values / k)
        omega_max, n_panels = european._exact_grid_sizes(model, ttm, float(np.max(np.abs(x))))
        dense = _dense_phase_sum(*_one_pass_rule(model, ttm, omega_max, n_panels), x)
        want = discounted_strike_vector(model, k, ttm)[:, None] + np.sqrt(s_values * k) * dense
        got = european_put_grid(model, s_values, k, ttm)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, k)

    def test_blocked_spectrum_equals_one_pass(self, desk_model):
        # refined prices stream the panels a block at a time, carrying the
        # running phase product across blocks; three blocks, the last one short
        ttm, omega_max, n_panels = 1e-3, 3000.0, 2 * european._PANEL_BLOCK + 3
        s_values = np.array([80.0, 97.0, 100.0, 104.5, 125.0])
        x = np.log(s_values / K)
        mid, offsets, terms = _one_pass_rule(desk_model, ttm, omega_max, n_panels)
        dense = _dense_phase_sum(mid, offsets, terms, x)
        w, last = european._put_transform(desk_model, x, ttm, omega_max, n_panels)
        assert w.shape == (2, len(x)) and last.shape == (2, 20)
        assert np.max(np.abs(np.sqrt(s_values * K) * (w - dense))) <= 1e-12 * K
        assert np.max(np.abs(last - terms[:, -1])) <= 1e-12 * np.max(np.abs(terms[:, -1]))

    def test_carry_across_many_blocks_matches_the_dense_phase_sum(self, desk_model):
        # 10_007 panels at a short maturity: 40 blocks, the last one short, and
        # 626 sub-blocks of _PHASE_ROWS panels whose running phase is carried
        # from block to block
        ttm, omega_max, n_panels = 1e-6, 45_000.0, 10_007
        s_values = np.array([99.0, 99.9, 100.0, 100.2, 101.0])
        x = np.log(s_values / K)
        mid, offsets, terms = _one_pass_rule(desk_model, ttm, omega_max, n_panels)
        dense = _dense_phase_sum(mid, offsets, terms, x)
        w, last = european._put_transform(desk_model, x, ttm, omega_max, n_panels)
        assert np.max(np.abs(np.sqrt(s_values * K) * (w - dense))) <= 1e-12 * K
        assert np.array_equal(last, terms[:, -1])

    def test_series_guess_levels_match_the_per_panel_phases(self, desk_model):
        # every level the series guess reads on the default grid; its shortest
        # maturity, u = 0.01, takes the most panels and the longest running
        # product, and still fits one block
        z, u = ham_grid(HamConfig(), 1.0)
        s_values = np.exp(z)
        panels = []
        for ttm in u[1:]:
            omega_max, n_panels = european._exact_grid_sizes(desk_model, ttm, z[-1])
            mid, offsets, terms = _one_pass_rule(desk_model, ttm, omega_max, n_panels)
            inner = terms @ np.exp(1j * np.outer(offsets, z))
            direct = (inner * np.exp(1j * np.outer(mid, z))).real.sum(axis=1) / math.pi
            want = (discounted_strike_vector(desk_model, 1.0, ttm)[:, None]
                    + np.sqrt(s_values) * direct)
            got = european_put_grid(desk_model, s_values, 1.0, ttm)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), f"u = {ttm}"
            panels.append(n_panels)
        assert max(panels) == panels[0] == 243 <= european._PANEL_BLOCK


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
        quad = QuadratureSpec()
        res = price_european_put_rs(model, s, k, 0.0, ttm, regime, quad=quad)
        assert res.error_estimate <= max(quad.abs_tol, quad.rel_tol * abs(res.price))
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
        quad = QuadratureSpec()
        got = price_european_put_rs(model, s, k, t_share * T, T, regime, quad=quad).price
        want = black_scholes_put(s, k, r, sigma, T - t_share * T, q)
        assert abs(got - want) <= max(quad.abs_tol, quad.rel_tol * abs(want)), f"{got} vs BS {want}"
