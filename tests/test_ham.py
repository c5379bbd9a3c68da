"""Tests for the homotopy series engine on the reduced half-line problem.

Each deformation term is produced from the previous one by a linear
integral step against the drifted heat kernel, starting from either a
zero guess or the closed-form European value. The tests pin the exact
structural properties (initial conditions, linearity, the zero fixed
point, far-field flooring) and smoke-test the recursion residual; the
production-grid residual bound lives in the acceptance suite.
"""

import dataclasses

import numpy as np
import pytest

from rsasian import (
    ExtrapolationRefused,
    FdConfig,
    HamConfig,
    MarketState,
    assemble_series,
    build_terms,
    greens_function,
    ham_grid,
    ham_step,
    ham_vs_fd_report,
    price_floating_put_ham,
    recursion_residual,
    series_dollar_price,
)
from rsasian import ham

COARSE = HamConfig(m_trunc=2, n_z=101, n_u=21)


@pytest.fixture(scope="module")
def desk_terms(desk_model):
    return build_terms(desk_model, 1.0, COARSE)


class TestGrid:
    def test_contains_the_at_the_money_node(self):
        z, u = ham_grid(COARSE, 1.0)
        assert 0.0 in z, "z = 0 (average equal to spot) must be a grid node"
        assert z.shape == (101,) and u.shape == (21,)
        assert u[0] == 0.0 and u[-1] == 1.0

    def test_default_window_tracks_expiry(self):
        z2, _ = ham_grid(HamConfig(), 2.0)
        z1, _ = ham_grid(HamConfig(), 1.0)
        assert z2[0] < z1[0], "longer expiries need a deeper in-the-money edge"
        # the far cutoff is expiry independent up to the snapping that keeps
        # z = 0 exactly on a node
        assert z2[-1] == pytest.approx(z1[-1], abs=0.05)


class TestStructure:
    def test_leading_term_starts_at_the_payoff(self, desk_terms):
        z = np.asarray(desk_terms[0].z_nodes)
        want = np.maximum(np.exp(-z) / 1.0 - 1.0, 0.0)
        for i in range(2):
            got = np.asarray(desk_terms[0].values[i])[0]
            assert np.array_equal(got, want), f"regime {i} initial row off"

    def test_corrections_vanish_at_the_initial_layer(self, desk_terms):
        for term in desk_terms[1:]:
            for i in range(2):
                row = np.asarray(term.values[i])[0]
                assert not row.any(), f"term {term.m} regime {i} nonzero at u = 0"

    def test_far_field_is_floored_to_zero(self, desk_terms):
        for term in desk_terms[1:]:
            for i in range(2):
                assert term.boundary_decay(i) == 0.0

    def test_zero_guess_with_zero_terminal_is_a_fixed_point(self, desk_model):
        cfg = dataclasses.replace(
            COARSE, initial_guess_mode="zero", terminal_mode="paper_zero"
        )
        terms = build_terms(desk_model, 1.0, cfg)
        for term in terms:
            for i in range(2):
                assert not np.asarray(term.values[i]).any(), f"term {term.m}"

    def test_step_is_linear(self, desk_model, desk_terms):
        base = desk_terms[0]
        doubled = dataclasses.replace(
            base,
            values=tuple(2.0 * np.asarray(v) for v in base.values),
            d_dz=tuple(2.0 * np.asarray(v) for v in base.d_dz),
        )
        one = ham_step(base, desk_model)
        two = ham_step(doubled, desk_model)
        for i in range(2):
            assert np.array_equal(
                2.0 * np.asarray(one.values[i]), np.asarray(two.values[i])
            ), f"regime {i}"

    def test_tables_integrate_the_shared_kernel(self):
        # column n of the table is the hat at xi_n integrated against the
        # kernel that criterion 4 checks; gamma != 1 keeps the erfc piece live
        z, _ = ham_grid(COARSE, 1.0)
        j0 = int(np.argmin(np.abs(z)))
        h = z[1] - z[0]
        tau, gamma, n = 0.05, 1.5, 10
        mat = ham._build_tables(z, j0, tau, gamma)
        centre = z[j0 + n]
        xi = np.linspace(centre - h, centre + h, 20001)
        hat = 1.0 - np.abs(xi - centre) / h
        want = np.trapezoid(greens_function(tau, z[:, None], xi[None, :], gamma) * hat, xi, axis=1)
        assert np.max(np.abs(mat[:, n] - want)) < 1e-8

    @pytest.mark.parametrize("m", [1, 2])
    def test_recursion_residual_smoke(self, desk_model, desk_terms, m):
        # coarse-grid smoke bound; the production grid must reach 1e-3
        res = recursion_residual(desk_terms[m], desk_terms[m - 1], desk_model)
        assert max(res.values()) < 1e-2, f"m = {m}: {res}"


class TestPricing:
    def test_expiry_on_a_grid_node_returns_the_payoff(self, desk_model, desk_terms):
        z = np.asarray(desk_terms[0].z_nodes)
        z_node = z[20]  # in the money: average above spot
        a = 100.0 * np.exp(-z_node) * 1.0
        state = MarketState(t=1.0, s=100.0, a=a, regime=0)
        surfaces = assemble_series(desk_terms)
        price, diag = series_dollar_price(surfaces, state, 1.0)
        want = max(a / 1.0 - 100.0, 0.0)
        assert price == pytest.approx(want, rel=1e-12), f"{price} vs {want}"
        assert diag["z"] == pytest.approx(z_node)

    def test_expiry_off_node_interpolates_the_payoff(self, desk_model):
        state = MarketState(t=1.0, s=100.0, a=120.0, regime=0)
        res = price_floating_put_ham(state, desk_model, COARSE, 1.0)
        assert res.price == pytest.approx(20.0, rel=2e-2)

    def test_price_is_homogeneous(self, desk_model, desk_terms):
        surfaces = assemble_series(desk_terms)
        base, _ = series_dollar_price(
            surfaces, MarketState(t=0.5, s=100.0, a=50.0, regime=0), 1.0
        )
        double, _ = series_dollar_price(
            surfaces, MarketState(t=0.5, s=200.0, a=100.0, regime=0), 1.0
        )
        assert double == 2.0 * base

    def test_inception_state_is_clamped_to_the_far_field(self, desk_model):
        state = MarketState(t=0.0, s=100.0, a=0.0, regime=0)
        res = price_floating_put_ham(state, desk_model, COARSE, 1.0)
        assert res.diagnostics["clamped"] is True
        assert res.price == 0.0

    def test_diagnostics_are_complete(self, desk_model):
        state = MarketState(t=0.5, s=100.0, a=50.0, regime=0)
        res = price_floating_put_ham(state, desk_model, COARSE, 1.0)
        for key in ("m_trunc", "terminal_mode", "initial_guess_mode", "z", "clamped",
                    "term_norms"):
            assert key in res.diagnostics, key
        assert res.price >= 0.0 and np.isfinite(res.price)

    def test_partials_are_the_running_sums(self, desk_terms):
        surfaces = assemble_series(desk_terms)
        assert surfaces.partials.shape == (3, 2, 21, 101)
        for k in range(len(desk_terms)):
            alone = assemble_series(desk_terms[: k + 1])
            assert np.array_equal(surfaces.partials[k], alone.partials[-1]), f"m = {k}"
        assert np.array_equal(surfaces.partials[0][0], desk_terms[0].values[0])

    def test_surface_cache_is_bounded(self, desk_model):
        cfg = HamConfig(m_trunc=1, n_z=41, n_u=5)
        ham._SURFACES_CACHE.clear()
        try:
            expiries = [1.0 + 0.1 * k for k in range(ham._SURFACES_CACHE_SIZE + 3)]
            for T in expiries:
                ham.series_surfaces(desk_model, T, cfg)
                assert len(ham._SURFACES_CACHE) <= ham._SURFACES_CACHE_SIZE
            assert (desk_model, expiries[0], cfg) not in ham._SURFACES_CACHE
            last = ham.series_surfaces(desk_model, expiries[-1], cfg)
            assert ham.series_surfaces(desk_model, expiries[-1], cfg) is last
            assert len(ham._SURFACES_CACHE) == ham._SURFACES_CACHE_SIZE
        finally:
            ham._SURFACES_CACHE.clear()

    def test_deep_in_the_money_refused(self, desk_model):
        state = MarketState(t=0.9, s=10.0, a=300.0, regime=0)
        with pytest.raises(ExtrapolationRefused):
            price_floating_put_ham(state, desk_model, COARSE, 1.0)

    def test_past_expiry_refused(self, desk_model):
        state = MarketState(t=1.5, s=100.0, a=100.0, regime=0)
        with pytest.raises(ExtrapolationRefused):
            price_floating_put_ham(state, desk_model, COARSE, 1.0)


class TestComparisonReport:
    def test_report_covers_all_four_modes(self, desk_model):
        rep = ham_vs_fd_report(
            desk_model,
            1.0,
            config=HamConfig(m_trunc=3, n_z=101, n_u=21),
            fd_config=FdConfig(n_y=100, n_t=100),
        )
        modes = {(m["terminal_mode"], m["initial_guess_mode"]) for m in rep["modes"]}
        assert modes == {
            ("payoff", "european_rs"),
            ("payoff", "zero"),
            ("paper_zero", "european_rs"),
            ("paper_zero", "zero"),
        }
        assert isinstance(rep["any_mode_non_increasing"], bool)
        for mode in rep["modes"]:
            assert np.isfinite(np.asarray(mode["term_norms"])).all()
            assert np.isfinite(np.asarray(mode["deltas"])).all()
            assert len(mode["probes"]) == 6
            for probe in mode["probes"]:
                assert np.isfinite(probe["gap"]) and probe["fd"] >= 0.0

    def test_repeated_report_builds_nothing(self, desk_model, build_calls):
        kwargs = dict(config=HamConfig(m_trunc=2, n_z=41, n_u=5),
                      fd_config=FdConfig(n_y=50, n_t=50))
        first = ham_vs_fd_report(desk_model, 1.0, **kwargs)
        assert len(build_calls) == 4, "one build per mode combination"
        assert ham_vs_fd_report(desk_model, 1.0, **kwargs) == first
        assert len(build_calls) == 4, "the second report reads the cached surfaces"
