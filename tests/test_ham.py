"""Tests for the homotopy series engine on the reduced half-line problem.

Each deformation term is produced from the previous one by a linear
integral step against the drifted heat kernel, starting from either a
zero guess or the closed-form European value. The tests pin the exact
structural properties (initial conditions, linearity, the zero fixed
point, far-field flooring) and smoke-test the recursion residual; the
production-grid residual bound lives in the acceptance suite.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from rsasian import (
    FdConfig,
    HamConfig,
    InterpolationOutOfRange,
    MarketState,
    PricingError,
    RegimeModel,
    ValidationError,
    assemble_series,
    build_terms,
    greens_function,
    ham_grid,
    ham_step,
    ham_vs_fd_report,
    price_floating_put_ham,
    recursion_residual,
    series_dollar_price,
    two_state_model,
)
from rsasian import ham
from rsasian.fd import richardson_limit, richardson_order
from rsasian.greens import robin_correction
from rsasian.model import _SURFACES_CACHE_SIZE

COARSE = HamConfig(m_trunc=2, n_z=101, n_u=21)


@pytest.fixture(scope="module")
def desk_terms(desk_model):
    return build_terms(desk_model, 1.0, COARSE)


def _robin_lobes_per_lobe(d, h, tau, gamma):
    """Left and right hat-lobe integrals of the correction piece, each lobe by
    its own 8-node Gauss-Legendre panels: as many panels as ``_robin_lobes``
    gives the kernel time, and zero for a node whose left edge lies beyond the cut."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    lobes = np.zeros((2, len(tau), len(d)))
    for r, t in enumerate(tau):
        root2 = 2.0 * np.sqrt(t)
        n_pan = max(1, int(np.ceil(h / min(h, ham._ROBIN_PANEL_X * root2))))
        edges = np.linspace(0.0, h, n_pan + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            off = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes  # within the lobe
            w = 0.5 * (hi - lo) * weights
            left = robin_correction(d[:, None] - h + off, t, gamma) * (off / h)
            right = robin_correction(d[:, None] + off, t, gamma) * (1.0 - off / h)
            lobes[0, r] += left @ w
            lobes[1, r] += right @ w
        lobes[:, r, d - h >= ham._ROBIN_CUT_X * root2] = 0.0
    return lobes


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

    def test_dividends_are_refused(self):
        # the recursion has no q term: the series would price a q > 0 model as q = 0
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0, 0.04, 0.02)
        with pytest.raises(ValidationError, match=r"model\.q=\[0\.04, 0\.02\]"):
            build_terms(model, 1.0, COARSE)

    def test_step_is_linear(self, desk_model, desk_terms):
        base = desk_terms[0]
        doubled = dataclasses.replace(base, values=2.0 * base.values)
        one = ham_step(base, desk_model)
        two = ham_step(doubled, desk_model)
        for i in range(2):
            assert np.array_equal(
                2.0 * np.asarray(one.values[i]), np.asarray(two.values[i])
            ), f"regime {i}"

    def test_prebuilt_generators_give_the_same_step(self, desk_model, desk_terms,
                                                    cold_surfaces):
        # build_terms steps with the kernel the cache kept; a step on an emptied
        # cache builds its own and gives the same term 1, bit for bit
        step = ham_step(desk_terms[0], desk_model)
        assert len(cold_surfaces) == 1, "the step kept its kernel"
        assert np.array_equal(desk_terms[1].values, step.values)

    def test_a_cached_kernel_is_read_only(self, desk_model, desk_terms, cold_surfaces):
        ham_step(desk_terms[0], desk_model)
        (kernel,) = cold_surfaces.values()
        for name in ("spectra", "clips"):
            with pytest.raises(ValueError, match="read-only"):
                kernel[name][0, 0, 0, 0] = 0.0

    @pytest.mark.parametrize("m_trunc", [1, 4])
    def test_build_makes_each_lag_generator_once(self, desk_model, monkeypatch, cold_surfaces,
                                                 m_trunc):
        lags = []
        make = ham._kernel_generators
        monkeypatch.setattr(ham, "_kernel_generators",
                            lambda *args: lags.append(len(args[2])) or make(*args))
        build_terms(desk_model, 1.0, HamConfig(m_trunc=m_trunc, n_z=41, n_u=5))
        assert sum(lags) == 2 * (5 - 1)

    @pytest.mark.parametrize("model", [
        two_state_model(0.05, 0.03, 0.3, 0.2, 1.0, 1.0),
        two_state_model(0.05, 0.03, 0.3, 0.2, 0.5, 2.0),
        two_state_model(0.045, 0.03, 0.3, 0.2, 0.5, 2.0),
    ], ids=["desk", "asymmetric", "gamma_one"])
    def test_all_lag_generators_equal_one_lag_calls(self, model):
        # one call makes every lag of a regime; each row is, bit for bit, what a
        # call for that lag alone makes. gamma_one has r = sigma^2/2 in regime 0,
        # so its correction piece is zero there
        if model.r[0] == 0.045:
            assert ham.rate_ratios(model, 0)[1] == 1.0
        z, u = ham_grid(COARSE, 1.0)
        j0 = int(np.argmin(np.abs(z)))
        lags = np.arange(1, len(u))
        for i in (0, 1):
            gamma = ham.rate_ratios(model, i)[1]
            tau = 0.5 * model.sigma[i] ** 2 * lags * (u[1] - u[0])
            every = ham._kernel_generators(z, j0, tau, gamma)
            for j in range(len(lags)):
                one = ham._kernel_generators(z, j0, tau[j:j + 1], gamma)
                for name, all_rows, row in zip(("w1", "w2", "c0", "c_n"), every, one):
                    assert np.array_equal(all_rows[j], row[0]), f"regime {i}, lag {j + 1}, {name}"

    @pytest.mark.parametrize("n", [0, 10, -1])
    def test_tables_integrate_the_shared_kernel(self, n):
        # the weights the step applies to a unit source at xi_n, read two
        # levels later, are the hat at xi_n integrated against the kernel that
        # criterion 4 checks. sigma = 1 and r = 0.75 give tau = (sigma^2/2) 2 du
        # = 0.05 and gamma = 1.5, which keeps the erfc piece live. The edge
        # nodes (0 and n_xi - 1) are half hats: xi stays in [0, xi_max]
        model = two_state_model(0.75, 0.75, 1.0, 1.0, 1.0, 1.0)
        z, u = ham_grid(COARSE, 1.0)
        j0 = int(np.argmin(np.abs(z)))
        h = z[1] - z[0]
        tau, gamma, lag = 0.05, 1.5, 2
        assert 0.5 * model.sigma[0] ** 2 * lag * (u[1] - u[0]) == pytest.approx(tau, rel=1e-15)
        assert ham.rate_ratios(model, 0)[1] == gamma
        source = np.zeros((2, len(z) - j0, len(u)))
        n = n % source.shape[1]
        source[:, n, 0] = 1.0
        weights = ham._kernel_integral(ham._lag_generators(z, u, model), source)[0, :, lag]
        centre = z[j0 + n]
        xi = np.linspace(max(centre - h, 0.0), min(centre + h, z[-1]), 20001)
        hat = 1.0 - np.abs(xi - centre) / h
        want = np.trapezoid(greens_function(tau, z[:, None], xi[None, :], gamma) * hat, xi, axis=1)
        assert np.max(np.abs(weights - want)) < 1e-8

    @pytest.mark.parametrize("guess", ["zero", "european_rs"])
    @pytest.mark.parametrize("model", ["desk", "asymmetric"])
    def test_convolution_matches_the_dense_lag_products(self, desk_model, monkeypatch,
                                                        model, guess):
        # reference: the lag sum as one dense table product per regime and lag,
        # with the generators _lag_generators asked for; gamma != 1 in both regimes
        model = desk_model if model == "desk" else two_state_model(0.05, 0.03, 0.3, 0.2, 0.5, 2.0)
        cfg = dataclasses.replace(COARSE, m_trunc=4, initial_guess_mode=guess)
        z, u = ham_grid(cfg, 1.0)
        calls = []
        make = ham._kernel_generators
        monkeypatch.setattr(ham, "_kernel_generators",
                            lambda *args: calls.append((args, make(*args))) or calls[-1][1])
        ham._lag_generators(z, u, model)
        monkeypatch.undo()
        n_z, n_u, du = len(z), len(u), u[1] - u[0]
        assert len(calls) == 2, "one call per regime makes every lag"
        for i, (args, _) in enumerate(calls):
            tau = 0.5 * model.sigma[i] ** 2 * np.arange(1, n_u) * du
            assert np.array_equal(args[2], tau), f"regime {i}"
            assert args[3] == ham.rate_ratios(model, i)[1], f"regime {i}"
        gens = [[tuple(g[j] for g in out) for j in range(n_u - 1)] for _, out in calls]

        def dense(_, s_half):
            n_xi = s_half.shape[1]
            k, n = np.ogrid[:n_z, :n_xi]
            accum = np.zeros((2, n_z, n_u))
            for i in (0, 1):
                for j in range(1, n_u):
                    w1, w2, c0, c_n = gens[i][j - 1]
                    mat = w1[k - n + n_xi - 1] + w2[k + n]
                    mat[:, 0] -= c0
                    mat[:, -1] -= c_n
                    accum[i, :, j:] += mat @ s_half[i, :, : n_u - j]
            return accum

        terms = build_terms(model, 1.0, cfg)
        for prev, fast in zip(terms, terms[1:]):
            with monkeypatch.context() as patch:
                patch.setattr(ham, "_kernel_integral", dense)
                slow = ham_step(prev, model)
            gap = np.max(np.abs(fast.values - slow.values))
            assert gap <= 1e-13 * np.max(np.abs(slow.values)), f"term {fast.m}: {gap}"

    @pytest.mark.parametrize("n_u", [5, 31])
    @pytest.mark.parametrize("n_z", [41, 121])
    def test_one_transform_step_matches_two_transforms(self, n_z, n_u):
        # reference: the source and its xi reversal transformed apart, against
        # the unphased w2 stack, at the exact linear-convolution size, so
        # nothing wraps; the clips as direct lag sums against the two edge rows.
        # The step pads xi to a 5-smooth length, so its row reversal wraps at a
        # length other than the source's, and keeps the clips as u-spectra
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 0.5, 2.0)
        z, u = ham_grid(HamConfig(n_z=n_z, n_u=n_u), 1.0)
        j0 = int(np.argmin(np.abs(z)))
        n_xi = n_z - j0
        kernel = ham._lag_generators(z, u, model)
        n0, n1 = kernel["shape"]
        assert n0 != n_z + n_xi - 1
        assert kernel["spectra"].shape == (2, 2, n0, n1 // 2 + 1)
        assert kernel["clips"].shape == (2, 2, n_z, n1 // 2 + 1)
        source = np.random.default_rng(n_z + n_u).standard_normal((2, n_xi, n_u))
        shape = (n_z + 2 * n_xi - 2, 2 * n_u - 1)
        want = np.empty((2, n_z, n_u))
        for i in (0, 1):
            tau = 0.5 * model.sigma[i] ** 2 * np.arange(1, n_u) * (u[1] - u[0])
            w1, w2, c0, c_n = ham._kernel_generators(z, j0, tau, ham.rate_ratios(model, i)[1])
            stack = np.zeros((2, n_z + n_xi - 1, n_u))
            stack[0, :, 1:], stack[1, :, 1:] = w1.T, w2.T
            spec = np.fft.rfft2(stack, shape)
            planes = np.fft.rfft2(np.stack((source[i], source[i, ::-1])), shape)
            want[i] = np.fft.irfft2(np.sum(spec * planes, axis=0), shape)[n_xi - 1: n_xi - 1 + n_z, :n_u]
            for j in range(1, n_u):  # lag j's clips against the edge rows j levels back
                want[i, :, j:] -= (np.outer(c0[j - 1], source[i, 0, :n_u - j])
                                   + np.outer(c_n[j - 1], source[i, -1, :n_u - j]))
        got = ham._kernel_integral(kernel, source)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("cfg", [COARSE, HamConfig(n_z=43, n_u=9)], ids=["coarse", "odd_n0"])
    @pytest.mark.parametrize("model", ["desk", "large_gamma"])
    def test_reversed_views_give_the_gathered_copy_bits(self, desk_model, model, cfg):
        # reference: the lag sum as rfft2 into row-major spectra, reading the
        # xi-reversed spectrum from a gathered copy of the forward spectrum's rows;
        # the views and the xi-contiguous spectra make the same floating-point
        # operations on the same operands, so every bit agrees. The second grid
        # pads xi to an odd length, 75, so the reversal has no middle row
        model = desk_model if model == "desk" else two_state_model(0.08, 0.01, 0.1, 0.5, 3.0, 0.5)
        z, u = ham_grid(cfg, 1.0)
        kernel = ham._lag_generators(z, u, model)
        assert kernel["shape"][0] % 2 == (cfg.n_z == 43)
        n_xi = len(z) - kernel["j0"]
        source = np.random.default_rng(32).standard_normal((2, n_xi, len(u)))

        def gathered(kernel, s_half):
            n_xi, (n0, n1), n_z = s_half.shape[1], kernel["shape"], kernel["n_z"]
            spec = np.ascontiguousarray(kernel["spectra"])
            planes = np.fft.rfft2(s_half, (n0, n1))
            edges = np.fft.rfft(s_half[:, (0, -1), None], n1)
            part = planes[:, -np.arange(n0) % n0]
            part *= spec[:, 1]
            planes *= spec[:, 0]
            planes += part
            rows = np.fft.ifft(planes, axis=1, out=planes)[:, n_xi - 1: n_xi - 1 + n_z]
            for p in (0, 1):
                rows -= np.multiply(kernel["clips"][:, p], edges[:, p], out=part[:, :n_z])
            return np.fft.irfft(rows, n1)[..., :kernel["n_u"]].copy()

        assert np.array_equal(ham._kernel_integral(kernel, source), gathered(kernel, source))

    @pytest.mark.parametrize("window", [(None, None), (-8.0, 4.0)], ids=["default", "deep_itm"])
    def test_delta_identity_slices_give_the_gathered_bits(self, desk_model, monkeypatch,
                                                          window):
        # reference: the delta-identity term as one gather of the source at xi = |z|;
        # the deep window puts more nodes below z = 0 than above it, so its lowest
        # nodes' mirrors fall outside the source
        cfg = dataclasses.replace(COARSE, z_min=window[0], z_max=window[1])
        z, u = ham_grid(cfg, 1.0)
        j0, n_z = int(np.argmin(np.abs(z))), len(z)
        values = np.random.default_rng(7).standard_normal((2, len(u), n_z))
        prev = ham.TermGrid(m=1, z_nodes=z, u_nodes=u, values=values)
        lag_sum = np.random.default_rng(8).standard_normal((2, n_z, len(u)))
        seen = {}

        def fixed(_, s_half):  # the step adds the delta term to this array in place
            seen["s_half"], seen["accum"] = s_half, lag_sum.copy()
            return seen["accum"]

        monkeypatch.setattr(ham, "_kernel_integral", fixed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a random source has a heavy tail
            ham_step(prev, desk_model)
        s_hat = seen["s_half"].copy()
        s_hat[..., 0] *= 2.0
        mirror = np.abs(np.arange(n_z) - j0)
        inside = mirror <= (n_z - 1 - j0)
        if window[0] is not None:
            assert not inside.all()
        want = lag_sum.copy()
        want[:, inside] += 0.5 * s_hat[:, mirror[inside], :]
        assert np.array_equal(seen["accum"], want)

    @pytest.mark.parametrize("gamma", [1.5, 0.2, 16.0])
    @pytest.mark.parametrize("cfg", [COARSE, HamConfig()], ids=["coarse", "default"])
    def test_robin_lobes_match_one_rule_per_lobe(self, cfg, gamma):
        # reference: each lobe by its own panels, left over [d - h, d] and right
        # over [d, d + h]; the kernel evaluates each interval once for the two
        # lobes that share it. Lag 1 at sigma = 0.3 takes several panels per
        # lobe, the longest lags one, and the cut zeroes the far nodes
        z, u = ham_grid(cfg, 1.0)
        j0, h = int(np.argmin(np.abs(z))), z[1] - z[0]
        d = np.arange(-j0, 2 * len(z) - 2 * j0 - 1) * h
        tau = 0.045 * np.arange(1, len(u)) * (u[1] - u[0])
        got = ham._robin_lobes(d, h, tau, gamma)
        want = _robin_lobes_per_lobe(d, h, tau, gamma)
        assert (want[0][0] == 0.0).any() and (want[1][0] != 0.0).any()
        for side, name in enumerate(("left", "right")):
            assert np.array_equal(got[side] == 0.0, want[side] == 0.0), name
            gap = np.max(np.abs(got[side] - want[side]))
            assert gap <= 1e-14 * np.max(np.abs(want[side])), f"{name}: {gap}"

    @pytest.mark.parametrize("other, name", [
        (dict(T=2.0), "du"),
        (dict(n_z=121), "n_z"),
        (dict(n_u=31), "n_u"),
        (dict(model=two_state_model(0.06, 0.03, 0.3, 0.2, 1.0, 1.0)), "gamma"),
    ])
    def test_kernel_for_another_grid_or_model_is_not_reused(self, desk_model, cold_surfaces,
                                                            other, name):
        # the window is fixed, so a kernel for T = 2 differs from the step's
        # grid only in du, the spacing of its lag times. With that other kernel
        # cached, the step builds its own and gives the cold step's bits
        cfg = dataclasses.replace(COARSE, z_min=-3.0, z_max=9.0, initial_guess_mode="zero")
        prev = ham.initial_guess(desk_model, 1.0, cfg)
        cold = ham_step(prev, desk_model)
        cold_surfaces.clear()
        built = dict(T=1.0, n_z=cfg.n_z, n_u=cfg.n_u, model=desk_model) | other
        other_cfg = dataclasses.replace(cfg, n_z=built["n_z"], n_u=built["n_u"])
        ham_step(ham.initial_guess(built["model"], built["T"], other_cfg), built["model"])
        assert len(cold_surfaces) == 1
        warm = ham_step(prev, desk_model)
        assert len(cold_surfaces) == 2, f"a kernel for another {name} was read"
        assert np.array_equal(warm.values, cold.values)

    def test_a_term_off_the_lattice_is_refused(self, desk_model, desk_terms, cold_surfaces):
        # a term made outside build_terms carries its own nodes; the lag weights
        # need one exactly at z = 0
        term = desk_terms[0]
        h = term.z_nodes[1] - term.z_nodes[0]
        shifted = dataclasses.replace(term, z_nodes=term.z_nodes + 0.5 * h)
        with pytest.raises(ValidationError, match="z grid has no node at 0"):
            ham_step(shifted, desk_model)
        assert not cold_surfaces, "nothing was built or kept"

    @pytest.mark.parametrize("guess", ["zero", "european_rs"])
    @pytest.mark.parametrize("model", ["desk", "asymmetric"])
    def test_swapping_the_regimes_swaps_the_terms(self, desk_model, model, guess):
        # regime i of one model is regime 1 - i of the model with r, sigma and
        # the switch rates exchanged; only the European guess depends on the order
        first = desk_model if model == "desk" else two_state_model(0.05, 0.03, 0.3, 0.2, 0.5, 2.0)
        swapped = RegimeModel(r=first.r[::-1], sigma=first.sigma[::-1],
                              gen=tuple(row[::-1] for row in first.gen[::-1]), q=first.q[::-1])
        cfg = dataclasses.replace(COARSE, initial_guess_mode=guess)
        for a, b in zip(build_terms(first, 1.0, cfg), build_terms(swapped, 1.0, cfg)):
            if guess == "zero":
                assert np.array_equal(a.values, b.values[::-1]), f"term {a.m}"
            else:
                gap = np.max(np.abs(a.values - b.values[::-1]))
                assert gap <= 1e-8 * np.max(np.abs(a.values)), f"term {a.m}: {gap}"

    def test_source_is_the_coupled_recursion_right_side(self):
        # lam_i (V_i - V_j) - (2 / sigma_i^2) e^z dV_i/dz, regime by regime
        model = two_state_model(0.05, 0.03, 0.3, 0.2, 0.5, 2.0)
        prev = build_terms(model, 1.0, COARSE)[1]
        z, v = prev.z_nodes, prev.values
        got = ham._source_fields(prev, model)
        for i in (0, 1):
            sig_sq = model.sigma[i] ** 2
            lam = 2.0 * model.gen[i][i] / sig_sq
            dv_dz = ham._deriv_z(v[i], z[1] - z[0])
            want = lam * (v[i] - v[1 - i]) - (2.0 / sig_sq) * np.exp(z) * dv_dz
            assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want)), f"regime {i}"

    def test_narrow_window_warns_in_both_regimes(self, desk_model):
        # at z_max = 1 the source tail at xi_max is about 1e-3 of its peak; at 3 it is not
        narrow = HamConfig(m_trunc=1, n_z=41, n_u=5, z_max=1.0)
        with pytest.warns(UserWarning, match="widen z_max") as caught:
            build_terms(desk_model, 1.0, narrow)
        messages = " ".join(str(w.message) for w in caught)
        assert "(regime 0, term 1)" in messages and "(regime 1, term 1)" in messages
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            build_terms(desk_model, 1.0, dataclasses.replace(narrow, z_max=3.0))

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
        surfaces = assemble_series(desk_terms, desk_model)
        price, diag = series_dollar_price(surfaces, state)
        want = max(a / 1.0 - 100.0, 0.0)
        assert price == pytest.approx(want, rel=1e-12), f"{price} vs {want}"
        assert diag["z"] == pytest.approx(z_node)

    def test_expiry_off_node_interpolates_the_payoff(self, desk_model):
        state = MarketState(t=1.0, s=100.0, a=120.0, regime=0)
        res = price_floating_put_ham(state, desk_model, COARSE, 1.0)
        assert res.price == pytest.approx(20.0, rel=2e-2)

    def test_price_is_homogeneous(self, desk_model, desk_terms):
        surfaces = assemble_series(desk_terms, desk_model)
        base, _ = series_dollar_price(
            surfaces, MarketState(t=0.5, s=100.0, a=50.0, regime=0)
        )
        double, _ = series_dollar_price(
            surfaces, MarketState(t=0.5, s=200.0, a=100.0, regime=0)
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
        assert "unclipped_price" not in res.diagnostics, "an in-bound price records no clip"

    def test_negative_read_is_clipped_and_recorded(self, desk_model):
        # the paper form reads -0.018187 here on the coarse grid; the price is
        # clipped to 0 and the read kept, which series_dollar_price returns as is
        state = MarketState(t=0.5, s=100.0, a=50.0, regime=1)
        res = price_floating_put_ham(state, desk_model, COARSE, 1.0)
        read, _ = series_dollar_price(ham.series_surfaces(desk_model, 1.0, COARSE), state)
        assert read == pytest.approx(-0.018187, abs=5e-7)
        assert res.price == 0.0 and res.diagnostics["unclipped_price"] == read

    def test_partials_are_the_running_sums(self, desk_model, desk_terms):
        surfaces = assemble_series(desk_terms, desk_model)
        assert surfaces.partials.shape == (3, 2, 21, 101)
        for k in range(len(desk_terms)):
            alone = assemble_series(desk_terms[: k + 1], desk_model)
            assert np.array_equal(surfaces.partials[k], alone.partials[-1]), f"m = {k}"
        assert np.array_equal(surfaces.partials[0][0], desk_terms[0].values[0])

    def test_surface_cache_is_bounded(self, desk_model):
        cfg = HamConfig(m_trunc=1, n_z=41, n_u=5)
        ham._SURFACES_CACHE.clear()
        try:
            expiries = [1.0 + 0.1 * k for k in range(_SURFACES_CACHE_SIZE + 3)]
            for T in expiries:
                ham.series_surfaces(desk_model, T, cfg)
                assert len(ham._SURFACES_CACHE) <= _SURFACES_CACHE_SIZE
            z_lo, z_hi = ham.ham_window(cfg, expiries[0])
            oldest = dataclasses.replace(cfg, z_min=z_lo, z_max=z_hi)
            assert (desk_model, expiries[0], oldest) not in ham._SURFACES_CACHE
            last = ham.series_surfaces(desk_model, expiries[-1], cfg)
            assert ham.series_surfaces(desk_model, expiries[-1], cfg) is last
            assert len(ham._SURFACES_CACHE) == _SURFACES_CACHE_SIZE
        finally:
            ham._SURFACES_CACHE.clear()

    def test_a_kernel_takes_a_cache_slot(self, desk_model, build_calls, monkeypatch):
        # every m_trunc on one grid and model shares one kernel, which each build
        # reads last; so the kernel stays and the first of eight surfaces goes
        kernels = []
        make = ham._lag_generators
        monkeypatch.setattr(ham, "_lag_generators",
                            lambda *args: kernels.append(args) or make(*args))
        cfgs = [HamConfig(m_trunc=m, n_z=41, n_u=5) for m in range(1, _SURFACES_CACHE_SIZE + 1)]
        for cfg in cfgs[:-1]:
            ham.series_surfaces(desk_model, 1.0, cfg)
        assert len(ham._SURFACES_CACHE) == _SURFACES_CACHE_SIZE
        ham.series_surfaces(desk_model, 1.0, cfgs[-1])
        assert len(ham._SURFACES_CACHE) == _SURFACES_CACHE_SIZE
        ham.series_surfaces(desk_model, 1.0, cfgs[0])
        assert (len(build_calls), len(kernels)) == (_SURFACES_CACHE_SIZE + 1, 1), \
            "the first surface was dropped, not the kernel"

    def test_filled_in_window_shares_the_cached_surface(self, desk_model, build_calls):
        cfg = HamConfig(m_trunc=1, n_z=41, n_u=5)
        z_lo, z_hi = ham.ham_window(cfg, 1.0)
        first = ham.series_surfaces(desk_model, 1.0, cfg)
        filled = dataclasses.replace(cfg, z_min=z_lo, z_max=z_hi)
        assert ham.series_surfaces(desk_model, 1.0, filled) is first
        assert len(build_calls) == 1

    def test_deep_in_the_money_refused(self, desk_model):
        # z = -ln 30 lies below the grid's lowest node, -ln 20 snapped to -3.0515
        state = MarketState(t=0.9, s=10.0, a=300.0, regime=0)
        with pytest.raises(InterpolationOutOfRange, match=r"^z=-3\.40119\d* outside \[-3\.0515"):
            price_floating_put_ham(state, desk_model, COARSE, 1.0)

    def test_past_expiry_refused(self, desk_model):
        state = MarketState(t=1.5, s=100.0, a=100.0, regime=0)
        with pytest.raises(InterpolationOutOfRange, match=r"^u=-0\.5 outside \[0\.0, 1\.0\]"):
            price_floating_put_ham(state, desk_model, COARSE, 1.0)

    @pytest.mark.parametrize("model", [
        (0.05, 0.03, 0.3, 0.2, 1.0, 1.0),
        (0.06, 0.03, 0.3, 0.2, 1.0, 1.0),
        (0.05, 0.03, 0.3, 0.2, 0.5, 2.0),
        (0.75, 0.75, 1.0, 1.0, 1.0, 1.0),
    ])
    @pytest.mark.parametrize("cfg", [COARSE, HamConfig()], ids=["coarse", "default"])
    def test_convergent_series_still_prices(self, model, cfg):
        state = MarketState(t=0.5, s=100.0, a=50.0, regime=1)
        # not refused; the paper form's own error can leave the read slightly
        # negative, which the price clips to 0
        assert np.isfinite(price_floating_put_ham(state, two_state_model(*model), cfg, 1.0).price)

    @pytest.mark.parametrize("cfg", [COARSE, HamConfig()], ids=["coarse", "default"])
    def test_divergent_series_is_refused(self, cfg):
        # gamma = 2 r / sigma^2 = 16 in regime 0: the paper-form term norms grow to
        # 1e11 (coarse) and 9e12 (default) times term 0's; regime 1 reads the same sum
        model = two_state_model(0.08, 0.01, 0.1, 0.5, 3.0, 0.5)
        for regime in (0, 1):
            state = MarketState(t=0.5, s=100.0, a=50.0, regime=regime)
            with pytest.raises(PricingError, match=r"series diverges: regime 0 term norms grow "
                               r"to .* at r=\[0\.08, 0\.01\], sigma=\[0\.1, 0\.5\]"):
                price_floating_put_ham(state, model, cfg, 1.0)

    def test_regime_out_of_range_refused_before_a_build(self, desk_model, build_calls):
        # unchecked, the whole surface was built before the regime indexed past it
        state = MarketState(t=0.0, s=100.0, a=0.0, regime=2)
        with pytest.raises(ValidationError, match="regime index 2"):
            price_floating_put_ham(state, desk_model, COARSE, 1.0)
        assert build_calls == []


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

    def test_repeated_report_builds_nothing(self, desk_model, build_calls, monkeypatch):
        kernels = []
        make = ham._lag_generators
        monkeypatch.setattr(ham, "_lag_generators",
                            lambda *args: kernels.append(args) or make(*args))
        kwargs = dict(config=HamConfig(m_trunc=2, n_z=41, n_u=5),
                      fd_config=FdConfig(n_y=50, n_t=50))
        first = ham_vs_fd_report(desk_model, 1.0, **kwargs)
        assert len(build_calls) == 4, "one build per mode combination"
        assert len(kernels) == 1, "the four builds share one lag kernel"
        assert ham_vs_fd_report(desk_model, 1.0, **kwargs) == first
        assert (len(build_calls), len(kernels)) == (4, 1), \
            "the second report reads the cached surfaces"
        ham._SURFACES_CACHE.clear()  # drops the kernel with the surfaces
        assert ham_vs_fd_report(desk_model, 1.0, **kwargs) == first
        assert (len(build_calls), len(kernels)) == (8, 2)


class TestPaperFormLimit:
    def test_the_sums_settle_far_below_the_grid_limit(self, desk_model, cold_surfaces):
        # the paper form converges, to the wrong limit: on the default grid its
        # m = 6 and m = 10 sums agree, and sit 43-77 % below the FD Richardson
        # limit of grids 200, 400 and 800, which MC agrees with
        surf = ham.series_surfaces(desk_model, 1.0, HamConfig(m_trunc=10))
        for t, y in ((0.5, 0.75), (0.9, 0.9)):
            for regime in (0, 1):
                state = MarketState(t=t, s=100.0, a=100.0 * y, regime=regime)
                sums = [series_dollar_price(surf, state, m)[0] for m in (6, 10)]
                _, prices = richardson_order(desk_model, 1.0, FdConfig(n_y=200, n_t=200), state)
                fd_limit = richardson_limit(prices)[0]
                where = f"t={t}, y={y}, regime {regime}: {sums} against {fd_limit}"
                assert abs(sums[1] - sums[0]) <= 1e-3 * abs(sums[1]), where
                assert sums[1] < 0.6 * fd_limit, where
