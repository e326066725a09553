"""Grid Ito integral kernels: exact identities, isometry, coarsening."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orliczlab.gauges import get_gauge
from orliczlab.integrate import (
    ElementaryProcess,
    ProcessError,
    ProcessSpec,
    coarsen_samples,
    eta_paths,
    ito_integral,
    make_elementary,
    triple_norm_path,
)
from orliczlab.paths import PathGrid, draw_normals, hitting_index, simulate_batch
from orliczlab.spaces import DiscreteMeasureSpace

SPACE2 = DiscreteMeasureSpace([1.0, 2.0])
SPACE1 = DiscreteMeasureSpace([1.0])


def small_bundle(coords=1, n=64, reps=50, seed=7, stream=("itest",)):
    return simulate_batch(draw_normals(seed, stream, coords, n, reps), PathGrid(1.0, n))


class TestExactIdentities:
    def test_constant_integrand_reproduces_driver_bitwise(self):
        bundle = small_bundle()
        spec = ProcessSpec("constant_e1")
        realized = spec.realize(bundle.paths, bundle.grid, SPACE2)
        integral = realized.integral(bundle.increments)
        for a in range(SPACE2.n_atoms):
            assert np.array_equal(integral[:, :, a], bundle.paths[:, 0, :])

    def test_constant_integrand_eta_is_time(self):
        bundle = small_bundle()
        spec = ProcessSpec("constant_e1")
        eta = spec.realize(bundle.paths, bundle.grid, SPACE1).eta()
        expected = np.broadcast_to(bundle.grid.times[None, :, None], eta.shape)
        assert_allclose(eta, expected, rtol=1e-12, atol=0.0)

    def test_linearity(self):
        # factors that share coef combine linearly: the driver itself, B^j on
        # coordinate j, and the two_coord_mix factor (1, tanh B2)
        bundle = small_bundle(coords=2)
        y = ProcessSpec("two_coord_mix").realize(bundle.paths, bundle.grid, SPACE2)
        x = np.moveaxis(bundle.paths, 1, -1)
        combo = 2.0 * x - 0.5 * y.values
        lhs = ito_integral(combo, y.coef, bundle.increments)
        rhs = (2.0 * ito_integral(x, y.coef, bundle.increments)
               - 0.5 * y.integral(bundle.increments))
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_integral_of_driver_matches_qv_identity(self):
        # sum B_k (B_{k+1} - B_k) telescopes to (B_n^2 - [B]_n) / 2
        bundle = small_bundle(n=128, reps=200)
        x = ProcessSpec("B1_times_e1").realize(bundle.paths, bundle.grid, SPACE1)
        integral = x.integral(bundle.increments)[:, :, 0]
        qv = np.zeros_like(bundle.paths[:, 0, :])
        np.cumsum(bundle.increments[:, 0, :] ** 2, axis=1, out=qv[:, 1:])
        expected = 0.5 * (bundle.paths[:, 0, :] ** 2 - qv)
        assert_allclose(integral, expected, rtol=1e-10, atol=1e-12)

    def test_elementary_double_sum_equals_left_sum(self):
        bundle = small_bundle(n=64, reps=40)
        space = SPACE2
        idx = np.array([0, 16, 32, 48, 64])

        def value_fn(i, history):
            return np.sign(history[:, :1, -1]) * (i + 1)

        coef = np.array([[1.0], [0.5]])
        elem = make_elementary(bundle.grid, idx, value_fn, bundle.paths, coef)
        left = elem.realize().integral(bundle.increments)
        double = elem.integral_double_sum(bundle.paths)
        assert_allclose(double, left, rtol=1e-12, atol=1e-13)

    def test_stopped_integrand_identity(self):
        # integrating X * 1_[sigma, inf) yields I_t - I_{t ∧ sigma}
        bundle = small_bundle(coords=2, n=128, reps=100)
        x = ProcessSpec("two_coord_mix").realize(bundle.paths, bundle.grid, SPACE2)
        sigma, _ = hitting_index(np.abs(bundle.paths[:, 0, :]), 0.5)
        past_sigma = np.arange(x.values.shape[1])[None, :, None] >= sigma[:, None, None]
        tail = ito_integral(x.values * past_sigma, x.coef, bundle.increments)
        full = x.integral(bundle.increments)
        frozen = full[np.arange(full.shape[0]), sigma, :]
        stopped = np.where(past_sigma, frozen[:, None, :], full)  # I_{t ∧ sigma}
        assert_allclose(tail, full - stopped, rtol=1e-12, atol=1e-13)


def dense_reference(x, increments):
    """Integral and energy from the dense (reps, n+1, atoms, coords) integrand,
    zero along the driver coordinates past the factor's."""
    pad = increments.shape[1] - x.coef.shape[-1]
    coef = np.pad(x.coef, ((0, 0), (0, pad)))
    values = np.pad(x.values, ((0, 0), (0, 0), (0, pad)))
    dense = coef[None, None] * values[:, :, None, :]
    integral = np.zeros(dense.shape[:3])
    np.cumsum(np.einsum("rkad,rdk->rka", dense[:, :-1], increments), axis=1,
              out=integral[:, 1:])
    eta = np.zeros(dense.shape[:3])
    np.cumsum(np.einsum("rkad,rkad->rka", dense[:, :-1], dense[:, :-1]), axis=1,
              out=eta[:, 1:])
    eta *= x.grid.dt
    return integral, eta


RULES = ["constant_e1", "sign_of_B1", "B1_times_e1", "two_coord_mix"]


@pytest.mark.parametrize("atoms", [1, 2, 4])
@pytest.mark.parametrize("rule, coords", [pytest.param(r, 2, id=r) for r in RULES]
                         + [pytest.param(r, 4, id=f"{r}-coords4") for r in RULES])
def test_factored_kernels_equal_dense_einsum(rule, coords, atoms):
    # same products, summed in the same coordinate order: equal bit for bit
    bundle = small_bundle(coords=coords, n=64, reps=40, stream=("itest", "dense", rule))
    space = DiscreteMeasureSpace(np.linspace(1.0, 2.0, atoms))
    x = ProcessSpec(rule).realize(bundle.paths, bundle.grid, space)
    # each rule realizes only the coordinates it reads, however wide the driver
    assert x.values.shape[-1] == x.coef.shape[-1] == (2 if rule == "two_coord_mix" else 1)
    integral, eta = x.integral(bundle.increments), x.eta()
    ref_integral, ref_eta = dense_reference(x, bundle.increments)
    assert np.array_equal(integral, ref_integral)
    assert np.array_equal(eta, ref_eta)
    for out in (integral, eta):
        assert out.shape == (40, 65, atoms) and out.flags.c_contiguous


def test_ito_integral_reads_leading_driver_coordinates():
    bundle = small_bundle(coords=2, n=32, reps=10, stream=("itest", "leading"))
    x = np.moveaxis(bundle.paths[:, :1], 1, -1)
    one = ito_integral(x, np.ones((2, 1)), bundle.increments)
    assert np.array_equal(one, ito_integral(x, np.ones((2, 1)), bundle.increments[:, :1]))
    with pytest.raises(ProcessError, match="coordinate mismatch"):
        ito_integral(x, np.ones((2, 2)), bundle.increments)
    wide = np.concatenate([x, x, x], axis=-1)
    with pytest.raises(ProcessError, match="coordinate mismatch"):
        ito_integral(wide, np.ones((2, 3)), bundle.increments)


class TestIsometry:
    @pytest.mark.parametrize("rule", ["sign_of_B1", "B1_times_e1", "two_coord_mix"])
    def test_terminal_isometry_paired(self, rule):
        bundle = small_bundle(coords=2, n=256, reps=20_000, stream=("itest", "iso", rule))
        x = ProcessSpec(rule).realize(bundle.paths, bundle.grid, SPACE1)
        integral = x.integral(bundle.increments)[:, -1, 0]
        eta = x.eta()[:, -1, 0]
        diff = integral**2 - eta
        stderr = diff.std(ddof=1) / np.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * stderr + 1e-12

    def test_driver_integral_terminal_mean(self):
        # E (B_1^2 - 1)/2 = 0 up to discretization
        bundle = small_bundle(n=256, reps=20_000, stream=("itest", "meanzero"))
        x = ProcessSpec("B1_times_e1").realize(bundle.paths, bundle.grid, SPACE1)
        terminal = x.integral(bundle.increments)[:, -1, 0]
        stderr = terminal.std(ddof=1) / np.sqrt(terminal.size)
        assert abs(terminal.mean()) <= 3.0 * stderr


class TestCoarsening:
    def test_constant_function_error_is_sqrt_one_over_m(self):
        grid = PathGrid(steps=64, horizon=1.0)
        f = np.ones(grid.steps + 1)
        for m in (1, 2, 4, 8):
            jf = coarsen_samples(f, grid, m)
            err_sq = np.sum((f[:-1] - jf[:-1]) ** 2) * grid.dt
            assert err_sq == 1.0 / m

    def test_identity_block_values(self):
        grid = PathGrid(steps=256, horizon=1.0)
        f = grid.times.copy()
        jf = coarsen_samples(f, grid, 4)
        spb = 64
        block_vals = jf[[0, spb, 2 * spb, 3 * spb]]
        assert_allclose(block_vals, [0.0, 1 / 8, 3 / 8, 5 / 8], atol=0.51 * grid.dt)
        # block-constant away from boundaries
        assert np.ptp(jf[spb : 2 * spb]) == 0.0

    @pytest.mark.parametrize("fn", [lambda t: t, np.sin])
    def test_error_decreases_with_finer_blocks(self, fn):
        grid = PathGrid(steps=512, horizon=1.0)
        f = fn(grid.times)
        errs = []
        for m in (8, 16):
            jf = coarsen_samples(f, grid, m)
            errs.append(np.sqrt(np.sum((f[:-1] - jf[:-1]) ** 2) * grid.dt))
        assert errs[1] < errs[0]

    def test_energy_prefix_domination(self):
        # delayed averages never carry more running energy than the source
        bundle = small_bundle(coords=2, n=256, reps=100, stream=("itest", "jm"))
        x = ProcessSpec("B1_times_e1").realize(bundle.paths, bundle.grid, SPACE2)
        jx = ProcessSpec("coarsen_m", m=8, inner=ProcessSpec("B1_times_e1"))
        jx = jx.realize(bundle.paths, bundle.grid, SPACE2)
        assert np.all(jx.eta() <= x.eta() + 1e-12)

    def test_unaligned_blocks_rejected(self):
        grid = PathGrid(steps=64, horizon=1.0)
        with pytest.raises(ProcessError, match="grid aligned"):
            coarsen_samples(np.ones(65), grid, 3)

    def test_delay_respects_history(self):
        # output on block j only reads samples from block j-1
        grid = PathGrid(steps=64, horizon=1.0)
        f = np.zeros(65)
        f[32:] = 100.0  # jump at t = 0.5
        jf = coarsen_samples(f, grid, 4)
        assert np.all(jf[:48] == 0.0) and jf[48] == 100.0


class TestTruncationAndStops:
    def test_strict_threshold_on_triple_norm(self):
        bundle = small_bundle(coords=1, n=128, reps=200, stream=("itest", "tau"))
        x = ProcessSpec("B1_times_e1").realize(bundle.paths, bundle.grid, SPACE2)
        tn = triple_norm_path(x.eta(), SPACE2, get_gauge("power_2"))
        level = 0.05
        idx, hit = hitting_index(tn, level, mode="strict")
        rows = np.arange(tn.shape[0])
        assert np.all(tn[rows[hit], idx[hit]] > level)
        positive = hit & (idx > 0)
        assert np.all(tn[rows[positive], idx[positive] - 1] <= level)
        # triple norm paths start at zero and never decrease
        assert np.all(tn[:, 0] == 0.0) and np.all(np.diff(tn, axis=1) >= -1e-15)


class TestSpecsAndValidation:
    def test_unknown_rule_named_in_error(self):
        with pytest.raises(ProcessError, match="no_such_rule"):
            ProcessSpec("no_such_rule")

    def test_wrapper_requires_inner(self):
        with pytest.raises(ProcessError, match="inner"):
            ProcessSpec("coarsen_m", m=8)

    def test_two_coord_mix_needs_two_driver_coords(self):
        bundle = small_bundle(coords=1, n=32, reps=5)
        with pytest.raises(ProcessError, match="coordinates"):
            ProcessSpec("two_coord_mix").realize(bundle.paths, bundle.grid, SPACE2)

    def test_two_coord_mix_values(self):
        bundle = small_bundle(coords=2, n=32, reps=5, stream=("itest", "mix"))
        x = ProcessSpec("two_coord_mix").realize(bundle.paths, bundle.grid, SPACE2)
        c = np.geomspace(1.0, 0.25, 2)
        k = 17
        for a in range(2):
            assert_allclose(x.coef[a, 0] * x.values[:, k, 0], np.full(5, c[a]), rtol=0, atol=0)
            assert_allclose(x.coef[a, 1] * x.values[:, k, 1],
                            c[a] * np.tanh(bundle.paths[:, 1, k]), rtol=1e-15, atol=0)

    def test_elementary_zero_before_first_breakpoint(self):
        bundle = small_bundle(n=64, reps=4)
        idx = np.array([16, 32])

        def value_fn(i, history):
            assert history.shape[-1] == idx[i] + 1  # truncated view only
            return np.ones((history.shape[0], 1))

        elem = make_elementary(bundle.grid, idx, value_fn, bundle.paths, np.ones((1, 1)))
        dense = elem.realize().values
        assert np.all(dense[:, :16] == 0.0) and np.all(dense[:, 16:] == 1.0)

    def test_elementary_breakpoint_validation(self):
        bundle = small_bundle(n=32, reps=2)
        fn = lambda i, h: np.ones((h.shape[0], 1))
        coef = np.ones((1, 1))
        with pytest.raises(ProcessError, match="ascend"):
            make_elementary(bundle.grid, np.array([0, 0, 8]), fn, bundle.paths, coef)
        with pytest.raises(ProcessError, match="ascend"):
            make_elementary(bundle.grid, np.array([0, 40]), fn, bundle.paths, coef)
        with pytest.raises(ProcessError, match="coef must have shape"):
            make_elementary(bundle.grid, np.array([0, 8]), fn, bundle.paths, np.ones((1, 2)))

    def test_sign_rule_block_structure(self):
        bundle = small_bundle(n=64, reps=50, stream=("itest", "signs"))
        x = ProcessSpec("sign_of_B1", blocks=8).realize(bundle.paths, bundle.grid, SPACE1)
        vals = x.coef[0, 0] * x.values[:, :, 0]
        assert set(np.unique(vals)).issubset({-1.0, 0.0, 1.0})
        # value on each block equals the sign of the driver at the block start
        for lo in range(0, 64, 8):
            assert np.array_equal(vals[:, lo], np.sign(bundle.paths[:, 0, lo]))
            assert np.ptp(vals[:, lo : lo + 8], axis=1).max() == 0.0
