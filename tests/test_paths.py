import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from orliczlab import paths as P
from orliczlab._rng import substream


def one_path(seed, coords, grid, stream=("bundle",)):
    """Increments (coords, steps) and paths (coords, steps + 1) of one replicate."""
    batch = P.simulate_batch(P.draw_normals(seed, stream, coords, grid.steps, 1), grid)
    return batch.increments[0], batch.paths[0]


def increments(seed, stream, coords, grid, replicates):
    """Increments (replicates, coords, steps) of one batch."""
    return P.simulate_batch(P.draw_normals(seed, stream, coords, grid.steps, replicates),
                            grid).increments


def test_grid_basics():
    grid = P.PathGrid(1.0, 10)
    assert grid.dt == pytest.approx(0.1)
    assert_allclose(grid.times, np.arange(11) / 10.0)
    assert grid.index_of(0.5) == 5
    with pytest.raises(ValueError):
        grid.index_of(0.55)
    with pytest.raises(ValueError):
        P.PathGrid(0.0, 10)
    with pytest.raises(ValueError):
        P.PathGrid(1.0, 0)


def test_simulation_is_deterministic():
    grid = P.PathGrid(1.0, 64)
    _, a = one_path(123, 2, grid)
    _, b = one_path(123, 2, grid)
    assert_array_equal(a, b)
    _, c = one_path(124, 2, grid)
    assert not np.array_equal(a, c)


def test_coordinate_extension_is_stable():
    # adding coordinates must not disturb the existing ones
    grid = P.PathGrid(1.0, 32)
    two, _ = one_path(7, 2, grid)
    four, _ = one_path(7, 4, grid)
    assert_array_equal(four[:2], two)


def test_paths_start_at_zero_and_cumulate():
    grid = P.PathGrid(2.0, 16)
    inc, paths = one_path(5, 3, grid)
    assert_array_equal(paths[:, 0], np.zeros(3))
    assert_allclose(paths[:, 1:], np.cumsum(inc, axis=-1))


def test_marginal_statistics():
    grid = P.PathGrid(1.0, 256)
    inc = increments(2024, ("module-test",), 1, grid, 20_000)
    terminal = inc.sum(axis=-1)[:, 0]
    n = terminal.size
    se_mean = terminal.std(ddof=1) / math.sqrt(n)
    assert abs(terminal.mean()) <= 3.0 * se_mean
    var = terminal.var(ddof=1)
    se_var = math.sqrt(2.0 / (n - 1))
    assert abs(var - 1.0) <= 3.0 * se_var


def test_quadratic_variation_statistics():
    grid = P.PathGrid(1.0, 512)
    inc = increments(99, ("qv",), 1, grid, 5_000)
    qv = P.quadratic_variation(inc[:, 0, :])[:, -1]
    se = qv.std(ddof=1) / math.sqrt(qv.size)
    assert abs(qv.mean() - 1.0) <= 3.0 * se


def test_expected_running_max_reflection_value():
    # E sup_{[0,1]} B = sqrt(2/pi), with a small grid-bias allowance
    grid = P.PathGrid(1.0, 1024)
    inc = increments(31415, ("max",), 1, grid, 20_000)
    paths = P.paths_from_increments(inc[:, 0, :])
    peak = paths.max(axis=-1)
    se = peak.std(ddof=1) / math.sqrt(peak.size)
    assert abs(peak.mean() - math.sqrt(2.0 / math.pi)) <= 3.0 * se + 0.02


def test_path_functionals_shapes_and_values():
    grid = P.PathGrid(1.0, 8)
    inc, paths = one_path(11, 2, grid)
    running, qv = P.running_abs_max(paths, range(9)), P.quadratic_variation(inc)
    assert running.shape == (2, 9)
    assert paths[..., -1].shape == (2,)
    assert qv.shape == (2, 9)
    assert_allclose(running[:, -1], np.abs(paths).max(axis=-1))
    assert_allclose(qv[:, -1], (inc**2).sum(axis=-1))
    # running sup is nondecreasing and dominates |B|
    assert np.all(np.diff(running, axis=-1) >= 0.0)
    assert np.all(running >= np.abs(paths) - 1e-15)


def test_hitting_index_edges():
    values = np.arange(11) / 10.0  # deterministic ramp
    idx, hit = P.hitting_index(values, 0.5, mode="weak")
    assert idx == 5 and hit
    idx, hit = P.hitting_index(values, 0.0, mode="weak")
    assert idx == 0 and hit
    idx, hit = P.hitting_index(values, 2.0, mode="weak")
    assert idx == 10 and not hit  # sentinel: capped at horizon index
    idx, hit = P.hitting_index(values, 0.5, mode="strict")
    assert idx == 6 and hit
    with pytest.raises(ValueError):
        P.hitting_index(values, 0.5, mode="sideways")


def test_refinement_never_delays_hitting():
    # shared driver: the coarse path is the fine path at even indices, so
    # a weak upcrossing can only be detected earlier on the fine grid
    fine_grid = P.PathGrid(1.0, 512)
    inc = increments(777, ("refine",), 1, fine_grid, 500)[:, 0, :]
    fine_paths = P.paths_from_increments(inc)
    coarse_paths = P.paths_from_increments(P.coarsen_increments(inc, 2))
    level = 0.4
    fine_idx, fine_hit = P.hitting_index(np.abs(fine_paths), level)
    coarse_idx, coarse_hit = P.hitting_index(np.abs(coarse_paths), level)
    t_fine = fine_idx / 512.0
    t_coarse = coarse_idx / 256.0
    assert np.all(t_fine <= t_coarse + 1e-15)
    assert np.all(coarse_hit <= fine_hit)


def test_coarsen_increments_requires_divisibility():
    with pytest.raises(ValueError):
        P.coarsen_increments(np.zeros((2, 10)), 4)


def test_batch_matches_single_bundle_and_coarsens():
    grid = P.PathGrid(1.0, 64)
    batch = P.simulate_batch(P.draw_normals(55, ("batch",), 2, grid.steps, 8), grid)
    assert batch.increments.shape == (8, 2, 64)
    assert batch.paths.shape == (8, 2, 65)
    assert np.all(batch.paths[:, :, 0] == 0.0)
    single, _ = one_path(55, 2, grid, stream=("batch",))
    assert np.array_equal(batch.increments[0], single)
    coarse = batch.coarsened(4)
    assert coarse.grid.steps == 16
    assert np.array_equal(coarse.paths[:, :, 1], batch.paths[:, :, 4])


def test_draw_normals_fill_the_per_coordinate_draws():
    # each coordinate's slab holds its substream's (replicates, steps) draw;
    # the batch scales it in place and views it as (replicates, coords, steps)
    grid = P.PathGrid(2.0, 48)
    normals = P.draw_normals(9, ("fill",), 3, grid.steps, 5)
    assert normals.shape == (3, 5, 48)
    for j in range(3):
        ref = substream(9, "fill", "coord", j).standard_normal((5, 48))
        assert np.array_equal(normals[j], ref)
    ref = normals.transpose(1, 0, 2) * np.sqrt(grid.dt)
    batch = P.simulate_batch(normals, grid)
    assert np.array_equal(batch.increments, ref)
    full = np.zeros((5, 3, 49))
    np.cumsum(ref, axis=-1, out=full[..., 1:])
    assert np.array_equal(batch.paths, full)


@pytest.mark.parametrize("coords", [1, 2])
@pytest.mark.parametrize("factor", [2, 4])
def test_strided_coarsening_matches_group_sums_bitwise(coords, factor):
    grid = P.PathGrid(1.0, 64)
    inc = P.simulate_batch(P.draw_normals(3, ("coarse",), coords, 64, 17), grid).increments
    assert inc.strides[1] == 17 * 64 * inc.itemsize  # coordinates are (reps, steps) slabs
    for layout in (inc, np.ascontiguousarray(inc)):
        ref = layout.reshape(layout.shape[:-1] + (64 // factor, factor)).sum(axis=-1)
        assert np.array_equal(P.coarsen_increments(layout, factor), ref)


def test_running_abs_max_at_read_points_matches_accumulate_bitwise():
    rng = substream(5, "read-max")
    values = rng.standard_normal((2, 7, 33)).cumsum(axis=-1)
    values[0, 0, 5:] = 0.0  # flat rows and ties
    full = np.maximum.accumulate(np.abs(values), axis=-1)
    for read in ([32], [0], [0, 1, 2], [3, 10, 11, 32], list(range(33))):
        got = P.running_abs_max(values, read)
        assert got.shape == (2, 7, len(read))
        assert np.array_equal(got, full[..., read])
