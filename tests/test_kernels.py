"""KDE evaluation kernel tests."""

import math

import numpy as np
import pytest

from drmaj import _kernels as kern


def _dense_kde(points, centers, h):
    # unchunked reference, small sizes only
    d = (points[:, None, :] - centers[None, :, :]) / h
    norm = 1.0 / (centers.shape[0] * np.prod(np.sqrt(2.0 * np.pi) * h))
    return norm * np.exp(-0.5 * (d * d).sum(axis=2)).sum(axis=1)


def test_kde_eval_manual_two_centers():
    centers = np.array([[0.0, 0.0], [2.0, 0.0]])
    h = np.array([1.0, 0.5])
    pts = np.array([[0.0, 0.0], [1.0, -1.0]])
    got = kern.kde_eval(pts, centers, h)

    norm = 1.0 / (2 * 2.0 * np.pi * 1.0 * 0.5)
    exp0 = norm * (1.0 + math.exp(-0.5 * 4.0))
    exp1 = norm * 2.0 * math.exp(-0.5 * (1.0 + 4.0))
    assert got[0] == pytest.approx(exp0, rel=1e-14)
    assert got[1] == pytest.approx(exp1, rel=1e-14)


def test_kde_eval_chunking_matches_dense():
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((64, 2))
    h = np.array([0.4, 0.9])
    step = kern._CHUNK_FLOATS // 64
    # three full blocks of rows and a partial fourth
    pts = rng.standard_normal((3 * step + step // 3, 2)) * 2.0
    got = kern.kde_eval(pts, centers, h)
    np.testing.assert_allclose(got, _dense_kde(pts, centers, h), rtol=1e-12)


def test_kde_eval_more_centers_than_a_block_holds():
    # each block is then a single row of points
    rng = np.random.default_rng(8)
    centers = rng.standard_normal((kern._CHUNK_FLOATS + 5, 2))
    h = np.array([0.5, 0.7])
    pts = rng.standard_normal((3, 2))
    got = kern.kde_eval(pts, centers, h)
    np.testing.assert_allclose(got, _dense_kde(pts, centers, h), rtol=1e-12)


def test_kde_eval_of_no_points_is_empty():
    got = kern.kde_eval(np.empty((0, 2)), np.ones((4, 2)), np.array([1.0, 2.0]))
    assert got.shape == (0,)


def test_kde_eval_one_dimension_matches_dense():
    rng = np.random.default_rng(9)
    centers = rng.standard_normal((40, 1))
    h = np.array([0.25])
    pts = rng.uniform(-4.0, 4.0, (500, 1))
    got = kern.kde_eval(pts, centers, h)
    np.testing.assert_allclose(got, _dense_kde(pts, centers, h), rtol=1e-12)


def test_kde_eval_single_center_is_gaussian():
    h = np.array([1.5])
    pts = np.linspace(-3.0, 3.0, 11)[:, None]
    got = kern.kde_eval(pts, np.zeros((1, 1)), h)
    ref = np.exp(-0.5 * (pts[:, 0] / 1.5) ** 2) / (1.5 * np.sqrt(2 * np.pi))
    np.testing.assert_allclose(got, ref, rtol=1e-14)


def test_kde_eval_six_dimensions_matches_dense():
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((50, 6))
    h = np.linspace(0.5, 1.5, 6)
    pts = rng.standard_normal((300, 6))
    got = kern.kde_eval(pts, centers, h)
    np.testing.assert_allclose(got, _dense_kde(pts, centers, h), rtol=1e-12)


def test_kde_eval_is_translation_invariant():
    # an uncentred distance expansion loses ~1e-3 relative at this offset
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((200, 2))
    h = np.array([0.3, 0.5])
    pts = rng.uniform(-3.0, 3.0, (1000, 2))
    offset = np.array([1e6, -1e6])
    ref = kern.kde_eval(pts, centers, h)
    got = kern.kde_eval(pts + offset, centers + offset, h)
    np.testing.assert_allclose(got, ref, rtol=1e-8)
    np.testing.assert_allclose(ref, _dense_kde(pts, centers, h), rtol=1e-12)


def test_kde_eval_far_points_are_exactly_zero():
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((30, 2))
    h = np.array([0.2, 0.4])
    far = centers.max(axis=0) + 50.0 * h
    pts = np.vstack([far, -far, far * [1.0, -1.0]])
    got = kern.kde_eval(pts, centers, h)
    assert np.all(got == 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_kde_grid_matches_kde_eval_at_its_nodes(dim):
    rng = np.random.default_rng(13)
    # uneven axes, and two full blocks of centres and a partial third
    axes = [np.sort(rng.uniform(-4.0, 4.0, 40 + 7 * d)) for d in range(dim)]
    step = kern._CHUNK_FLOATS // math.prod(a.size for a in axes[:-1])
    centers = rng.standard_normal((2 * step + step // 3, dim))
    h = np.linspace(0.3, 0.6, dim)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    got = kern.kde_grid(axes, centers, h)
    np.testing.assert_allclose(got, kern.kde_eval(nodes, centers, h), rtol=1e-13, atol=0.0)
