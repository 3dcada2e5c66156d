"""KDE evaluation kernel: the empirical pipeline's hot loop, in numpy."""

import numpy as np

__all__ = ["kde_eval"]

# chunk size keeps the (points x centers) distance buffer near 32 MB
_CHUNK_FLOATS = 2**22


def kde_eval(points, centers, bandwidths):
    """Product-Gaussian mixture density at ``points``.

    points: (N, n); centers: (m, n); bandwidths: (n,) positive. Returns (N,).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    cen = np.ascontiguousarray(centers, dtype=np.float64)
    h = np.ascontiguousarray(bandwidths, dtype=np.float64)
    m, n = cen.shape
    norm = 1.0 / (m * np.prod(np.sqrt(2.0 * np.pi) * h))
    out = np.empty(pts.shape[0], dtype=np.float64)
    step = max(1, _CHUNK_FLOATS // max(1, m * n))
    for a in range(0, pts.shape[0], step):
        d = (pts[a : a + step, None, :] - cen[None, :, :]) / h
        out[a : a + step] = np.exp(-0.5 * np.einsum("pmn,pmn->pm", d, d)).sum(axis=1)
    return norm * out
