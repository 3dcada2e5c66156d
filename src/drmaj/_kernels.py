"""KDE evaluation kernel: the empirical pipeline's hot loop, in numpy."""

import numpy as np

__all__ = ["kde_eval"]

# chunk size keeps the (points x centers) exponent buffer near 32 MB
_CHUNK_FLOATS = 2**22


def kde_eval(points, centers, bandwidths):
    """Product-Gaussian mixture density at ``points``.

    points: (N, n); centers: (m, n); bandwidths: (n,) positive. Returns (N,).

    In bandwidth units each exponent is -|x - c|^2 / 2 = x.c - |x|^2/2 - |c|^2/2,
    one matrix product per chunk of points. Both sides are first centred on
    the centres' mean: the expansion cancels terms of size |x|^2, so data far
    from the origin would otherwise lose digits in proportion to its offset.
    """
    cen = np.asarray(centers, dtype=np.float64)
    h = np.asarray(bandwidths, dtype=np.float64)
    m = cen.shape[0]
    mu = cen.mean(axis=0)
    x = (np.asarray(points, dtype=np.float64) - mu) / h
    c = (cen - mu) / h
    half_x = 0.5 * np.einsum("ij,ij->i", x, x)
    half_c = 0.5 * np.einsum("ij,ij->i", c, c)
    norm = 1.0 / (m * np.prod(np.sqrt(2.0 * np.pi) * h))
    out = np.empty(x.shape[0], dtype=np.float64)
    step = max(1, _CHUNK_FLOATS // m)
    for a in range(0, x.shape[0], step):
        e = x[a : a + step] @ c.T
        e -= half_x[a : a + step, None]
        e -= half_c
        np.minimum(e, 0.0, out=e)  # rounding can leave a zero distance just above 0
        np.exp(e, out=e)
        e.sum(axis=1, out=out[a : a + step])
    return norm * out
