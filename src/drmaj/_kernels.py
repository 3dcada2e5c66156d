"""KDE evaluation kernel: the empirical pipeline's hot loop, in numpy."""

import numpy as np

__all__ = ["kde_eval"]

# points per block: a (block x centers) exponent buffer of 2^16 floats (512 KB)
# stays in cache through the product, the clamp, exp and the weighted sum
_CHUNK_FLOATS = 2**16


def kde_eval(points, centers, bandwidths):
    """Product-Gaussian mixture density at ``points``.

    points: (N, n); centers: (m, n); bandwidths: (n,) positive. Returns (N,).

    In bandwidth units each exponent is -|x - c|^2 / 2 = x.c - |x|^2/2 - |c|^2/2,
    which is one matrix product of the augmented rows [x, |x|^2/2, 1] by the
    columns [c, -1, -|c|^2/2].  Each block of points is then clamped and
    exponentiated in place, and its rows summed by a matrix-vector product
    with the normalisation as weights.  Both sides are first centred on the
    centres' mean: the expansion cancels terms of size |x|^2, so data far
    from the origin would otherwise lose digits in proportion to its offset.
    """
    cen = np.asarray(centers, dtype=np.float64)
    h = np.asarray(bandwidths, dtype=np.float64)
    m, n = cen.shape
    mu = cen.mean(axis=0)
    p = np.asarray(points, dtype=np.float64)
    c = (cen - mu) / h
    size = len(p)
    xa = np.empty((size, n + 2))
    x = xa[:, :n]  # the scaled points are written in place, with no temporaries
    np.subtract(p, mu, out=x)
    x /= h
    np.einsum("ij,ij->i", x, x, out=xa[:, n])
    xa[:, n] *= 0.5
    xa[:, n + 1] = 1.0
    ca = np.empty((n + 2, m))
    ca[:n] = c.T
    ca[n] = -1.0
    ca[n + 1] = -0.5 * np.einsum("ij,ij->i", c, c)
    weights = np.full(m, 1.0 / (m * np.prod(np.sqrt(2.0 * np.pi) * h)))
    out = np.empty(size, dtype=np.float64)
    step = max(1, _CHUNK_FLOATS // m)
    block = np.empty((min(step, size), m))
    for a in range(0, size, step):
        e = block[: min(step, size - a)]
        np.matmul(xa[a : a + step], ca, out=e)
        np.minimum(e, 0.0, out=e)  # rounding can leave a zero distance just above 0
        np.exp(e, out=e)
        np.matmul(e, weights, out=out[a : a + step])
    return out
