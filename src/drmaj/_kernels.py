"""KDE evaluation kernels: the empirical pipeline's hot loop, in numpy."""

import math

import numpy as np

__all__ = ["kde_eval", "kde_grid"]

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


def _axis_kernel(x, c, h):
    """(G, k) matrix of exp(-((x_i - c_j) / h)^2 / 2): each exponent a negated square, <= 0."""
    k = np.subtract.outer(x, c)
    k /= h
    k *= k
    k *= -0.5
    return np.exp(k, out=k)


def kde_grid(axes, centers, bandwidths):
    """Product-Gaussian mixture density at every node of a 2-d or 3-d tensor grid.

    axes: d = 2 or 3 node arrays, (G_1,) ... (G_d,); centers: (m, d);
    bandwidths: (d,) positive.  Returns the G_1 ... G_d values in C order
    (the last axis fastest).

    The kernel is separable: with K_d[i, c] = exp(-((x_{d,i} - c_d) / h_d)^2 / 2),
    the density is (K_1 w) K_2^T in 2-d and ((K_1 w) * K_2) K_3^T in 3-d, where
    w is the normalisation and * the row-wise Khatri-Rao product (row (i, j)
    of column c is K_1[i, c] K_2[j, c]).  That is (G_1 + ... + G_d) m
    exponentials and one matrix product per block of centres, where
    :func:`kde_eval` at the same nodes takes G_1 ... G_d m exponentials.  A
    block holds 2^16 / (rows of the left side) centres, so that its left
    side and kernel matrices stay near 2^16 floats whatever m is; the
    blocks' products are summed.
    """
    cen = np.asarray(centers, dtype=np.float64)
    h = np.asarray(bandwidths, dtype=np.float64)
    xs = [np.asarray(a, dtype=np.float64) for a in axes]
    m, n = cen.shape
    if n not in (2, 3) or len(xs) != n:
        raise ValueError(f"kde_grid needs 2 or 3 axes, one per dimension; got {len(xs)} for {n}-d")
    weight = 1.0 / (m * np.prod(np.sqrt(2.0 * np.pi) * h))
    rows = math.prod(x.size for x in xs[:-1])  # rows of the product's left side
    out = np.empty((rows, xs[-1].size))
    step = max(1, _CHUNK_FLOATS // rows)
    part = np.empty_like(out) if m > step else out
    for a in range(0, m, step):
        ks = [_axis_kernel(x, cen[a : a + step, d], h[d]) for d, x in enumerate(xs)]
        ks[0] *= weight
        left = ks[0] if n == 2 else (ks[0][:, None, :] * ks[1][None, :, :]).reshape(rows, -1)
        np.matmul(left, ks[-1].T, out=out if a == 0 else part)
        if a:
            out += part
    return out.ravel()
