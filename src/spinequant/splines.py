"""Cubic spline fits of the centerline, in numpy.

Three fits feed one piecewise-cubic Hermite evaluator (values and first
derivatives at the knots):

* ``pchip``: Fritsch-Carlson monotone interpolation ("Monotone piecewise
  cubic interpolation", 1980) with the weighted harmonic-mean interior
  slopes and shape-preserving three-point end slopes of
  ``scipy.interpolate.PchipInterpolator``;
* ``smoothing_spline``: the natural cubic smoothing spline minimising
  ``sum (y_i - g(x_i))^2 + lam * integral g''^2`` in Reinsch form
  ("Smoothing by spline functions", 1967), as
  ``scipy.interpolate.make_smoothing_spline`` with unit weights;
* ``not_a_knot_spline``: the interpolating cubic with not-a-knot ends, as
  ``scipy.interpolate.CubicSpline``.

The two splines solve one banded system each in O(n) time and memory.
Values may be (n,) or (n, k); the k columns are fit independently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CubicHermite:
    """C1 piecewise cubic with values ``y`` and slopes ``d`` at the knots ``x``.

    Points outside the knots take the polynomial of the nearest end interval.
    """

    x: np.ndarray  # (n,) strictly increasing
    y: np.ndarray  # (n,) or (n, k)
    d: np.ndarray  # like y

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        x, y, d = self.x, self.y, self.d
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
        h, slope = _steps(x, y)
        c2 = (3 * slope - 2 * d[:-1] - d[1:]) / h
        c3 = (d[:-1] + d[1:] - 2 * slope) / h ** 2
        s = (xq - x[i]).reshape(xq.shape + (1,) * (y.ndim - 1))
        return ((c3[i] * s + c2[i]) * s + d[i]) * s + y[i]


def _steps(x, y):
    """Knot spacings and secant slopes, the spacings shaped to broadcast over y."""
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    return h, np.diff(y, axis=0) / h


def pchip(x, y) -> CubicHermite:
    """Monotone piecewise-cubic interpolant (Fritsch-Carlson); n >= 2."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h, m = _steps(x, y)
    if len(x) == 2:
        return CubicHermite(x, y, np.concatenate([m, m]))
    # Interior slopes: zero at a local extremum or flat secant, otherwise the
    # weighted harmonic mean of the two secants.
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    safe0, safe1 = np.where(flat, 1.0, m[:-1]), np.where(flat, 1.0, m[1:])
    with np.errstate(over="ignore"):   # a subnormal secant: the mean is 0
        inner = np.where(flat, 0.0, 1 / ((w1 / safe0 + w2 / safe1) / (w1 + w2)))
    return CubicHermite(x, y, np.concatenate([_pchip_end(h[0], h[1], m[0], m[1])[None],
                                              inner,
                                              _pchip_end(h[-1], h[-2], m[-1], m[-2])[None]]))


def _pchip_end(h0, h1, m0, m1):
    """Three-point end slope, clipped to keep the end interval's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3 * np.abs(m0))
    return np.where(steep, 3 * m0, d)


def smoothing_spline(x, y, lam: float) -> CubicHermite:
    """Natural cubic smoothing spline with penalty ``lam`` >= 0; n >= 3.

    Reinsch: with Q the (n, n-2) second-difference matrix and R the
    (n-2, n-2) tridiagonal Gram matrix of the hat functions, the interior
    second derivatives solve (R + lam Q'Q) gamma = Q'y and the fitted values
    are g = y - lam Q gamma.  For lam >= 1 the system is divided by lam, so
    every finite lam is solvable; lam -> inf gives the least-squares line.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h, m = _steps(x, y)
    hh = h.reshape(-1)
    a, b = (1 / lam, 1.0) if lam >= 1 else (1.0, lam)   # a R + b Q'Q
    # Q's three nonzeros in column j, on rows j, j+1 and j+2.
    q0, q2 = 1 / hh[:-1], 1 / hh[1:]
    q1 = -q0 - q2
    band = np.zeros((len(x) - 2, 5))
    band[:, 2] = a * (hh[:-1] + hh[1:]) / 3 + b * (q0 ** 2 + q1 ** 2 + q2 ** 2)
    off1 = a * hh[1:-1] / 6 + b * (q1[:-1] * q0[1:] + q2[:-1] * q1[1:])
    off2 = b * q2[:-2] * q0[2:]
    band[:-1, 3], band[1:, 1] = off1, off1
    band[:-2, 4], band[2:, 0] = off2, off2
    zero = np.zeros_like(y[:1])
    eta = np.concatenate([zero, _solve_banded(band, np.diff(m, axis=0)), zero])
    g = y - b * np.diff(np.diff(eta, axis=0) / h, axis=0, prepend=zero, append=zero)
    return _from_second_derivatives(x, g, a * eta)


def not_a_knot_spline(x, y) -> CubicHermite:
    """Interpolating cubic spline, third derivative continuous at x[1] and x[-2]; n >= 4.

    The end second derivatives are eliminated through the not-a-knot
    conditions, which leaves a strictly diagonally dominant tridiagonal
    system in the interior second derivatives.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h, m = _steps(x, y)
    hh = h.reshape(-1)
    band = np.zeros((len(x) - 2, 3))
    band[:, 1] = 2 * (hh[:-1] + hh[1:])
    band[:-1, 2] = hh[1:-1]
    band[1:, 0] = hh[1:-1]
    # M[0] = ((h0 + h1) M[1] - h0 M[2]) / h1, and mirrored at the far end.
    band[0, 1] += hh[0] * (hh[0] + hh[1]) / hh[1]
    band[0, 2] -= hh[0] ** 2 / hh[1]
    band[-1, 1] += hh[-1] * (hh[-1] + hh[-2]) / hh[-2]
    band[-1, 0] -= hh[-1] ** 2 / hh[-2]
    inner = _solve_banded(band, 6 * np.diff(m, axis=0))
    first = ((hh[0] + hh[1]) * inner[0] - hh[0] * inner[1]) / hh[1]
    last = ((hh[-1] + hh[-2]) * inner[-1] - hh[-1] * inner[-2]) / hh[-2]
    return _from_second_derivatives(x, y, np.concatenate([first[None], inner, last[None]]))


def _from_second_derivatives(x, y, second) -> CubicHermite:
    """The C2 cubic through ``y`` with knot second derivatives ``second``, in slopes."""
    h, m = _steps(x, y)
    d = np.concatenate([m - h * (2 * second[:-1] + second[1:]) / 6,
                        m[-1:] + h[-1:] * (second[-2:-1] + 2 * second[-1:]) / 6])
    return CubicHermite(x, y, d)


def _solve_banded(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A X = rhs for a banded A by elimination without pivoting.

    ``band`` has 2w + 1 columns with ``band[i, w + j - i] = A[i, j]`` and
    zeros where j falls outside A.  A must need no pivoting (symmetric
    positive definite, or strictly diagonally dominant).  Time and memory
    are O(n w^2) and O(n w).  The forward sweep runs on Python floats, each step the product
    and difference numpy would form.  The back-substitution stays numpy: its ``@`` goes
    through BLAS, whose sums may round otherwise than plain ones, so the spline bits depend
    on the BLAS build.
    """
    n, width = band.shape
    w = width // 2
    rows, x = band.tolist(), rhs.reshape(n, rhs.size // max(n, 1)).tolist()
    for i in range(n - 1):
        for k in range(1, min(w, n - 1 - i) + 1):
            row = rows[i + k]
            f = row[w - k] / rows[i][w]
            row[w - k:width - k] = [a - f * b for a, b in zip(row[w - k:width - k], rows[i][w:])]
            x[i + k] = [a - f * b for a, b in zip(x[i + k], x[i])]
    band, x = np.array(rows), np.array(x, dtype=float).reshape(rhs.shape)
    for i in range(n - 1, -1, -1):
        k = min(w, n - 1 - i)
        x[i] = (x[i] - band[i, w + 1:w + 1 + k] @ x[i + 1:i + 1 + k]) / band[i, w]
    return x
