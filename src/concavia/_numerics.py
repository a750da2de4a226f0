"""Piecewise polynomials, Brent's root finder, a lock-step bracketing root
finder for many points at once, a Kronecker sequence and the per-process
cache of the sample tables built on it.

:class:`PPoly` and :func:`brentq` reproduce ``scipy.interpolate.PPoly`` and
``scipy.optimize.brentq`` bit for bit on the inputs this package gives them
(1-D coefficients on strictly increasing breakpoints, extrapolation on), so
the package needs numpy only at run time.  Each operation is performed in
scipy's order: the power sum below is not Horner's rule, because
finite-difference jets (the ``levi_field`` export's and the tests'
oracles') amplify a last-bit change in a profile value to about 1e-6
relative in a root.  The tests compare both against
scipy with ``tobytes()``.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_right

import numpy as np

__all__ = ["PPoly", "brentq", "crossing", "kronecker", "sample_table", "GOLD", "SILVER"]

#: 1 / the golden and silver means: rationally independent with 1
GOLD = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def kronecker(n: int, steps) -> np.ndarray:
    """Rows ``k * steps % 1``, ``k < n``: a low-discrepancy sequence in ``[0, 1)^d``.

    For ``x >= 0``, ``x - floor(x)`` is exact (Sterbenz's lemma), so it has
    the bits of ``x % 1.0``, and numpy computes it faster."""
    x = np.arange(n)[:, None] * np.asarray(steps)
    return x - np.floor(x)


def sample_table(build):
    """Cache ``build(n)``, an array or a tuple of arrays that depend on ``n``
    alone, for the life of the process, and make the arrays read-only.

    The sweeps call a builder for the parameter-free part of their samples
    (Kronecker angles and the like) on every run; with the cache only the
    first call per size computes it.  Four sizes are kept per builder.
    """
    @functools.lru_cache(maxsize=4)
    def cached(n: int):
        out = build(n)
        for a in out if isinstance(out, tuple) else (out,):
            a.flags.writeable = False
        return out
    return functools.wraps(build)(cached)


def _rising(k: int, nu: int) -> float:
    """``k (k+1) ... (k+nu-1)``, exact for the small orders used here."""
    return float(math.prod(range(k, k + nu)))


def _poly1(s: float, piece: list, dx: int) -> float:
    """``dx``-th derivative of one local polynomial (high order first) at ``s``."""
    res, z = 0.0, 1.0
    k = len(piece)
    for kp in range(dx, k):
        pref = 1.0
        for m in range(kp, kp - dx, -1):
            pref *= m
        res = res + piece[k - kp - 1] * z * pref
        z *= s
    return res


class PPoly:
    """Piecewise polynomial in the local power basis.

    ``c[m, i]`` multiplies ``(x - x[i])**(k - 1 - m)`` on piece ``i``, where
    ``k = c.shape[0]``.  Pieces are half-open ``[x[i], x[i+1])``, the last
    one closed; the end pieces extrapolate, and NaN evaluates to NaN.  The
    coefficient and breakpoint arrays are read-only: a spline is built from
    its final coefficients and never edited.
    """

    __slots__ = ("c", "x", "_rows", "_inner", "_inner_list", "_xs", "_pieces")

    def __init__(self, c, x):
        c = np.array(c, dtype=float)
        x = np.array(x, dtype=float)
        if c.ndim != 2 or x.ndim != 1 or x.size < 2 or c.shape[1] != x.size - 1:
            raise ValueError(f"PPoly needs c of shape (k, {x.size - 1}) for "
                             f"{x.size} breakpoints, got {c.shape}")
        if not np.all(np.diff(x) > 0):
            raise ValueError("PPoly breakpoints must be strictly increasing")
        c.flags.writeable = False
        x.flags.writeable = False
        self.c, self.x = c, x
        self._rows = tuple(c)   # array evaluation gathers one row per power
        self._inner = x[1:-1]
        # scalar evaluation runs on Python floats
        self._inner_list = self._inner.tolist()
        self._xs = x.tolist()
        self._pieces = c[::-1].T.tolist()  # per piece, constant term first

    def __call__(self, v):
        a = np.asarray(v, dtype=float)
        if a.ndim == 0:
            t = float(a)
            if t != t:
                return math.nan
            i = bisect_right(self._inner_list, t)
            s = t - self._xs[i]
            res, z = 0.0, 1.0
            for ck in self._pieces[i]:
                res = res + ck * z
                z *= s
            return res
        flat = a.ravel()
        i = np.searchsorted(self._inner, flat, "right")
        s = flat - self.x.take(i)
        rows = self._rows
        res = rows[-1].take(i) + 0.0
        z = s
        for m in range(len(rows) - 2, -1, -1):
            res = res + rows[m].take(i) * z
            if m:
                z = z * s
        res[np.isnan(flat)] = np.nan
        return res.reshape(a.shape)

    def derivative(self, nu: int = 1) -> "PPoly":
        """The ``nu``-th derivative, one order lower per differentiation."""
        k = self.c.shape[0] - nu
        if k <= 0:
            return PPoly(np.zeros((1, self.c.shape[1])), self.x)
        factor = np.array([_rising(j, nu) for j in range(k, 0, -1)])
        return PPoly(self.c[:k] * factor[:, None], self.x)

    def antiderivative(self, nu: int = 1) -> "PPoly":
        """The ``nu``-th antiderivative, vanishing to order ``nu - 1`` at
        ``x[0]`` and ``C^(nu-1)`` across the breakpoints."""
        k, n = self.c.shape
        factor = np.array([_rising(j, nu) for j in range(k, 0, -1)])
        rows = np.vstack([self.c / factor[:, None], np.zeros((nu, n))]).tolist()
        # continuity: piece ip-1 at its right end sets the value and the
        # first nu-1 derivatives of piece ip, piece by piece
        for ip in range(1, n):
            s = self._xs[ip] - self._xs[ip - 1]
            piece = [row[ip - 1] for row in rows]
            for dx in range(nu - 1, -1, -1):
                res = _poly1(s, piece, dx)
                for m in range(dx):
                    res /= m + 1
                rows[k + nu - dx - 1][ip] = res
        return PPoly(rows, self.x)


_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method (Brent 1973, ch. 4).

    Step for step the algorithm of scipy's ``brentq`` at its default
    ``rtol = 4 eps`` and ``maxiter = 100``: inverse quadratic extrapolation
    or a secant step when it is short enough, bisection otherwise, until
    the bracket is narrower than ``xtol + rtol |x|``.  Raises
    ``ValueError`` when ``f(a)`` and ``f(b)`` have the same sign or ``f``
    returns NaN, and ``RuntimeError`` after ``maxiter`` iterations.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur:f}")


def crossing(F, lo, hi, f_lo, f_hi):
    """Adjacent floats ``a < b`` with ``F(a) < 0 <= F(b)``, one pair per point.

    ``F(t, i)`` evaluates an increasing function of the points with indices
    ``i`` at levels ``t``; ``f_lo <= 0 <= f_hi`` are its values at the bracket
    ``lo``, ``hi``.  Four clipped secant steps estimate the root ``x``, and
    ``[x - d, x + d]`` with ``d = 4|F(x)| / slope + 1024 ulp`` replaces the
    bracket wherever ``F`` changes sign across it; where it does not, ``d``
    grows by 16, 256 and 4096 on those points alone, and only then is all of
    ``[lo, hi]`` kept; each window test reads both ends in one ``F`` call.
    Bisection on ``F(mid) < 0`` then runs until the midpoint rounds to an
    end, dropping the points that got there, and returns as soon as no
    point is left.  Where ``F`` is monotone in floating point this is the
    pair a bisection of ``[lo, hi]`` reaches.  It serves the dish levels of
    ``family._Foliation.gamma``, whose wall levels are closed forms.
    """
    def straddles(a, b, i):
        f_a, f_b = np.split(F(np.concatenate([a, b]), np.concatenate([i, i])), 2)
        return (f_a < 0.0) & (f_b >= 0.0)

    idx = np.arange(lo.size)
    x0, y0, x1, y1 = lo, f_lo, hi, f_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(4):
            x = np.clip(x1 - y1 * (x1 - x0) / (y1 - y0), lo, hi)
            x = np.where(np.isnan(x), x1, x)   # 0/0: the step has stalled
            x0, y0, x1, y1 = x1, y1, x, F(x, idx)
        # float F has plateaus near the root, where the last secant is flat
        slope = (y1 - y0) / (x1 - x0)
        slope = np.where(slope > 0.0, slope, (f_hi - f_lo) / (hi - lo))
        d = 4.0 * np.abs(y1) / slope + 1024.0 * np.spacing(x1)
        a = np.clip(x1 - d, lo, hi)
        b = np.clip(x1 + d, lo, hi)
        keep = straddles(a, b, idx)
        # one point bisecting all of [lo, hi] keeps the loop running about
        # 55 steps for every point, so a miss first retries a wider window
        miss = idx[~keep]
        for grow in (16.0, 256.0, 4096.0):
            if not miss.size:
                break
            am = np.clip(x1[miss] - grow * d[miss], lo[miss], hi[miss])
            bm = np.clip(x1[miss] + grow * d[miss], lo[miss], hi[miss])
            hit = straddles(am, bm, miss)
            a[miss[hit]], b[miss[hit]] = am[hit], bm[hit]
            keep[miss[hit]] = True
            miss = miss[~hit]
    lo, hi = np.where(keep, a, lo), np.where(keep, b, hi)
    while True:
        a, b = lo[idx], hi[idx]
        mid = 0.5 * (a + b)
        live = (mid != a) & (mid != b)
        if not live.any():
            return lo, hi
        idx, mid = idx[live], mid[live]
        up = F(mid, idx) < 0.0
        lo[idx[up]] = mid[up]
        hi[idx[~up]] = mid[~up]
