"""Modified Bessel functions of the second kind, built from scratch.

Provides K0, K1, K2 accurate to ~1e-13 relative over z in [1e-8, 700],
together with the ratios

    B(z) = z K1(z) / K0(z)    and    A(z) = K0(z) / K1(z)

and margin checks for the sharp two-sided bound

    (sqrt(z^2+z+1) + 1) / (z+1)  <  K1(z)/K0(z)  <  1 + 1/(2z),   z > 0.

Two evaluation routes are kept deliberately independent:

* ``bessel_k`` -- ascending log series for small z, a Lentz-style continued
  fraction for large z.  No quadrature anywhere.  ``_k0_k1`` splits a batch
  between the two: K0 and K1 for ``bessel_k``, one K1/K0 array for ``ratio_A``,
  ``ratio_B`` and ``check_ratio_bounds``.
* ``oracle_bessel_k`` -- adaptive composite Gauss-Legendre quadrature of the
  integral representation K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt,
  refined until the self-estimated error is below 1e-14 relative.

The series (``_series_sums``) and the continued fraction (``_cf``) are each
one loop, run on a numpy array or on one Python float.  ``_kernel``, at the
entry of ``bessel_k``, ``ratio_A`` and ``ratio_B``, is the one switch: a
scalar or a batch of at most ``_SMALL`` points goes point by point through
``_k0_k1_point``, one Python float from the domain check to the result;
larger batches run ``_k0_k1`` on arrays.  The bits are the same: each point
makes the same + - * /, abs, sqrt, comparisons, np.log and np.exp calls in
the same order (math.log and math.exp need not round alike).  A continued-
fraction point stops on its own test; every series point of a batch takes
the term count of the batch's largest t = z^2/4 (``_series_terms``).

All functions accept scalars or numpy arrays of z in [Z_MIN, Z_MAX) and are pure.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061

#: crossover between the ascending series and the continued fraction
SERIES_CUTOFF = 2.0

#: exp(-z) leaves the normal double range past here; K values are subnormal,
#: then 0.0, and ``bessel_k_detail`` returns the flag z > UNDERFLOW_Z with them
UNDERFLOW_Z = 705.0

#: scalars and batches of at most this many points run ``_k0_k1_point`` (see the
#: module docstring).  On a 2-vCPU x86-64 host with numpy 2.4 and every z just
#: above 2 (the worst case), bessel_k((0, 1), z) takes 0.75x numpy's time at 32
#: points, 1.0x at 40-44 and 1.5x at 64; on spread grids under 0.45x to 96 points.
_SMALL = 32

#: lower edge of z: from the smallest normal double on, K1 ~ 1/z stays below
#: 2**1022, and from 2**-511 on K2 ~ 2/z^2 stays below 2**1023.  Under them
#: K1 overflows from z ~ 5.6e-309 and K2 from z ~ 1.05e-154.  Upper edge:
#: the continued fraction's 2 (1 + z) overflows from z = 2**1023.
Z_MIN = 2.0**-1022
Z_MIN_K2 = 2.0**-511
Z_MAX = 2.0**1023

_CF_MAX_ITER = 4000
_SERIES_MAX_TERMS = 64
#: relative agreement of two successive panel levels that certifies the oracle
_ORACLE_RTOL = 1e-14
#: below here (cosh(2T) overflows from z ~ 1.27e-152 down, 120/z and cosh T
#: from ~6.7e-307) every order of the oracle takes the log form of ``_oracle_deep``
_ORACLE_DEEP_Z = 1.3e-152


class BesselDomainError(ValueError):
    """Raised for non-finite arguments, those below Z_MIN (Z_MIN_K2 for K2)
    and those from Z_MAX on."""


class BesselAccuracyError(RuntimeError):
    """Raised when the quadrature oracle cannot certify its target accuracy."""


def _in_domain(z, with_k2=False):
    """Z_MIN (Z_MIN_K2 for K2) <= z < Z_MAX, false for nan; on an array or a float."""
    return ((Z_MIN_K2 if with_k2 else Z_MIN) <= z) & (z < Z_MAX)


def _as_float(z, too_large=Z_MAX):
    """A Python float for a Python float or int, else a float array; past the double range
    an int reads as +-``too_large`` (Z_MAX by default) and a sequence as ``too_large``."""
    try:
        return float(z) if isinstance(z, (float, int)) else np.asarray(z, dtype=float)
    except OverflowError:
        return -too_large if isinstance(z, int) and z < 0 else too_large


def _validate_z(z, with_k2=False):
    z, z_min = _as_float(z), (Z_MIN_K2 if with_k2 else Z_MIN)
    if not np.all(_in_domain(z, with_k2)):
        if not np.all(np.isfinite(z)) or np.any(z < z_min):
            raise BesselDomainError(f"{'K2' if with_k2 else 'K_nu'} requires finite z >= "
                                    f"{z_min:.4g}; it overflows a double below")
        raise BesselDomainError("K_nu requires z < 2**1023 ~ 8.988e+307; 2 (1 + z) overflows")
    return z


def _series_k(z, log_half_z, i0, k0_sum, i1_sum, k1_sum):
    """K0 and K1 by the ascending log series, accurate for z <= SERIES_CUTOFF,
    from log(z/2) and the series sums, on arrays or floats alike."""
    return (-(log_half_z + EULER_GAMMA) * i0 + k0_sum,
            log_half_z * (0.5 * z * i1_sum) + 1.0 / z - 0.25 * z * k1_sum)


def _series_terms(t):
    """The series' term count at t = z^2/4: the first m whose I0 term is at most
    1e-18 of its partial sum.  On [0, 1] it never falls as t grows (1 to 13
    terms), so a batch's largest t gives the count at which every point's
    own test has passed."""
    i0_term = i0 = 1.0
    for m in range(1, _SERIES_MAX_TERMS):
        i0_term = i0_term * t / (m * m)
        i0 += i0_term
        if i0_term <= 1e-18 * i0:
            break
    return m


def _series_sums(t, terms):
    """I0, sum_{m>=1} H_m t^m/(m!)^2, I1 and the psi-weighted I1 sum to
    ``terms`` terms, on an array or one float."""
    i0_term = i0 = i1_term = i1_sum = 1.0  # the m = 0 terms
    k0_sum = 0.0                           # sum_{m>=1} H_m t^m / (m!)^2
    k1_sum = -2.0 * EULER_GAMMA + 1.0      # (psi(1)+psi(2)) at m=0
    harmonic = 0.0
    for m in range(1, terms + 1):
        harmonic += 1.0 / m
        i0_term = i0_term * t / (m * m)
        i0 += i0_term
        k0_sum += i0_term * harmonic
        i1_term = i1_term * t / (m * (m + 1))
        i1_sum += i1_term
        # psi(m+1) + psi(m+2) = -2 gamma + H_m + H_{m+1}
        k1_sum += i1_term * (-2.0 * EULER_GAMMA + 2.0 * harmonic + 1.0 / (m + 1))
    return i0, k0_sum, i1_sum, k1_sum


def _cf_steps():
    """(a, c) of the continued fraction's steps i = 2, 3, ...; they do not depend on z."""
    steps, c, a = [], 0.25, -0.25
    for i in range(2, _CF_MAX_ITER):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        steps.append((a, c))
    return tuple(steps)


_CF_STEPS = _cf_steps()


def _cf(z, with_s):
    """Temme/Thompson-Barnett continued fraction (modified Lentz, order 0), on
    an array or on one Python float.

    Returns h, with K1/K0 = (z + 1/2 - h/4)/z, and with ``with_s`` also s,
    with K0 = sqrt(pi/(2z)) e^{-z} / s, for z >= SERIES_CUTOFF.  A point
    retires once its own test passes, |dels| <= 1e-17 |s| with s and
    |delh| <= 1e-17 |h| without (~90 steps just above z = 2, 6-12 for most
    z): what it would still add is below half an ulp.  One float stops
    there.  In an array large z retires first, so on an ascending grid the
    retired elements are a suffix and the live arrays shrink by slicing;
    otherwise by boolean compaction.
    """
    point = isinstance(z, float)
    if not point:
        live, h_out, s_out = np.arange(z.size), np.empty_like(z), np.empty_like(z)
    b = 2.0 * (1.0 + z)
    h = delh = d = 1.0 / b  # the loop rebinds, never writes in place
    if with_s:
        q1 = 0.0 * z
        q2, q = q1 + 1.0, q1 + 0.25
        s = 1.0 + q * delh
    for a, c in _CF_STEPS:
        if with_s:
            q1, q2 = q2, (q1 - b * q2) / a
            q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        if with_s:
            dels = q * delh
            s = s + dels
            done = abs(dels) <= 1e-17 * abs(s)
        else:
            done = abs(delh) <= 1e-17 * abs(h)
        if point:
            if done:
                break
        elif done.any():
            n = live.size - np.count_nonzero(done)
            keep, gone = (slice(n), slice(n, None)) if done[n:].all() else (~done, done)
            h_out[live[gone]] = h[gone]
            if with_s:
                s_out[live[gone]] = s[gone]
                q1, q2, q, s = q1[keep], q2[keep], q[keep], s[keep]
            live, b, d, h, delh = live[keep], b[keep], d[keep], h[keep], delh[keep]
            if not live.size:
                break
    if not point:
        h_out[live] = h
        if with_s:
            s_out[live] = s
        h, s = h_out, s_out
    return (h, s) if with_s else h


def _k0_k1(z, with_k2=False, ratio=False):
    """K0 and K1, or with ``ratio`` K1/K0 in one array: k1/k0 at series points and
    (z + 1/2 - h/4)/z at continued-fraction points, which skip s and exp(-z), so
    K1/K0 stays finite far past the underflow point of K itself."""
    z = np.atleast_1d(_validate_z(z, with_k2))
    k0 = np.empty_like(z)  # K1/K0 with ``ratio``
    k1 = None if ratio else np.zeros(z.shape)  # calloc'd: no page is touched before it is written
    small = z <= SERIES_CUTOFF
    if np.any(small):
        zs = z[small]
        t = 0.25 * zs * zs
        k0s, k1s = _series_k(zs, np.log(0.5 * zs), *_series_sums(t, _series_terms(float(t.max()))))
        k0[small] = k1s / k0s if ratio else k0s
        if not ratio:
            k1[small] = k1s
    if np.any(large := ~small) and ratio:
        zl = z[large]
        k0[large] = (zl + 0.5 - 0.25 * _cf(zl, with_s=False)) / zl
    elif np.any(large):
        with np.errstate(under="ignore"):
            k0[large] = np.exp(-z[large])  # K0 = exp(-z) so far
        large &= k0 > 0.0  # where exp(-z) = 0.0, K stays 0.0 (s may overflow)
        if np.any(large):
            zl = z[large]
            h, s = _cf(zl, with_s=True)
            with np.errstate(under="ignore"):
                k0[large] = np.sqrt(np.pi / (2.0 * zl)) * k0[large] / s
            k1[large] = k0[large] * (zl + 0.5 - 0.25 * h) / zl
    return k0 if ratio else (k0, k1)


def _k0_k1_point(x, with_k2, ratio, terms):
    """``_k0_k1`` at one Python float x: K0 and K1, or with ``ratio`` K1/K0; the series
    to ``terms`` terms (0: its own count).  Up to x = 708 exp(-x) is a normal double and
    raises no floating-point flag, so only past it does np.exp run under np.errstate."""
    if not _in_domain(x, with_k2):
        _validate_z(x, with_k2)  # raises the numpy path's error
    if x <= SERIES_CUTOFF:
        t = 0.25 * x * x
        k0, k1 = _series_k(x, float(np.log(0.5 * x)), *_series_sums(t, terms or _series_terms(t)))
        return k1 / k0 if ratio else (k0, k1)
    if ratio:  # as ``_k0_k1`` writes it
        return (x + 0.5 - 0.25 * _cf(x, with_s=False)) / x
    if x <= 708.0:
        decay = float(np.exp(-x))
    else:
        with np.errstate(under="ignore"):
            decay = float(np.exp(-x))
        if decay == 0.0:
            return 0.0, 0.0  # K stays 0.0 where exp(-z) is (s may overflow)
    h, s = _cf(x, with_s=True)
    k0 = math.sqrt(np.pi / (2.0 * x)) * decay / s
    return k0, k0 * (x + 0.5 - 0.25 * h) / x


def _kernel(z, with_k2=False, ratio=False):
    """The module docstring's switch: z (1-d), ``_k0_k1``'s result and whether z was a scalar."""
    z = _as_float(z)
    if isinstance(z, float) and _SMALL:
        out = _k0_k1_point(z, with_k2, ratio, 0)
        return [z], ([out] if ratio else ([out[0]], [out[1]])), True
    scalar, z = np.ndim(z) == 0, np.atleast_1d(z)
    if z.ndim > 1 or not 0 < z.size <= _SMALL:
        return z, _k0_k1(z, with_k2, ratio), scalar
    zs = z.tolist()
    if not all(_in_domain(x, with_k2) for x in zs):
        _validate_z(z, with_k2)  # the numpy path's error for the whole batch
    terms = _series_terms(max([0.25 * x * x for x in zs if x <= SERIES_CUTOFF], default=0.0))
    points = [_k0_k1_point(x, with_k2, ratio, terms) for x in zs]
    return zs, (points if ratio else tuple(zip(*points))), scalar


def _map(fn, *columns):
    """fn over the kernel's columns: once on arrays, point by point on lists."""
    return fn(*columns) if isinstance(columns[0], np.ndarray) else list(map(fn, *columns))


def _check_orders(order):
    """Orders as a tuple, and whether ``order`` is one (0, 1 or 2), not a tuple of them."""
    single = not isinstance(order, tuple) and (isinstance(order, int) or np.ndim(order) == 0)
    orders = (order,) if single else tuple(order)
    if not all(isinstance(o, (int, np.integer)) and o in (0, 1, 2) for o in orders):
        raise ValueError("order must be 0, 1 or 2")
    return orders, single


def _shape_rows(rows, single, scalar):
    """One row per order (or family), shaped for the call: for a single one a
    float (scalar z) or its row as an array; for a tuple the rows as an array,
    or one value per entry for scalar z."""
    if scalar:
        return float(rows[0][0]) if single else np.array([row[0] for row in rows])
    return np.asarray(rows[0]) if single else np.asarray(rows)


def bessel_k(order, z):
    """K_order(z) for order in {0, 1, 2}; scalar in, scalar out.

    A tuple of orders, e.g. ``(0, 1, 2)``, shares one pass and returns one
    row per order (shape ``(len(order),)`` for scalar z, ``(len(order),
    z.size)`` otherwise), each bitwise equal to the single-order call.
    Past UNDERFLOW_Z values underflow gracefully to subnormals, then 0.0
    (``bessel_k_detail`` returns a flag for that).  K2 comes from the recurrence
    K2 = K0 + 2 K1/z, which makes the recurrence residual exact.
    """
    orders, single = _check_orders(order)
    z1, (k0, k1), scalar = _kernel(z, 2 in orders)
    k2 = _map(lambda a, b, x: a + 2.0 * b / x, k0, k1, z1) if 2 in orders else None
    return _shape_rows([(k0, k1, k2)[o] for o in orders], single, scalar)


def bessel_k_detail(order, z):
    """``(bessel_k(order, z), z > UNDERFLOW_Z)`` for scalar z.  It stays because the benchmark
    tracer wraps ``profiles.solve_mode``'s call to it; ROADMAP item 6 retires it with the tracer."""
    z = float(_as_float(z))
    return bessel_k(order, z), z > UNDERFLOW_Z


def ratio_B(z):
    """B(z) = z K1(z)/K0(z); the Dirichlet-to-Neumann symbol of the Laplace map."""
    z1, ratio, scalar = _kernel(z, ratio=True)
    return _shape_rows([_map(lambda x, r: x * r, z1, ratio)], True, scalar)


def ratio_A(z):
    """A(z) = K0(z)/K1(z) in (0, 1), monotone increasing to 1."""
    _, ratio, scalar = _kernel(z, ratio=True)
    return _shape_rows([_map(lambda r: 1.0 / r, ratio)], True, scalar)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _gauss_panels(n_panels, n_nodes):
    """Nodes/weights for composite Gauss-Legendre on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights


def _oracle_quad(orders, z, n_panels):
    """Composite 40-node GL of int_0^T exp(-z cosh t) cosh(order t) dt, one row per order.

    z is taken 16 points at a time so that the four temporaries (t, cosh t,
    exp(-z cosh t), the order-2 product), allocated once and filled in place,
    stay in cache: at 64 panels each is 16 x 2560 doubles (320 KB).  The rows
    do not depend on the chunk size.  Points below ``_ORACLE_DEEP_Z`` go to
    ``_oracle_deep``.
    """
    u, w = _gauss_panels(n_panels, 40)
    deep = z < _ORACLE_DEEP_Z
    if deep.any():
        out = np.empty((len(orders), z.size))
        out[:, deep] = _oracle_deep(orders, z[deep], u, w)
        out[:, ~deep] = _oracle_quad(orders, z[~deep], n_panels)
        return out
    # truncation point: z (cosh T - 1) = 120 makes the tail utterly negligible
    # relative to K_nu(z) ~ exp(-z), even with the cosh(order t) growth.
    T = np.arccosh(1.0 + 120.0 / z)
    out = np.empty((len(orders), z.size))
    buffers = np.empty((4, min(16, z.size), u.size))
    with np.errstate(under="ignore", over="ignore"):
        for lo in range(0, z.size, 16):
            hi = min(lo + 16, z.size)
            t, cosh_t, f0, f = buffers[:, :hi - lo]
            np.multiply(T[lo:hi, None], u, out=t)
            np.cosh(t, out=cosh_t)
            np.exp(np.multiply(-z[lo:hi, None], cosh_t, out=f0), out=f0)
            for row, order in enumerate(orders):
                if order == 1:
                    np.multiply(f0, cosh_t, out=f)
                elif order:
                    np.multiply(f0, np.cosh(np.multiply(t, order, out=f), out=f), out=f)
                out[row, lo:hi] = T[lo:hi] * ((f if order else f0) @ w)
    return out


def _oracle_deep(orders, z, u, w):
    """``_oracle_quad`` in log form, one point at a time: T = log(240/z) (that is
    arccosh(1 + 120/z) to rounding) and the integrand is
    exp(log cosh(order t) - z cosh t), z cosh t = exp(t + log(z/2)) + (z/2) e^-t."""
    T = np.log(240.0) - np.log(z)
    out = np.empty((len(orders), z.size))
    with np.errstate(under="ignore"):
        for j, half_z in enumerate(0.5 * z):
            t = T[j] * u
            z_cosh = np.exp(t + np.log(half_z)) + half_z * np.exp(-t)
            for row, order in enumerate(orders):
                log_cosh = (order * t + np.log1p(np.exp(-2.0 * order * t)) - np.log(2.0)
                            if order else 0.0)
                out[row, j] = T[j] * (np.exp(log_cosh - z_cosh) @ w)
    return out


def oracle_bessel_k(order, z):
    """Independent quadrature oracle for K_order(z).

    Adaptive in the panel count: the composite rule is refined (doubling)
    until two successive levels agree to ``_ORACLE_RTOL`` relative, and the final
    refinement difference is the certified error estimate.

    ``order`` is 0, 1 or 2, or a tuple of them such as ``(0, 1, 2)``; a
    tuple shares one quadrature and returns rows shaped as in ``bessel_k``.
    Each order retires at the first level where its own
    points agree, so every row equals the single-order call bit for bit.
    """
    orders, single = _check_orders(order)
    zarr = np.atleast_1d(_validate_z(z, 2 in orders))
    out = np.empty((len(orders), zarr.size))
    live = np.arange(len(orders))
    coarse = _oracle_quad(orders, zarr, 32)
    for n_panels in (64, 128, 256, 512):
        fine = _oracle_quad([orders[i] for i in live], zarr, n_panels)
        err = np.abs(fine - coarse)
        done = np.all(err <= _ORACLE_RTOL * np.abs(fine), axis=1)
        out[live[done]] = fine[done]
        live, coarse = live[~done], fine[~done]
        if not live.size:
            break
    else:
        worst = float(np.max(err / np.abs(fine)))
        raise BesselAccuracyError(
            f"oracle quadrature stalled at relative error {worst:.3e} (target {_ORACLE_RTOL:.1e})"
        )
    return _shape_rows(out, single, np.ndim(z) == 0)


# ---------------------------------------------------------------------------
# inequality margins
# ---------------------------------------------------------------------------

def check_ratio_bounds(z_grid):
    """Margins of both strict bounds on K1/K0 over ``z_grid``.

    Returns (lower_margin, upper_margin) arrays; the bounds hold iff both
    are strictly positive everywhere.
    """
    z = np.asarray(_as_float(z_grid))
    ratio = _k0_k1(z, ratio=True)  # validates z
    lower = ratio - (np.sqrt(z * z + z + 1.0) + 1.0) / (z + 1.0)
    upper = 1.0 + 0.5 / z - ratio
    return lower, upper


def check_small_z_bounds(z_grid):
    """Margins of the small-argument lower bounds on (0, 1).

    K0(z) >= -log z  and  z K1(z) >= 1 - z^2 (1 + |log z|).
    Returns (margin_k0, margin_k1) arrays; both must be nonnegative.
    """
    z = np.asarray(_as_float(z_grid))
    k0, k1 = _k0_k1(z)  # validates z, so a domain error comes first
    if np.any(z >= 1.0):
        raise ValueError("small-z bounds are stated on (0, 1)")
    m0 = k0 + np.log(z)
    m1 = z * k1 - (1.0 - z * z * (1.0 + np.abs(np.log(z))))
    return m0, m1
