"""Modified Bessel functions of the second kind, built from scratch.

Provides K0, K1, K2 accurate to ~1e-13 relative over z in [1e-8, 700],
together with the ratios

    B(z) = z K1(z) / K0(z)    and    A(z) = K0(z) / K1(z)

and margin checks for the sharp two-sided bound

    (sqrt(z^2+z+1) + 1) / (z+1)  <  K1(z)/K0(z)  <  1 + 1/(2z),   z > 0.

Two evaluation routes are kept deliberately independent:

* ``bessel_k`` -- ascending log series for small z, a Lentz-style continued
  fraction for large z.  No quadrature anywhere.  ``_k0_k1`` is the one
  dispatcher between the two: K0 and K1 for ``bessel_k``, K1/K0 for
  ``ratio_A``, ``ratio_B`` and ``check_ratio_bounds``.
* ``oracle_bessel_k`` -- adaptive composite Gauss-Legendre quadrature of the
  integral representation K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt,
  refined until the self-estimated error is below 1e-14 relative.

The series and continued-fraction loops of ``bessel_k`` have two forms,
picked by batch size alone.  Batches of at most ``_SMALL`` points run on
Python floats, where a numpy call on a one-element array would cost ~1 us
per operation; larger ones run on numpy arrays.  The bits do not depend on
the form: the loops use only + - * /, abs and comparisons, which round the
same on Python floats as on float64 arrays, in the same order and with the
same stopping tests (per element for the continued fraction, joint over the
batch for the series).  np.log, np.sqrt and np.exp stay numpy calls on the
whole batch in both forms.

All functions accept scalars or numpy arrays of z in [Z_MIN, Z_MAX) and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.57721566490153286061

#: crossover between the ascending series and the continued fraction
SERIES_CUTOFF = 2.0

#: exp(-z) leaves the normal double range past here; K values are subnormal,
#: then 0.0, and ``bessel_k_detail`` flags them
UNDERFLOW_Z = 705.0

#: batches of at most this many points run the series and continued-fraction
#: loops on Python floats (see the module docstring).  Measured on a 2-vCPU
#: x86-64 host with numpy 2.4, where every element needs as many steps as
#: the slowest (the worst case for floats): floats win up to 24 points, the
#: two break even at 32-40 (numpy 1.4x ahead just above z = 2) and numpy
#: wins from 48.  On spread grids numpy pays the slowest element's step
#: count and floats only the mean, so floats win past 64.  The traction
#: route and the verify suites call with 1-16 points and the spectra with
#: thousands, so 32 loses little in the worst case and nothing in use.
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


class BesselDomainError(ValueError):
    """Raised for non-finite arguments, those below Z_MIN (Z_MIN_K2 for K2)
    and those from Z_MAX on."""


class BesselAccuracyError(RuntimeError):
    """Raised when the quadrature oracle cannot certify its target accuracy."""


@dataclass(frozen=True)
class BesselEval:
    """One K_nu evaluation; ``underflowed`` marks z > UNDERFLOW_Z, where the
    value is subnormal or 0.0."""

    order: int
    value: float
    underflowed: bool = False


def _validate_z(z, with_k2=False):
    z = np.asarray(z, dtype=float)
    z_min = Z_MIN_K2 if with_k2 else Z_MIN
    if z.size and (not np.all(np.isfinite(z)) or np.any(z < z_min)):
        raise BesselDomainError(f"{'K2' if with_k2 else 'K_nu'} requires finite z >= {z_min:.4g}"
                                "; it overflows a double below")
    if np.any(z >= Z_MAX):
        raise BesselDomainError("K_nu requires z < 2**1023 ~ 8.988e+307; 2 (1 + z) overflows")
    return z


def _k0_k1_series(z):
    """Ascending log series for K0, K1; accurate for z <= SERIES_CUTOFF."""
    t = 0.25 * z * z
    log_half_z = np.log(0.5 * z)
    i0, k0_sum, i1_sum, k1_sum = _series_sums(t)
    i1 = 0.5 * z * i1_sum
    k0 = -(log_half_z + EULER_GAMMA) * i0 + k0_sum
    k1 = log_half_z * i1 + 1.0 / z - 0.25 * z * k1_sum
    return k0, k1


def _series_sums(t):
    """I0, sum_{m>=1} H_m t^m/(m!)^2, I1 and the psi-weighted I1 sum, all
    stopping together once every I0 term is below 1e-18 of its partial sum."""
    if t.size <= _SMALL:
        return _series_sums_floats(t)
    i0_term = np.ones_like(t)
    i0 = np.ones_like(t)
    k0_sum = np.zeros_like(t)          # sum_{m>=1} H_m t^m / (m!)^2
    i1_term = np.ones_like(t)          # t^m / (m!(m+1)!), m = 0 term
    i1_sum = np.ones_like(t)
    k1_sum = np.ones_like(t) * (-2.0 * EULER_GAMMA + 1.0)   # (psi(1)+psi(2)) at m=0
    harmonic = 0.0
    for m in range(1, _SERIES_MAX_TERMS):
        harmonic += 1.0 / m
        i0_term = i0_term * t / (m * m)
        i0 += i0_term
        k0_sum += i0_term * harmonic
        i1_term = i1_term * t / (m * (m + 1))
        i1_sum += i1_term
        # psi(m+1) + psi(m+2) = -2 gamma + H_m + H_{m+1}
        k1_sum += i1_term * (-2.0 * EULER_GAMMA + 2.0 * harmonic + 1.0 / (m + 1))
        if np.all(i0_term <= 1e-18 * i0):
            break
    return i0, k0_sum, i1_sum, k1_sum


def _series_sums_floats(t):
    """``_series_sums`` on Python floats, the same operations in the same
    order, with the same joint stop over the whole batch."""
    t = t.tolist()
    n = len(t)
    i0_term, i0, k0_sum = [1.0] * n, [1.0] * n, [0.0] * n
    i1_term, i1_sum = [1.0] * n, [1.0] * n
    k1_sum = [-2.0 * EULER_GAMMA + 1.0] * n
    harmonic = 0.0
    for m in range(1, _SERIES_MAX_TERMS):
        harmonic += 1.0 / m
        weight = -2.0 * EULER_GAMMA + 2.0 * harmonic + 1.0 / (m + 1)
        stop = True
        for j in range(n):
            term = i0_term[j] * t[j] / (m * m)
            i0_term[j] = term
            i0[j] += term
            k0_sum[j] += term * harmonic
            term1 = i1_term[j] * t[j] / (m * (m + 1))
            i1_term[j] = term1
            i1_sum[j] += term1
            k1_sum[j] += term1 * weight
            stop = stop and term <= 1e-18 * i0[j]
        if stop:
            break
    return np.array(i0), np.array(k0_sum), np.array(i1_sum), np.array(k1_sum)


def _cf(z, with_s):
    """Temme/Thompson-Barnett continued fraction (modified Lentz, order 0).

    Returns h, with K1/K0 = (z + 1/2 - h/4)/z, and with ``with_s`` also s,
    with K0 = sqrt(pi/(2z)) e^{-z} / s, for z >= SERIES_CUTOFF.  An element
    retires once its own test passes, |dels| <= 1e-17 |s| with s and
    |delh| <= 1e-17 |h| without (~90 steps just above z = 2, 6-12 for most
    z): what it would still add is below half an ulp.  Large z retires
    first, so on an ascending grid the retired elements are a suffix and
    the live arrays shrink by slicing; otherwise by boolean compaction.
    """
    if z.size <= _SMALL:
        return _cf_floats(z, with_s)
    h_out = np.empty_like(z)
    live = np.arange(z.size)
    b = 2.0 * (1.0 + z)
    h = delh = d = 1.0 / b  # the loop rebinds, never writes in place
    if with_s:
        s_out = np.empty_like(z)
        q1, q2, q = np.zeros_like(z), np.ones_like(z), np.full_like(z, 0.25)
        s = 1.0 + q * delh
    c, a = 0.25, -0.25  # independent of z, so scalars
    for i in range(2, _CF_MAX_ITER):
        a -= 2.0 * (i - 1)
        if with_s:
            c = -a * c / i
            q1, q2 = q2, (q1 - b * q2) / a
            q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        if with_s:
            dels = q * delh
            s = s + dels
            done = np.abs(dels) <= 1e-17 * np.abs(s)
        else:
            done = np.abs(delh) <= 1e-17 * np.abs(h)
        if done.any():
            n = live.size - np.count_nonzero(done)
            keep, gone = (slice(n), slice(n, None)) if done[n:].all() else (~done, done)
            h_out[live[gone]] = h[gone]
            if with_s:
                s_out[live[gone]] = s[gone]
                q1, q2, q, s = q1[keep], q2[keep], q[keep], s[keep]
            live, b, d, h, delh = live[keep], b[keep], d[keep], h[keep], delh[keep]
            if not live.size:
                break
    h_out[live] = h
    if not with_s:
        return h_out
    s_out[live] = s
    return h_out, s_out


def _cf_floats(z, with_s):
    """``_cf`` on Python floats, one element at a time, each retiring on the
    same test after the same operations in the same order."""
    h_out, s_out = [], []
    for x in z.tolist():
        b = 2.0 * (1.0 + x)
        h = delh = d = 1.0 / b
        q1, q2, q = 0.0, 1.0, 0.25
        s = 1.0 + q * delh
        c, a = 0.25, -0.25
        for i in range(2, _CF_MAX_ITER):
            a -= 2.0 * (i - 1)
            if with_s:
                c = -a * c / i
                q1, q2 = q2, (q1 - b * q2) / a
                q = q + c * q2
            b = b + 2.0
            d = 1.0 / (b + a * d)
            delh = (b * d - 1.0) * delh
            h = h + delh
            if with_s:
                dels = q * delh
                s = s + dels
                if abs(dels) <= 1e-17 * abs(s):
                    break
            elif abs(delh) <= 1e-17 * abs(h):
                break
        h_out.append(h)
        s_out.append(s)
    return (np.array(h_out), np.array(s_out)) if with_s else np.array(h_out)


def _k0_k1(z, with_k2=False, ratio=False):
    """K0 and K1, or with ``ratio`` K1/K0.  For the ratio the continued fraction
    skips s and sets K0 = 1, so K1/K0 carries no exp(-z) and stays finite far
    past the underflow point of K itself; dividing by 1.0 moves no bit."""
    z = np.atleast_1d(_validate_z(z, with_k2))
    k0 = np.empty_like(z)
    k1 = np.empty_like(z)
    small = z <= SERIES_CUTOFF
    if np.any(small):
        k0[small], k1[small] = _k0_k1_series(z[small])
    if np.any(~small):
        zl = z[~small]
        if ratio:
            h = _cf(zl, with_s=False)
            k0[~small] = 1.0
        else:
            h, s = _cf(zl, with_s=True)
            with np.errstate(under="ignore"):
                k0[~small] = np.sqrt(np.pi / (2.0 * zl)) * np.exp(-zl) / s
        k1[~small] = k0[~small] * (zl + 0.5 - 0.25 * h) / zl
    return k1 / k0 if ratio else (k0, k1)


def _check_orders(order):
    """Orders as a tuple; ``order`` is 0, 1 or 2, or a tuple of them."""
    orders = (order,) if np.ndim(order) == 0 else tuple(order)
    if any(o not in (0, 1, 2) for o in orders):
        raise ValueError("order must be 0, 1 or 2")
    return orders


def _shape_rows(rows, single, scalar):
    """One row per order (or family), shaped for the call: for a single one a
    float (scalar z) or its row; for a tuple the rows as an array, or one value
    per entry for scalar z."""
    if single:
        return float(rows[0][0]) if scalar else rows[0]
    rows = np.asarray(rows)
    return rows[:, 0] if scalar else rows


def bessel_k(order, z):
    """K_order(z) for order in {0, 1, 2}; scalar in, scalar out.

    A tuple of orders, e.g. ``(0, 1, 2)``, shares one pass and returns one
    row per order (shape ``(len(order),)`` for scalar z, ``(len(order),
    z.size)`` otherwise), each bitwise equal to the single-order call.
    Past UNDERFLOW_Z values underflow gracefully to subnormals, then 0.0
    (``bessel_k_detail`` flags them).  K2 comes from the recurrence
    K2 = K0 + 2 K1/z, which makes the recurrence residual exact.
    """
    orders = _check_orders(order)
    k0, k1 = _k0_k1(z, 2 in orders)
    by_order = (k0, k1)
    if 2 in orders:
        by_order += (k0 + 2.0 * k1 / np.atleast_1d(np.asarray(z, dtype=float)),)
    return _shape_rows([by_order[o] for o in orders], np.ndim(order) == 0, np.ndim(z) == 0)


def bessel_k_detail(order, z):
    """Like ``bessel_k``, with a :class:`BesselEval` per order that flags underflow."""
    z = float(z)
    orders = _check_orders(order)
    evals = tuple(BesselEval(o, float(v), underflowed=z > UNDERFLOW_Z)
                  for o, v in zip(orders, bessel_k(orders, z)))
    return evals[0] if np.ndim(order) == 0 else evals


def ratio_B(z):
    """B(z) = z K1(z)/K0(z); the Dirichlet-to-Neumann symbol of the Laplace map."""
    out = np.asarray(z, dtype=float) * _k0_k1(z, ratio=True)
    return float(out[0]) if np.ndim(z) == 0 else out


def ratio_A(z):
    """A(z) = K0(z)/K1(z) in (0, 1), monotone increasing to 1."""
    out = 1.0 / _k0_k1(z, ratio=True)
    return float(out[0]) if np.ndim(z) == 0 else out


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

    z is taken 16 points at a time so that the temporaries stay in cache: at
    64 panels one chunk is 16 x 2560 doubles (320 KB), against 5 MB at 256
    rows.  The rows do not depend on the chunk size.
    """
    # truncation point: z (cosh T - 1) = 120 makes the tail utterly negligible
    # relative to K_nu(z) ~ exp(-z), even with the cosh(order t) growth.
    T = np.arccosh(1.0 + 120.0 / z)
    u, w = _gauss_panels(n_panels, 40)
    out = np.empty((len(orders), z.size))
    for lo in range(0, z.size, 16):
        hi = min(lo + 16, z.size)
        t = T[lo:hi, None] * u[None, :]
        with np.errstate(under="ignore", over="ignore"):
            cosh_t = np.cosh(t)
            f0 = np.exp(-z[lo:hi, None] * cosh_t)
            for row, order in enumerate(orders):
                f = f0 * (cosh_t if order == 1 else np.cosh(order * t)) if order else f0
                out[row, lo:hi] = T[lo:hi] * (f @ w)
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
    orders = _check_orders(order)
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
    return _shape_rows(out, np.ndim(order) == 0, np.ndim(z) == 0)


# ---------------------------------------------------------------------------
# inequality margins
# ---------------------------------------------------------------------------

def check_ratio_bounds(z_grid):
    """Margins of both strict bounds on K1/K0 over ``z_grid``.

    Returns (lower_margin, upper_margin) arrays; the bounds hold iff both
    are strictly positive everywhere.
    """
    z = np.asarray(_validate_z(z_grid), dtype=float)
    ratio = _k0_k1(z, ratio=True)
    lower = ratio - (np.sqrt(z * z + z + 1.0) + 1.0) / (z + 1.0)
    upper = 1.0 + 0.5 / z - ratio
    return lower, upper


def check_small_z_bounds(z_grid):
    """Margins of the small-argument lower bounds on (0, 1).

    K0(z) >= -log z  and  z K1(z) >= 1 - z^2 (1 + |log z|).
    Returns (margin_k0, margin_k1) arrays; both must be nonnegative.
    """
    z = np.asarray(_validate_z(z_grid), dtype=float)
    if np.any(z >= 1.0):
        raise ValueError("small-z bounds are stated on (0, 1)")
    k0, k1 = _k0_k1(z)
    m0 = k0 + np.log(z)
    m1 = z * k1 - (1.0 - z * z * (1.0 + np.abs(np.log(z))))
    return m0, m1
