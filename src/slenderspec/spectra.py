"""Closed-form spectra of the slender-fiber Dirichlet-to-force maps.

Every eigenvalue family lives on the period-2 torus with Fourier basis
e^{i pi k z} and depends on the wavenumber only through z = pi * eps * |k|:

setting   direction     exact (pde)                 local-expansion (sbt)
-------   ----------    ------------------------    ----------------------------
laplace   longitudinal  2 pi B(z)                   2 pi * -1/(log(z/2)+g)
stokes    tangential    4 pi Bt(z)                  4 pi * -1/(1+2 log(z/2)+2g)
stokes    normal        2 pi Bn(z)                  2 pi *  4/(1-2 log(z/2)-2g)

with g the Euler-Mascheroni constant, B = z K1/K0 and Bt, Bn rational
combinations of K0, K1, K2.  The delta-regularized families replace the
logarithm by log(delta) + K0(delta z) combinations and stay positive and
bounded for delta above the setting's threshold (1 for Laplace, sqrt(e)
for Stokes).

The module also carries the scalar machinery behind the eigenvalue
difference bounds (the ODEs each B-family satisfies, the h(z) forcing of
the normal ODE and its 9z/8 bound, the Gronwall constants) and the
Legendre / harmonic-sum spectrum of the line and periodic singular
integral operators.

A scalar k in ``eigenvalues`` (``eigenvalue`` passes a Python int) or z in ``b_function``
runs on Python floats to a float result, bit for bit with the one-element array call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bessel import (EULER_GAMMA, Z_MIN, Z_MIN_K2, _as_float, _gauss_panels, _refine, _shape_rows,
                     bessel_k, ratio_A, ratio_B)
from .tables import _DIRECTIONS, _SETTINGS


def _setting(name):
    """The ``_SETTINGS`` entry of setting ``name``; ValueError if there is none."""
    if name not in _SETTINGS:
        raise ValueError(f"unknown setting {name!r}")
    return _SETTINGS[name]

#: poles of the three sbt B-functions, in z = pi eps |k|: c0 + m L = 0
SBT_SINGULARITY = {d: 2.0 * math.exp(e.log_family[1] / e.log_family[2] - EULER_GAMMA)
                   for d, e in _DIRECTIONS.items()}


class PoleError(ArithmeticError):
    """Evaluation at (or past) an sbt singularity without opting in."""


class WindowError(ValueError):
    """Wavenumber outside the validity window of a difference bound."""


def _check_eps(eps):
    if not (0.0 < eps < 0.5):
        raise ValueError("fiber radius must lie in (0, 1/2)")


def _int_k(k, degree=False):
    """k as a Python int, a nonzero wavenumber or with ``degree`` a degree >= 0; a float is not."""
    if not isinstance(k, (int, np.integer)) or ((k < 0) if degree else (k == 0)):
        what = "a degree must be an integer >= 0" if degree else "k must be a nonzero integer"
        raise ValueError(f"{what}, not {k!r}")
    return int(k)


#: largest K_max a field or state may hold: each component stores 2 K_max + 1
#: complex coefficients, about 34 MB per component at 2**20
K_MAX_LIMIT = 2**20


def _count(n, name, floor, cap):
    """n as a Python int in [floor, cap], the one reader of a count.  It refuses a float (even
    16.0) first, then a count past the cap (before it sizes anything), then one under the floor."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {n!r}")
    if n > cap:
        raise ValueError(f"{name} = {n} exceeds {'K_MAX_LIMIT = ' * (cap == K_MAX_LIMIT)}{cap}")
    if n < floor:
        raise ValueError(f"{name} must be >= {floor}")
    return int(n)


def _all(cond):  # a bool as it is, an array reduced
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _z(eps, k, scalar=True):
    """z = pi eps k for k = |k| (a float if ``scalar``); a ValueError past the double range."""
    try:
        return math.pi * eps * (float(k) if scalar else k.astype(float))
    except OverflowError:  # an int that no float holds
        raise ValueError("z = pi eps |k| cannot be formed: |k| is past the double range") from None


def _wavenumber(z, eps, finite=True):
    """|k| = z/(pi eps), inverse of ``_z``; inf past the double range (ValueError if ``finite``)."""
    _check_eps(eps)
    k = z / (math.pi * float(eps))  # Python floats: inf past the range, not a warning
    if finite and k == math.inf:
        raise ValueError(f"|k| = {z:g} / (pi eps) is past the double range at eps = {eps:.4g}")
    return k


@dataclass(frozen=True)
class Mode:
    """A single periodic wavenumber paired with a fiber radius."""

    k: int
    eps: float

    def __post_init__(self):
        _int_k(self.k)  # k = 0 is the 2D fundamental-solution mode
        _check_eps(self.eps)

    @property
    def z(self):
        return _z(self.eps, abs(self.k))


@dataclass(frozen=True)
class EigenFamily:
    """Selector for one eigenvalue formula.

    setting:   'laplace' or 'stokes'
    direction: 'longitudinal' (laplace only), 'tangential', 'normal'
    method:    'pde', 'sbt', 'sbt_truncated', 'delta_reg'
    cutoff:    truncation wavenumber for sbt_truncated (None = standard default)
    delta:     regularization parameter for delta_reg
    """

    setting: str
    direction: str
    method: str
    cutoff: int | None = None
    delta: float | None = None

    def __post_init__(self):
        threshold = _setting(self.setting).threshold
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if _DIRECTIONS[self.direction].setting != self.setting:
            raise ValueError("longitudinal <=> laplace")
        if self.method not in _B_FAMILY:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "delta_reg":
            # the chained test also turns away nan and +/-inf
            if self.delta is None or not threshold < self.delta < math.inf:
                raise ValueError(f"delta_reg in the {self.setting} setting needs "
                                 f"delta > {threshold:.4f}")
        elif self.delta is not None:
            raise ValueError("delta only applies to delta_reg")
        if self.cutoff is not None:
            _count(self.cutoff, "cutoff", 0, math.inf)

    def default_cutoff(self, eps):
        """Standard truncation default, the sbt difference window (N or M in the paper)."""
        return int(_difference_window(self.direction, "sbt", eps))


# ---------------------------------------------------------------------------
# B-functions and their ODEs
# ---------------------------------------------------------------------------

#: the B-family behind each (method, direction) eigenvalue formula
_B_FAMILY = {
    "pde": {"longitudinal": "B", "tangential": "B_t", "normal": "B_n"},
    "sbt": {"longitudinal": "B_SB", "tangential": "B_SB_t", "normal": "B_SB_n"},
    "delta_reg": {"longitudinal": "B_delta", "tangential": "B_delta_t",
                  "normal": "B_delta_n"},
}
_B_FAMILY["sbt_truncated"] = _B_FAMILY["sbt"]

#: every B-family, each named once
ODE_FAMILIES = tuple(f for method in ("pde", "sbt", "delta_reg")
                     for f in _B_FAMILY[method].values())

#: each sbt and delta family: name -> (method, direction, (num, c0, m))
_LOG_FAMILIES = {f: (method, d, _DIRECTIONS[d].log_family) for method in ("sbt", "delta_reg")
                 for d, f in _B_FAMILY[method].items()}


def _k0_delta(z, delta, fams):
    """K0(delta z), 0 where no family in ``fams`` can see it (see ``b_function``)."""
    x = delta * z
    limit = min(math.ulp(c0 + m * math.log(delta)) / (4.0 * m)
                for _, _, (_, c0, m) in map(_LOG_FAMILIES.get, fams))
    with np.errstate(under="ignore"):
        # pi/2 is exact, so this is sqrt(pi/(2x)) bit for bit, and finite for any x
        live = np.sqrt(0.5 * np.pi / x) * np.exp(-x) >= limit
    if isinstance(x, float):  # numpy's: a denominator c + m K0 = 0 gives inf, not an error
        return np.float64(bessel_k(0, x) if live else 0.0)
    k0d = np.zeros_like(x)
    k0d[live] = bessel_k(0, x[live])
    return k0d


def _delta(fam, delta, z):
    """delta as a float (None reads as nan), with delta * z > 0 and finite at the ends of z."""
    if not 0.0 < (delta := _as_float(delta, math.inf)) * float(np.min(z, initial=math.inf)):
        raise ValueError(f"{fam} requires delta > 0, and delta * z > 0 for K0")
    if not math.isfinite(delta * float(np.max(z, initial=0.0))):
        raise ValueError(f"delta * z = {delta:g} * {np.max(z):g} overflows a double")
    return delta


def b_function(fam, z, delta=None, allow_past_singularity=False):
    """Evaluate one of the scalar eigenvalue profiles at z > 0.

    sbt families blow up at their singularity (see ``SBT_SINGULARITY``);
    evaluation there raises :class:`PoleError` unless
    ``allow_past_singularity`` is set (needed to plot the blow-up).

    A tuple of families, e.g. ``("B_t", "B_n")``, shares one kernel pass
    (one ``ratio_A`` call for B_t/B_n, one ``bessel_k(0, delta z)`` call
    for the delta families) and returns one row per family, shaped as in
    ``bessel_k``; each row is bitwise equal to the single-family call.

    A delta family adds m K0(x), x = delta z, to c = c0 + m log(delta).
    The kernel's K0 is P/s with P = sqrt(pi/(2x)) e^{-x} and s >= 1, so the
    computed K0 <= P.  Where m P < ulp(c)/4, c + m K0 is within a quarter
    ulp of c (the spacing below a power of two is half an ulp) and rounds
    to c, as c + m*0 does; K0 is evaluated only elsewhere, and no bit moves.
    As c <= 1 + 2*709.8, only x > 28 is skipped, far past SERIES_CUTOFF.
    """
    fams = (fam,) if isinstance(fam, str) else tuple(fam)
    scalar = isinstance(z, (float, int)) or np.ndim(z) == 0  # runs on floats to the result
    z = float(_as_float(z, math.inf)) if scalar else np.atleast_1d(_as_float(z, math.inf))
    if not _all((Z_MIN <= z) & (z < math.inf)):
        raise ValueError(f"b_function requires finite z >= {Z_MIN:.4g}; K1 ~ 1/z overflows below")
    if "B_n" in fams and not _all(z <= 2.0**511):  # its z * z overflows from z ~ 1.34e154
        raise ValueError("B_n requires z <= 2**511 ~ 6.704e+153; z * z overflows past it")
    needs_delta = [f for f in fams if f in _B_FAMILY["delta_reg"].values()]
    delta = _delta(min(needs_delta), delta, z) if needs_delta else delta

    # the kernels the families share, one pass each
    a = ratio_A(z) if {"B_t", "B_n"}.intersection(fams) else None
    k0d = _k0_delta(z, delta, needs_delta) if needs_delta else None
    rows = []
    for f in fams:
        if f == "B":
            out = ratio_B(z)
        elif f == "B_t":
            # K1^2-normalized form, finite even where K itself underflows
            out = z / (2.0 * a + z * (a * a - 1.0))
        elif f == "B_n":
            # K1^3-normalized form with C = K2/K1 = A + 2/z (exact recurrence)
            c = a + 2.0 / z
            num = 4.0 * z * c + z * z * (1.0 - a * c)
            den = 2.0 * a * c + z * (a + c - 2.0 * a * a * c)
            out = num / den
        elif f in _LOG_FAMILIES:
            method, direction, (num, c0, m) = _LOG_FAMILIES[f]
            if method == "delta_reg":
                out = num / ((c0 + m * math.log(delta)) + m * k0d)
            else:
                pole = SBT_SINGULARITY[direction]
                if not allow_past_singularity and not _all(z < pole):
                    raise PoleError(f"{f} has a pole at z = {pole:.6f}; pass allow_past_singularity")
                out = num / ((c0 - m * np.log(0.5 * z)) - m * EULER_GAMMA)
        else:
            raise ValueError(f"unknown B-family {f!r}")
        rows.append([out] if scalar else np.atleast_1d(np.asarray(out, dtype=float)))
    return _shape_rows(rows, isinstance(fam, str), scalar)


def ode_rhs(fam, z, b_value, delta=None):
    """Right-hand side of dB/dz for the named family at (z, B); ValueError past the double range."""
    z, b = (np.asarray(_as_float(x, math.inf)) for x in (z, b_value))
    if not (np.all((Z_MIN <= z) & (z < math.inf)) and np.all(np.isfinite(b))):
        raise ValueError(f"ode_rhs requires finite z >= {Z_MIN:.4g} and a finite B")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected below
        if fam == "B":
            out = (b * b - z * z) / z
        elif fam == "B_t":
            out = 2.0 * b * b / z - 2.0 * ratio_A(z) * b
        elif fam == "B_n":
            out = 0.5 * b * b / z - h_function(z)
        elif fam in _LOG_FAMILIES:
            # B = num / (c0 + m L) gives B' = -(m/num) B^2 L'
            method, _, (num, _, m) = _LOG_FAMILIES[fam]
            if method == "sbt":
                out = m / num * b * b / z
            else:
                delta = _delta(fam, delta, z)
                out = m / num * (delta * bessel_k(1, delta * z)) * b * b
        else:
            raise ValueError(f"unknown B-family {fam!r}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"dB/dz of {fam} is past the double range at this (z, B)")
    return _shape_rows([np.atleast_1d(out)], True, np.ndim(out) == 0)


def h_function(z):
    """Forcing term of the normal-direction ODE; satisfies |h(z)| < 9z/8.  It is z/8 times
    N3/D3, both in z and A = K0/K1 in (0, 1), so no power of K overflows; z >= 2**-511."""
    zf, n3, d3 = _n3_d3(z)
    return _shape_rows([0.125 * zf * (n3 / d3)], True, np.ndim(z) == 0)


def _n3_d3(z):
    """z as a float array, and N3 and D3 of h = z N3 / (8 D3) as polynomials in z and A(z)."""
    if not np.all((z := np.atleast_1d(_as_float(z))) >= Z_MIN_K2):
        raise ValueError(f"h needs z >= 2**-511 ~ {Z_MIN_K2:.4g}, below which z * z is subnormal")
    a = ratio_A(z)
    z2 = z * z
    n3 = (
        4.0 * z2 * z2 * a**6
        - 16.0 * z2 * z * a**5
        - z2 * (120.0 + 11.0 * z2) * a**4
        + 4.0 * z * (-40.0 + 3.0 * z2) * a**3
        + 2.0 * (-16.0 + 66.0 * z2 + 5.0 * z2 * z2) * a**2
        + 4.0 * z * (32.0 + z2) * a
        - 3.0 * z2 * (8.0 + z2)
    )
    inner = z * z * a**3 + z * a * a - (2.0 + z * z) * a - z
    return z, n3, inner * inner


def appendix_c_margins(z):
    """(9 D3 - N3, 9 D3 + N3); strict positivity of both is |h| < 9z/8."""
    _, n3, d3 = _n3_d3(z)
    return 9.0 * d3 - n3, 9.0 * d3 + n3


_G2_COEFFS = (
    -3105, -32886, -162858, -483254, -891642, -966847, -508816, -12905,
    109108, 93644, 134944, 122960, 51264, 8000,
)
_G3_COEFFS = (
    -4704, -49399, -218100, -514979, -636860, -132064, 944672, 1784464,
    1643712, 834432, 211456, 18432,
)


def g2_polynomial(z):
    """Lower-bound envelope of 9 D3 - N3 for z >= 3/2; g2(3/2) = 646907/163840.
    A Fraction for Fraction or int z, else a float."""
    z = Fraction(z) if isinstance(z, (Fraction, int)) else float(z)
    poly = sum(c * z**i for i, c in enumerate(_G2_COEFFS))
    return 8 * poly / (5 * (1 + 2 * z) ** 6 * (3 + 2 * z) ** 4)


def g3_polynomial(z):
    """Lower-bound envelope of 9 D3 + N3 for z >= 1; g3(1) = 3881062/455625.
    A Fraction for Fraction or int z, else a float."""
    z = Fraction(z) if isinstance(z, (Fraction, int)) else float(z)
    poly = sum(c * z**i for i, c in enumerate(_G3_COEFFS))
    return z * poly / ((1 + 2 * z) ** 6 * (3 + 2 * z) ** 4)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def eigenvalues(family, eps, k):
    """Vectorized eigenvalue of ``family`` at radius ``eps`` and wavenumbers ``k``.

    Every formula depends on k only through |k|; k may be any nonzero
    integer array.  sbt values past the blow-up are returned as-is by
    default (callers interpret the sign change); sbt_truncated zeroes
    modes beyond the cutoff.

    A tuple of families sharing setting, method and delta (e.g. the Stokes
    normal and tangential ones) shares one kernel pass and returns one row
    per family, shaped as in ``bessel_k``; each row is bitwise equal to the
    single-family call.  A scalar k runs on Python floats and returns a float.
    """
    families = (family,) if isinstance(family, EigenFamily) else tuple(family)
    first = families[0]
    if any((f.setting, f.method, f.delta) != (first.setting, first.method, first.delta)
           for f in families):
        raise ValueError("families evaluated together must share setting, method and delta")
    scalar = isinstance(k, int) or np.ndim(k) == 0  # runs on floats to the result
    k = abs(k) if scalar else np.abs(np.atleast_1d(k))  # every formula reads |k| only
    if not scalar and k.dtype.kind == "i":  # np.abs leaves the most negative int negative
        k = k.view(f"u{k.dtype.itemsize}")
    if not _all(k != 0):
        raise ValueError("k = 0 is excluded")
    _check_eps(eps)
    z = _z(eps, k, scalar)
    names = tuple(_B_FAMILY[f.method][f.direction] for f in families)
    if first.method in ("sbt", "sbt_truncated"):
        for f, name in zip(families, names):
            pole = SBT_SINGULARITY[f.direction]
            if not _all(z != pole):
                raise PoleError(f"{name} evaluated exactly at its pole z = {pole:.6f}")
    b_rows = b_function(names, z, delta=first.delta, allow_past_singularity=True)
    rows = []
    for f, name, b in zip(families, names, b_rows):
        prefactor = _DIRECTIONS[f.direction].prefactor
        # prefactor < 16: only |b| >= 2**1020 can take lambda past the double range
        if not _all(abs(b) < 2.0**1020) and not math.isfinite(prefactor * float(np.max(abs(b)))):
            raise OverflowError(f"eigenvalue {prefactor:.4g} * {name}(z) overflows a double; "
                                f"z = pi eps |k| reaches {np.max(z):.4g}")
        out = prefactor * b
        if f.method == "sbt_truncated":
            cutoff = f.cutoff if f.cutoff is not None else f.default_cutoff(eps)
            out = np.where(k <= cutoff, out, 0.0)
        rows.append([out] if scalar else out)
    return _shape_rows(rows, isinstance(family, EigenFamily), scalar)


def pde_family(direction):
    """The exact (pde) family of ``direction``, in the setting it belongs to."""
    return EigenFamily(_DIRECTIONS[direction].setting, direction, "pde")


def eigenvalue(family, mode):
    """Scalar convenience wrapper around :func:`eigenvalues`."""
    return eigenvalues(family, mode.eps, mode.k)


def sign_change_wavenumber(family, eps):
    """|k| where the reciprocal sbt eigenvalue 1/lambda changes sign.

    The underlying z-thresholds are 2 e^{-g} (Laplace longitudinal),
    2 e^{-g-1/2} (tangential) and 2 e^{-g+1/2} (normal).  Only sbt
    families blow up; anything else is a usage error.
    """
    if family.method not in ("sbt", "sbt_truncated"):
        raise ValueError("sign changes only occur for sbt families")
    return _wavenumber(SBT_SINGULARITY[family.direction], eps)


# ---------------------------------------------------------------------------
# Gronwall constants and eigenvalue-difference bounds
# ---------------------------------------------------------------------------

def gronwall_constants():
    """The six ODE-comparison constants, reproduced from b_function at the windows.

    c_B < 2, c_t < 1, c_n < 4 control the sbt difference bounds;
    c_l2 < 2, c_t2 < 1, c_n2 < 4 control the delta-regularized ones.
    """
    out = {}
    for method2 in ("sbt", "delta_reg"):
        for d, entry in _DIRECTIONS.items():
            w, name, _ = entry.bounds[method2]
            first = b_function(_B_FAMILY["sbt"][d], w) if method2 == "sbt" else entry.delta_term(w)
            out[name] = first + b_function(_B_FAMILY["pde"][d], w)
    return out


#: the same constants, computed once per process; callers only read this dict
_gronwall_constants = functools.cache(gronwall_constants)


@dataclass(frozen=True)
class DifferenceMargin:
    observed_diff: float | np.ndarray
    paper_bound: float | np.ndarray

    @property
    def margin(self):
        return self.paper_bound - self.observed_diff


def _difference_window(direction, method2, eps):
    """Largest |k| the method2 ('sbt' or 'delta_reg') difference bound admits."""
    return _wavenumber(_DIRECTIONS[direction].bounds[method2][0], eps)


def eigen_difference_margin(setting, direction, eps, k, method2, delta=None):
    """Observed |lambda_pde - lambda_approx| against its proof-constant bound.

    method2 is 'sbt' or 'delta_reg'.  k is a nonzero integer or an integer
    array; an array gives one entry per k, each equal bit for bit to the
    scalar call.  Raises :class:`WindowError` if any |k| lies outside the
    bound's validity window.
    """
    if method2 not in ("sbt", "delta_reg"):
        raise ValueError("method2 must be 'sbt' or 'delta_reg'")
    kmax = _difference_window(direction, method2, eps)
    if np.any(np.abs(k) > kmax):
        raise WindowError(f"|k| = {np.max(np.abs(k))} exceeds the validity window |k| <= {kmax:.2f}")
    observed = abs(eigenvalues(EigenFamily(setting, direction, "pde"), eps, k)
                   - eigenvalues(EigenFamily(setting, direction, method2, delta=delta), eps, k))

    _, name, proof_constant = _DIRECTIONS[direction].bounds[method2]
    const = proof_constant(_gronwall_constants()[name])
    ek2 = np.square(eps * k)
    if method2 == "sbt":
        bound = const * ek2
    else:
        bound = const * (delta * delta * (1.0 + math.log(delta))) * ek2
    pair = (observed, bound)
    return DifferenceMargin(*(map(float, pair) if np.ndim(k) == 0 else pair))


# ---------------------------------------------------------------------------
# line and periodic singular integral operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class STransformResult:
    points: np.ndarray
    values: np.ndarray


def s_transform_apply(phi, resolution=512):
    """Apply S[phi](s) = int_-1^1 (phi(s') - phi(s))/|s - s'| ds' numerically.

    ``phi`` is a callable on arrays of s.  Evaluation nodes are the interior
    uniform grid points; the quadrature uses the midpoint rule on the
    half-step-offset midpoints, so the bounded (singularity-subtracted)
    integrand is never sampled at s'=s.  Legendre polynomials are
    eigenfunctions: S[P_k] = -mu_k P_k with mu_k = 2 sum_{j<=k} 1/j.
    """
    # three resolution x resolution temporaries: 0.4 GB at the cap
    resolution = _count(resolution, "resolution", 8, 2**12)
    h = 2.0 / resolution
    s_eval = -1.0 + h * np.arange(1, resolution)
    mids = -1.0 + h * (np.arange(resolution) + 0.5)
    phi_mid = np.asarray(phi(mids), dtype=float)
    phi_eval = np.asarray(phi(s_eval), dtype=float)
    diff = phi_mid[None, :] - phi_eval[:, None]
    dist = np.abs(s_eval[:, None] - mids[None, :])
    values = h * np.sum(diff / dist, axis=1)
    return STransformResult(s_eval, values)


#: past this n the harmonic sums below take their asymptotic series, within 2 ulps of the
#: sum of the same terms by ``math.fsum`` (tests); every caller's |k| (at most 40) stays on
#: the loop, whose bits the pins hold
HARMONIC_SERIES_N = 2**10


def _log_series(n, c0, c1, c2, c4):
    """2 log n + c0 + c1/n + c2/n^2 + c4/n^4; past n = 2**10 the next term is below 1e-20."""
    inv = 1 / n  # int division: 0.0 past the double range, not an OverflowError
    x = inv * inv
    return 2.0 * math.log(n) + c0 + c1 * inv + x * (c2 + c4 * x)


def legendre_mu(k):
    """Eigenvalue magnitude mu_k = 2 H_k of the line operator; mu_0 = 0."""
    if (n := _int_k(k, degree=True)) > HARMONIC_SERIES_N:
        # H_n = log n + gamma + 1/(2n) - sum_j B_2j / (2j n^2j)
        return _log_series(n, 2.0 * EULER_GAMMA, 1.0, -1.0 / 6.0, 1.0 / 60.0)
    return 2.0 * sum(1.0 / j for j in range(1, n + 1))


def periodic_kernel_eigenvalue(k):
    """mu_k^per = 4 sum_{j=1}^{|k|} 1/(2j-1) for the periodic kernel; |k| >= 1."""
    if (n := abs(_int_k(k))) > HARMONIC_SERIES_N:
        # 4 (H_2n - H_n / 2), from the series of H
        return _log_series(n, 4.0 * math.log(2.0) + 2.0 * EULER_GAMMA, 0.0, 1.0 / 12.0,
                           -7.0 / 480.0)
    return 4.0 * sum(1.0 / (2 * j - 1) for j in range(1, n + 1))


def sbt_symbol_log_form(eps, k):
    """Asymptotic log form of the slender-body symbol: -2(log(pi eps |k|/2) + gamma)."""
    _check_eps(eps)
    return -2.0 * (math.log(0.5 * _z(eps, abs(_int_k(k)))) + EULER_GAMMA)


def sbt_symbol_harmonic_form(eps, k):
    """Harmonic-sum form 2 log(8/(pi eps)) - mu_k^per of the same symbol.

    Since mu_k^per = 4(H_{2k} - H_k/2) -> 2 log|k| + 2 gamma + 4 log 2 with an
    O(1/k^2) defect, the two forms coincide up to that defect (0.073 at k=1,
    shrinking quadratically), which is why the log form can stand in for the
    exact periodic-kernel spectrum in every estimate.
    """
    return 2.0 * math.log(_wavenumber(8.0, eps)) - periodic_kernel_eigenvalue(k)


def periodic_kernel_apply_mode(k, resolution=4096):
    """Quadrature of (pi/2) int (f(s')-f(s))/|sin(pi (s-s')/2)| ds' on f = e^{i pi k s}.

    Returns the ratio (applied value)/(f value) at s = 0, which should be
    close to -mu_k^per.  Midpoint rule on the torus; the evaluation point
    sits on the node grid, offset half a step from the quadrature grid: ``resolution``
    is even, and at least 2|k| + 2, below which the grid aliases e^{i pi k s}."""
    if (resolution := _count(resolution, "resolution", 2 * abs(_int_k(k)) + 2, K_MAX_LIMIT)) % 2:
        raise ValueError(f"resolution = {resolution} is odd: a midpoint would sit at s = 0")
    h = 2.0 / resolution
    mids = -1.0 + h * (np.arange(resolution) + 0.5)
    f_mid = np.exp(1j * math.pi * k * mids)
    # evaluation at s = 0, f(0) = 1
    kernel = np.abs(np.sin(math.pi * (0.0 - mids) / 2.0))
    return complex(0.5 * math.pi * h * np.sum((f_mid - 1.0) / kernel))


def periodization_identity_check(tol=1e-10):
    """Quadrature of int_-1^1 (pi/|2 sin(pi z/2)| - 1/|z|) dz vs -2 log(pi/4).

    The integrand has a removable singularity at z = 0, handled by a series
    branch for small |z|; ``bessel._refine`` doubles the Gauss-Legendre panels
    (16 to 256) until two levels agree to ``tol``, else BesselAccuracyError.
    Returns (value, closed_form, abs_error).
    """

    def integral(n_panels, _):
        z, w = _gauss_panels(n_panels, 20)
        # f(z) = (u/sin u - 1)/z with u = pi z / 2; below z = 0.02 the first
        # dropped series term, 127 u^8/604800, is under 2e-16
        u = 0.5 * math.pi * z
        u2 = u * u
        series = u2 / 6.0 + 7.0 * u2 * u2 / 360.0 + 31.0 * u2 * u2 * u2 / 15120.0
        return np.atleast_1d((np.where(z < 0.02, series, u / np.sin(u) - 1.0) / z) @ w)

    val, = _refine(integral, (1,), (16, 32, 64, 128, 256),
                   lambda fine, coarse: abs(fine - coarse) <= tol,
                   lambda *_: f"periodization quadrature: no two panel levels up to 256 "
                              f"agree to tol = {tol:.3g}")
    total = 2.0 * float(val)
    closed = -2.0 * math.log(math.pi / 4.0)
    return total, closed, abs(total - closed)
