"""Exterior radial mode solutions and the traction route to the eigenvalues.

For each wavenumber the exterior field around the straight fiber of radius
eps separates into radial profiles built from K0, K1, K2.  Three boundary
data sets matter:

laplace_scalar  U(eps) = 1                      U(r) = K0(pi r|k|)/K0(pi eps|k|)
tangential      U_z(eps) = 1, U_r(eps) = 0      Stokes, theta-independent
normal          U_r(eps) = 1, U_th(eps) = 1,    Stokes, cos/sin theta structure
                U_z(eps) = 0                    (via U+ = U_r + U_th, U- = U_r - U_th)

The traction of the solution, integrated over the cross-section, is an
independent numerical route to the same eigenvalues that spectra.py writes
down in closed form; matching the two to 1e-6 is the module's central
oracle property.  Derivatives at r = eps use one-sided 4-point stencils
(the fluid only exists for r >= eps).

The traction stencil runs radius by radius on Python numbers, bit for bit with the arrays by
two rules: ``_deriv_at_eps`` divides a complex by a real as numpy does, by the reciprocal; a
field stays real where its constants are (laplace U; normal U_r, U_theta, U_plus, U_minus,
p), since a later division rounds differently on complex data.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bessel import Z_MAX, bessel_k, bessel_k_detail
from .spectra import Mode, eigenvalue, pde_family


#: direction -> its closed-form family, the K orders it reads (only ``normal``
#: needs K2, and so Z_MIN_K2), its boundary targets at r = eps and the columns
#: ``slenderspec profile`` prints
_Profile = namedtuple("_Profile", "family orders targets columns")
_PROFILES = {
    "laplace_scalar": _Profile(pde_family("longitudinal"), (0, 1), {"U": 1.0}, ("U", "p")),
    "tangential": _Profile(pde_family("tangential"), (0, 1), {"U_r": 0.0, "U_z": 1.0},
                           ("U_r", "U_z", "p")),
    "normal": _Profile(pde_family("normal"), (0, 1, 2),
                       {"U_minus": 0.0, "U_plus": 2.0, "U_z": 0.0}, ("U_r", "U_theta", "U_z", "p")),
}

DIRECTIONS = tuple(_PROFILES)


class UnderflowError(ArithmeticError):
    """z > UNDERFLOW_Z, where the K values at the boundary underflow."""


class AccuracyError(ArithmeticError):
    """Finite-difference step fell below the resolvable precision floor."""


@dataclass(frozen=True)
class RadialModeSolution:
    """Profile constants of one exterior mode (subset used per direction), times 2**scale.

    ``scale`` puts K1 * 2**-scale at z = pi eps |k| in [0.5, 1).  The constants are
    homogeneous of degree -1 in K: formed from K * 2**-scale, they stay finite and their
    K products normal up to UNDERFLOW_Z.  ``evaluate_profile`` multiplies them by
    K(pi |k| r) * 2**-scale, exact scaling that rounds as the unscaled product would.
    """

    mode: Mode
    direction: str
    scale: int
    c_p: complex
    c0: complex | None = None
    c1: complex | None = None
    c2: complex | None = None


def solve_mode(direction, mode):
    """Compute the profile constants for one (direction, mode) pair."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    values, underflowed = bessel_k_detail(_PROFILES[direction].orders, mode.z)
    if underflowed:
        raise UnderflowError(f"K underflow at z = pi*eps*|k| = {mode.z:.3f}")
    scale = math.frexp(values[1])[1]
    k0, k1, *rest = (math.ldexp(v, -scale) for v in values.tolist())
    eps, k, z = mode.eps, mode.k, mode.z
    sgn = 1.0 if k > 0 else -1.0

    if direction == "laplace_scalar":
        # c0 stores the normalization 1/K0(pi eps |k|); no pressure
        consts = (0.0 + 0.0j, 1.0 / k0)
    elif direction == "tangential":
        c_p = -1j * 2.0 * math.pi * k * k1 / (2.0 * k0 * k1 + z * (k0 * k0 - k1 * k1))
        consts = (c_p, 1.0 / k0 + 1j * c_p * eps * k1 * sgn / (2.0 * k0),
                  -c_p * eps * k0 / (2.0 * k1))
    else:
        k2 = rest[0]
        den = 2.0 * k0 * k1 * k2 + z * (k1 * k1 * (k0 + k2) - 2.0 * k0 * k0 * k2)
        c_p = 4.0 * math.pi * abs(k) * k1 * k2 / den
        consts = (c_p, 2.0 / k0 - c_p * eps * k1 / (2.0 * k0),
                  1j * c_p * eps * k0 * sgn / (2.0 * k1), -c_p * eps * k1 / (2.0 * k2))
    return RadialModeSolution(mode, direction, scale, *consts)


def _fields(sol, r, k0r, k1r, k2r=None):
    """The fields at radii r from K_nu(pi |k| r) * 2**-scale, on arrays or one radius's floats."""
    sgn = 1.0 if sol.mode.k > 0 else -1.0
    if sol.direction == "laplace_scalar":
        return {"U": sol.c0 * k0r, "p": 0j * k0r}  # complex zeros: K0 >= 0 is finite

    if sol.direction == "tangential":
        p = sol.c_p * k0r
        u_r = sol.c1 * k1r + 0.5 * sol.c_p * r * k0r
        u_z = sol.c0 * k0r - 0.5j * sol.c_p * r * k1r * sgn
        return {"U_r": u_r, "U_z": u_z, "p": p}

    p = sol.c_p * k1r
    u_z = sol.c1 * k1r - 0.5j * sol.c_p * r * k0r * sgn
    u_plus = sol.c0 * k0r + 0.5 * sol.c_p * r * k1r
    u_minus = sol.c2 * k2r + 0.5 * sol.c_p * r * k1r
    return {"U_r": 0.5 * (u_plus + u_minus), "U_theta": 0.5 * (u_plus - u_minus), "U_z": u_z,
            "U_plus": u_plus, "U_minus": u_minus, "p": p}


def _profile(sol, r):
    """The fields at radii r: arrays for an array r, lists built radius by radius for a list."""
    a, orders = math.pi * abs(sol.mode.k), _PROFILES[sol.direction].orders
    if isinstance(r, np.ndarray):
        return _fields(sol, r, *np.ldexp(bessel_k(orders, a * r), -sol.scale))
    kr = bessel_k(orders, [a * x for x in r]).T.tolist()
    points = [_fields(sol, x, *(math.ldexp(k, -sol.scale) for k in ks)) for x, ks in zip(r, kr)]
    return {key: [point[key] for point in points] for key in points[0]}


def evaluate_profile(sol, r):
    """Profile values at radii r >= eps.

    Returns a dict of arrays.  Keys: laplace_scalar -> U, p (p = 0);
    tangential -> U_r, U_z, p; normal -> U_r, U_theta, U_z, U_plus, U_minus, p.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("profile radii must be finite")
    if np.any(r < sol.mode.eps * (1.0 - 1e-12)):
        raise ValueError("profiles are defined for r >= eps only")
    # on Python floats, which overflow to inf without a warning, before numpy forms pi |k| r
    z = math.pi * abs(sol.mode.k) * float(np.max(r, initial=0.0))
    if z >= Z_MAX:
        raise ValueError(f"profiles need z = pi |k| r < 2**1023 ~ {Z_MAX:.4g}; "
                         f"the largest radius gives z = {z:.4g}")
    return _profile(sol, r)


def _fd_step(eps, rel):
    """The step eps * rel; a subnormal one loses bits and overflows the quotients."""
    h = eps * rel
    if h < sys.float_info.min:
        raise AccuracyError(f"finite-difference step eps*{rel:g} is subnormal; "
                            f"eps must be >= {sys.float_info.min / rel:.4g}")
    return h


def _deriv_at_eps(f, h):
    """One-sided 4-point first derivative at r = eps, O(h^3), from f(eps + h*[0, 1, 2, 3])."""
    total = -11.0 * f[0] + 18.0 * f[1] - 9.0 * f[2] + 2.0 * f[3]
    return total * (1.0 / (6.0 * h)) if isinstance(total, complex) else total / (6.0 * h)


def traction_eigenvalue_numeric(direction, mode):
    """Surface-traction recomputation of the pde eigenvalue.

    Differentiates the exterior profiles one-sidedly at r = eps and
    assembles the cross-section-integrated force; theta integration is
    analytic.  The result must be real to 1e-10 relative.
    """
    sol = solve_mode(direction, mode)
    eps = mode.eps
    h = _fd_step(eps, 1e-5)
    prof = _profile(sol, [eps + h * j for j in range(4)])

    if direction == "laplace_scalar":
        lam = -2.0 * math.pi * eps * _deriv_at_eps(prof["U"], h)
    elif direction == "tangential":
        dUz = _deriv_at_eps(prof["U_z"], h)
        # sigma_rz = dU_z/dr + dU_r/dz with U_z(eps) = 1 normalization
        lam = -2.0 * math.pi * eps * (dUz + 1j * math.pi * mode.k * prof["U_r"][0])
    else:
        dUr = _deriv_at_eps(prof["U_r"], h)
        dUth = _deriv_at_eps(prof["U_theta"], h)
        lam = -math.pi * eps * (2.0 * dUr + dUth - prof["p"][0])

    lam = complex(lam)
    if abs(lam.imag) > 1e-10 * max(abs(lam.real), 1.0):
        raise AccuracyError(f"traction eigenvalue not real: {lam}")
    return lam.real


def boundary_residuals(sol):
    """Max abs deviation of the boundary data from its target values."""
    prof = evaluate_profile(sol, np.array([sol.mode.eps]))
    return {key: abs(prof[key][0] - target)
            for key, target in _PROFILES[sol.direction].targets.items()}


def incompressibility_residual(sol, r):
    """Relative divergence residual at interior radii r (centered differences)."""
    if sol.direction == "laplace_scalar":
        raise ValueError("incompressibility applies to the Stokes directions")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    eps = sol.mode.eps
    h = _fd_step(eps, 1e-6)
    k = sol.mode.k
    # centered stencil; nudge boundary points inward so r - h stays >= eps
    r = np.maximum(r, eps + h)
    up, dn, mid = (evaluate_profile(sol, rr) for rr in (r + h, r - h, r))
    dUr = (up["U_r"] - dn["U_r"]) / (2.0 * h)
    if sol.direction == "tangential":
        div = dUr + mid["U_r"] / r + 1j * math.pi * k * mid["U_z"]
    else:
        div = dUr + (mid["U_r"] - mid["U_theta"]) / r + 1j * math.pi * k * mid["U_z"]
    scale = np.maximum.reduce([np.abs(dUr), np.abs(mid["U_r"] / r),
                               np.abs(math.pi * k * mid["U_z"]), np.full_like(r, 1e-300)])
    return np.abs(div) / scale


def residual_momentum(sol, r):
    """Relative residuals of the radial momentum/pressure equations at r > eps.

    Each profile satisfies a modified-Bessel-type operator
    L_m = d^2/dr^2 + (1/r) d/dr - m^2/r^2 - (pi k)^2 forced by the
    pressure gradient; pressure itself is harmonic (L_0 or L_1 annihilates
    it).  Residuals are measured against the magnitude of the largest term.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= sol.mode.eps):
        raise ValueError("residual_momentum needs strictly interior radii r > eps")
    # step resolves both the K-function oscillation scale 1/(pi|k|) and 1/r terms
    h = 1e-3 * np.minimum(r, 1.0 / (math.pi * abs(sol.mode.k)))
    h = np.minimum(h, 0.5 * (r - sol.mode.eps))
    a2 = (math.pi * sol.mode.k) ** 2
    k = sol.mode.k
    dn, mid, up = (evaluate_profile(sol, rr) for rr in (r - h, r, r + h))

    def d1(key):
        return (up[key] - dn[key]) / (2.0 * h)

    # (m, forcing) of each profile's equation L_m f = forcing
    dp, p = d1("p"), mid["p"]
    if sol.direction == "laplace_scalar":
        equations = {"U": (0, 0.0)}
    elif sol.direction == "tangential":
        equations = {"p": (0, 0.0), "U_r": (1, dp), "U_z": (0, 1j * math.pi * k * p)}
    else:
        equations = {"p": (1, 0.0), "U_plus": (0, dp + p / r), "U_minus": (2, dp - p / r),
                     "U_z": (1, 1j * math.pi * k * p)}

    res = {}
    for key, (m, rhs) in equations.items():
        val, first = mid[key], d1(key)
        d2 = (up[key] - 2.0 * val + dn[key]) / (h * h)
        out = d2 + first / r - (m * m / (r * r) + a2) * val
        # scale from the pre-cancellation term sizes: for small pi|k|r the
        # Laplacian pieces cancel to O((pi k r)^2) of their own magnitude,
        # and a residual relative to that cancellation is the honest FD
        # figure of merit
        scale = np.abs(d2) + np.abs(first) / r + (m * m / (r * r) + a2) * np.abs(val)
        res[key] = np.abs(out - rhs) / np.maximum(scale + np.abs(rhs), 1e-300)
    return res


def traction_vs_closed_form(direction, mode):
    """(numeric traction eigenvalue, closed-form eigenvalue, relative gap)."""
    lam_num = traction_eigenvalue_numeric(direction, mode)
    lam_cf = eigenvalue(_PROFILES[direction].family, mode)
    return lam_num, lam_cf, abs(lam_num - lam_cf) / abs(lam_cf)
