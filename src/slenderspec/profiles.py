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
down in closed form; matching the two (to ~5e-13; the tests gate it at
1e-6) is the module's central oracle property.  Every derivative is exact, from
K0' = -K1, K1' = -K0 - K1/x and K2' = -K1 - 2 K2/x: at r = eps on the boundary K values
of ``solve_mode`` for the traction, on one kernel pass at any r >= eps for the residuals.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bessel import Z_MAX, _as_float, bessel_k, bessel_k_detail
from .spectra import Mode, eigenvalue, pde_family
from .tables import PROFILE_DIRECTIONS as DIRECTIONS


#: direction -> its closed-form family, the K orders it reads (only ``normal``
#: needs K2, and so Z_MIN_K2), its boundary targets at r = eps and the columns
#: ``slenderspec profile`` prints
_Profile = namedtuple("_Profile", "family orders targets columns")
_PROFILES = dict(zip(DIRECTIONS, (
    _Profile(pde_family("longitudinal"), (0, 1), {"U": 1.0}, ("U", "p")),
    _Profile(pde_family("tangential"), (0, 1), {"U_r": 0.0, "U_z": 1.0},
             ("U_r", "U_z", "p")),
    _Profile(pde_family("normal"), (0, 1, 2),
             {"U_minus": 0.0, "U_plus": 2.0, "U_z": 0.0}, ("U_r", "U_theta", "U_z", "p")),
)))


class UnderflowError(ArithmeticError):
    """z > UNDERFLOW_Z, where the K values at the boundary underflow."""


class AccuracyError(ArithmeticError):
    """A traction eigenvalue that is not real."""


@dataclass(frozen=True)
class RadialModeSolution:
    """Profile constants of one exterior mode (subset used per direction), times 2**scale.

    ``scale`` puts K1 * 2**-scale at z = pi eps |k| in [0.5, 1).  The constants are
    homogeneous of degree -1 in K: formed from K * 2**-scale, they stay finite and their
    K products normal up to UNDERFLOW_Z.  ``evaluate_profile`` multiplies them by
    K(pi |k| r) * 2**-scale, exact scaling that rounds as the unscaled product would.
    ``boundary_k`` holds those scaled K values at r = eps, one per order the direction reads.
    """

    mode: Mode
    direction: str
    scale: int
    boundary_k: tuple[float, ...]
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
    k0, k1, *rest = boundary_k = tuple(math.ldexp(v, -scale) for v in values.tolist())
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
    # at small z the scaled tangential c_p is about 2 / (eps (2 K0 - 1)): past the double
    # range only for a subnormal eps, where Python's complex arithmetic sets no flag
    if not all(map(cmath.isfinite, consts)):
        raise OverflowError(f"the {direction} profile constants overflow a double at "
                            f"eps = {eps:.4g}, k = {k}")
    return RadialModeSolution(mode, direction, scale, boundary_k, *consts)


def _fields(sol, r, k, rk=None):
    """The fields at radii r from the rows K_nu(pi |k| r) * 2**-scale; the terms multiplied
    by r read the rows ``rk`` (K0, K1) instead, the same ``k`` by default."""
    (k0r, k1r), (rk0, rk1) = k[:2], (k if rk is None else rk)[:2]
    sgn = 1.0 if sol.mode.k > 0 else -1.0
    if sol.direction == "laplace_scalar":
        return {"U": sol.c0 * k0r, "p": 0j * k0r}  # complex zeros: K0 >= 0 is finite

    if sol.direction == "tangential":
        p = sol.c_p * k0r
        u_r = sol.c1 * k1r + 0.5 * sol.c_p * r * rk0
        u_z = sol.c0 * k0r - 0.5j * sol.c_p * r * rk1 * sgn
        return {"U_r": u_r, "U_z": u_z, "p": p}

    p = sol.c_p * k1r
    u_z = sol.c1 * k1r - 0.5j * sol.c_p * r * rk0 * sgn
    u_plus = sol.c0 * k0r + 0.5 * sol.c_p * r * rk1
    u_minus = sol.c2 * k[2] + 0.5 * sol.c_p * r * rk1
    return {"U_r": 0.5 * (u_plus + u_minus), "U_theta": 0.5 * (u_plus - u_minus), "U_z": u_z,
            "U_plus": u_plus, "U_minus": u_minus, "p": p}


def _radial_k(sol, r):
    """Checked radii r, x = pi |k| r and the rows K_nu(x) * 2**-scale the direction reads."""
    r = np.asarray(_as_float(r))
    if not np.all(np.isfinite(r)):
        raise ValueError("profile radii must be finite")
    if np.any(r < sol.mode.eps * (1.0 - 1e-12)):
        raise ValueError("profiles are defined for r >= eps only")
    # on Python floats, which overflow to inf without a warning, before numpy forms pi |k| r
    a = math.pi * abs(sol.mode.k)
    z = a * float(np.max(r, initial=0.0))
    if z >= Z_MAX:
        raise ValueError(f"profiles need z = pi |k| r < 2**1023 ~ {Z_MAX:.4g}; "
                         f"the largest radius gives z = {z:.4g}")
    x = a * r
    return r, x, np.ldexp(bessel_k(_PROFILES[sol.direction].orders, x), -sol.scale)


def evaluate_profile(sol, r):
    """Profile values at radii r >= eps, a dict of arrays.  Keys: laplace_scalar -> U, p
    (p = 0); tangential -> U_r, U_z, p; normal -> U_r, U_theta, U_z, U_plus, U_minus, p."""
    r, _, k = _radial_k(sol, r)
    return _fields(sol, r, k)


def _derivative_fields(sol, r, order):
    """Radii r >= eps, x = pi |k| r, the fields D^j f, j = 0..order, D = r d/dr, and for order 2
    (D + 1) p.  Each field is A K(x) + r B K(x), D (r K) = r (D + 1) K, and no row cancels at
    small x: D K = -nu K - x K_(nu-1) (x K0' = -x K1), so (D + 1) K1 = -x K0 exactly."""
    r, x, k = _radial_k(sol, np.atleast_1d(_as_float(r)))
    nu = np.array(_PROFILES[sol.direction].orders)[:, None]
    xk = x * np.vstack((k[1], k[:-1]))
    rk = (1 - nu) * k - xk
    out = [_fields(sol, r, k), _fields(sol, r, -nu * k - xk, rk)]
    if order == 2:
        # D^2 K = (x^2 + nu^2) K, x^2 K as x (x K): past r ~ 1e154 x^2 overflows, where every
        # K is 0.0; (D + 1)^2 K = x^2 K - 2 x K_(nu-1) + (1 - nu)^2 K
        x2k = x * (x * k)
        out += [_fields(sol, r, x2k + nu * nu * k, x2k - 2.0 * xk + (1 - nu) ** 2 * k),
                _fields(sol, r, rk)["p"]]
    return r, x, out


def traction_eigenvalue_numeric(direction, mode):
    """Surface-traction recomputation of the pde eigenvalue.

    Differentiates the exterior profiles exactly at r = eps, on the boundary K
    values of ``solve_mode``, and assembles the cross-section-integrated force;
    theta integration is analytic.  The result must be real to 1e-10 relative.
    """
    sol = solve_mode(direction, mode)
    z, (k0, k1, *rest) = mode.z, sol.boundary_k
    # each eps * d/dr at r = eps, written over z = pi |k| eps: c_p * pi |k| alone leaves the
    # double range at large |k|, where c_p * eps stays O(1)
    if direction == "laplace_scalar":
        lam = 2.0 * math.pi * z * sol.c0 * k1  # -2 pi eps dU/dr
    elif direction == "tangential":
        # -2 pi eps (dU_z/dr + i pi k U_r): sigma_rz with U_z(eps) = 1 normalization
        sgn = 1.0 if mode.k > 0 else -1.0
        lam = 2.0 * math.pi * z * (sol.c0 * k1 - 1j * sgn * (sol.c1 * k1 + sol.c_p * mode.eps * k0))
    else:
        # -pi eps (2 dU_r/dr + dU_theta/dr - p), with U_r, U_theta = (U_plus +- U_minus) / 2
        lam = math.pi * (1.5 * z * sol.c0 * k1 + sol.c2 * (0.5 * z * k1 + rest[0])
                         + sol.c_p * mode.eps * (z * k0 + k1))

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
    """Relative residual of r div U = D U_r + U_r (- U_theta, normal) + i pi k r U_z at radii
    r >= eps, D = r d/dr, against its largest term; the derivatives are exact.  At r = eps the
    O(z^2) parts of D U_r cancel, z = pi eps |k|, and the residual grows to about z^2 ulps:
    4e-12 at z = 100, 2e-11 at 314 and 1.1e-10 at 700 (normal; tangential 2.8e-12 at 100)."""
    if sol.direction == "laplace_scalar":
        raise ValueError("incompressibility applies to the Stokes directions")
    r, _, (f, df) = _derivative_fields(sol, r, 1)
    u_r = f["U_r"] if sol.direction == "tangential" else f["U_r"] - f["U_theta"]
    ikr_u_z = 1j * math.pi * sol.mode.k * r * f["U_z"]
    scale = np.maximum.reduce([np.abs(df["U_r"]), np.abs(f["U_r"]), np.abs(ikr_u_z),
                               np.full_like(r, 1e-300)])
    return np.abs(df["U_r"] + u_r + ikr_u_z) / scale


def residual_momentum(sol, r):
    """Relative residuals of the radial momentum/pressure equations at r >= eps.

    Each profile f satisfies L_m f = forcing from the pressure gradient, with L_m = d^2/dr^2
    + (1/r) d/dr - m^2/r^2 - (pi k)^2; pressure itself is harmonic (L_0 or L_1 annihilates it).
    A residual is |r^2 (L_m f - forcing)| = |D^2 f - m^2 f - x^2 f - r^2 forcing|, D = r d/dr,
    x = pi |k| r, over the sum of those four terms' magnitudes; the derivatives are exact."""
    r, x, (f, df, d2f, dp_plus_p) = _derivative_fields(sol, r, 2)
    # (m, r^2 forcing) of each profile's equation L_m f = forcing
    r_p, r_dp, kr = r * f["p"], r * df["p"], math.pi * sol.mode.k * r
    if sol.direction == "laplace_scalar":
        equations = {"U": (0, 0.0)}
    elif sol.direction == "tangential":
        equations = {"p": (0, 0.0), "U_r": (1, r_dp), "U_z": (0, 1j * kr * r_p)}
    else:
        equations = {"p": (1, 0.0), "U_plus": (0, r * dp_plus_p), "U_minus": (2, r_dp - r_p),
                     "U_z": (1, 1j * kr * r_p)}
    # the terms of r^2 (L_m f - forcing), x^2 f as x (x f) as in _derivative_fields
    terms = {key: (d2f[key], -m * m * f[key], -x * (x * f[key]), -rhs)
             for key, (m, rhs) in equations.items()}
    return {key: np.abs(sum(t)) / np.maximum(sum(map(np.abs, t)), 1e-300)
            for key, t in terms.items()}


def traction_vs_closed_form(direction, mode):
    """(numeric traction eigenvalue, closed-form eigenvalue, relative gap)."""
    lam_num = traction_eigenvalue_numeric(direction, mode)
    lam_cf = eigenvalue(_PROFILES[direction].family, mode)
    return lam_num, lam_cf, abs(lam_num - lam_cf) / abs(lam_cf)
