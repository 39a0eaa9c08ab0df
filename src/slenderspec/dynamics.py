"""Linearized relaxation of a nearly straight inextensible filament.

Normal perturbations Y(z, t) of the straight periodic fiber decouple by
wavenumber, each mode decaying at rate

    nu_k = (-k^4 + k^2) / lambda_n(eps, k)

with lambda_n the normal-direction Dirichlet-to-force eigenvalue: nu_1
vanishes exactly (translation-like neutral mode), every |k| >= 2 mode decays.
A ``DynamicsState`` is the (x, y) coefficient table of Y, an
``operators.PeriodicField`` with eps and t.  Explicit Euler's stability ceiling
dt < 2/|nu_Kmax| gives dt ~ ds^4 on grids coarser than the fiber radius and
dt ~ eps * ds^3 on finer ones; the exponential integrator is unconditionally stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _as_float
from .experiments import _bisect, fit_slope
from .operators import PeriodicField
from .spectra import K_MAX_LIMIT, _check_eps, _count, _int_k, eigenvalues, pde_family

_NORMAL_PDE = pde_family("normal")


def nu(eps, k):
    """Decay rate of the wavenumber-k normal perturbation; nu_1 = 0 exactly."""
    k_arr = np.atleast_1d(np.asarray(k))
    lam = eigenvalues(_NORMAL_PDE, eps, k_arr)
    kk = np.abs(k_arr).astype(float)
    if not np.all(kk < 2.0**256):
        raise ValueError("nu requires |k| < 2**256 ~ 1.158e+77; k**4 overflows past it")
    out = (-(kk**4) + kk**2) / lam
    return float(out[0]) if np.ndim(k) == 0 else out


@dataclass(frozen=True)
class DynamicsState(PeriodicField):
    """Normal displacement, two components (x, y) and zero at k = 0, at radius eps and time t."""

    eps: float
    t: float = 0.0
    _COMPONENTS = (2,)

    def __post_init__(self):
        _check_eps(self.eps)
        super().__post_init__()
        if not math.isfinite(_as_float(self.t, math.inf)):
            raise ValueError("t must be a finite double")
        if not self.mean_free:
            raise ValueError("the k = 0 coefficient must vanish (zero-mean constraint)")


def single_mode_state(eps, k_max, k):
    """A state holding the unit mode pair at +/-k in the x component."""
    k_max = _count(k_max, "k_max", 1, K_MAX_LIMIT)
    k = abs(_int_k(k)) if k != 0 else 0  # k = 0 fails the range test, in its words
    if not 1 <= k <= k_max:
        raise ValueError(f"mode k must satisfy 1 <= |k| <= k_max = {k_max}")
    coeffs = np.zeros((2, 2 * k_max + 1), dtype=complex)
    coeffs[0, [k_max - k, k_max + k]] = 1.0
    return DynamicsState(coeffs, eps)


def step(state, dt, scheme):
    """One time step: explicit_euler (1 + dt nu) or implicit_exact (e^{dt nu})."""
    if not 0.0 < (dt := float(_as_float(dt, math.inf))) < math.inf:
        raise ValueError("dt must be finite and positive")
    rates = nu(state.eps, np.arange(1, state.k_max + 1))  # nu reads |k| only
    # Python floats overflow to inf silently, so this test itself never warns
    t = float(state.t) + dt
    if not (math.isfinite(dt * float(np.max(np.abs(rates), initial=0.0))) and math.isfinite(t)):
        raise ValueError(f"dt = {dt:g} is too large: dt * max|nu| or t + dt overflows")
    if scheme == "explicit_euler":
        half = 1.0 + dt * rates
    elif scheme == "implicit_exact":
        half = np.exp(dt * rates)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    mult = np.concatenate((half[::-1], [1.0], half))  # k = -K..K
    with np.errstate(over="ignore"):  # _energy below rejects the overflowed table
        coeffs = state.coeffs * mult[None, :]
    _energy(coeffs, state.k_values, t)
    return DynamicsState(coeffs, state.eps, t)


def energy(state):
    """Bending + tension quadratic form: (1/2) sum (pi k)^4 |Y|^2 + (1/2) sum (pi k)^2 |Y|^2.

    Raises OverflowError where it leaves the double range (an unstable
    explicit step grows |Y| by |1 + dt nu| each time).
    """
    return _energy(state.coeffs, state.k_values, state.t)


def _energy(coeffs, k, t):  # energy() of a table over wavenumbers k, at time t
    pk2 = (math.pi * k) ** 2
    with np.errstate(over="ignore"):  # checked below
        mag2 = np.sum(np.abs(coeffs) ** 2, axis=0)
        value = float(0.5 * np.sum((pk2 * pk2 + pk2) * mag2))
    if not math.isfinite(value):
        raise OverflowError(f"the energy at t = {t:g} overflows a double")
    return value


def grid_spacing(k_max):
    """ds = 2/(2 K_max + 2) of the synthesis grid, as an int division: 0.0 past the double range."""
    return 1 / (_count(k_max, "k_max", 0, math.inf) + 1)


def _rate(eps, k_max):
    """nu at the stiffest mode of a K_max >= 8 truncation; no cap, as nu reads one mode."""
    return nu(eps, _count(k_max, "k_max", 8, math.inf))


def _bisect_dt(rate):
    """The dt in [0.5, 4] x 2/|rate| where 200 explicit steps grow a mode 10^6-fold;
    |1 + dt rate| runs from ~0 to 7 (7^200 ~ 1e169) over it, so it holds the boundary."""
    analytic = 2.0 / abs(rate)
    lo, hi = _bisect(lambda dt: abs(1.0 + dt * rate) ** 200 <= 1e6, 0.5 * analytic, 4.0 * analytic)
    return 0.5 * (lo + hi)


def max_stable_dt(eps, k_max, empirical=False):
    """Largest explicit-Euler step that keeps the stiffest mode bounded.

    Analytic value: 2/|nu_{K_max}|.  Empirical mode bisects dt until the
    200-step amplification of a pure K_max mode reaches 10^6, which happens
    at (1 + 10^{6/200})/|nu|, about 3.6 % above the analytic value.
    """
    rate = _rate(eps, k_max)
    return _bisect_dt(rate) if empirical else 2.0 / abs(rate)


def stability_sweep(eps, k_max_list):
    """Rows (eps, K_max, ds, dt_analytic, dt_empirical), both steps from one nu per row."""
    return [(eps, int(k_max), grid_spacing(k_max), 2.0 / abs(rate), _bisect_dt(rate))
            for k_max in k_max_list for rate in [_rate(eps, k_max)]]


def stability_slope(eps, k_max_list):
    """OLS slope of log(max stable dt) against log(ds) across the sweep."""
    return fit_slope([grid_spacing(k) for k in k_max_list],
                     [max_stable_dt(eps, k) for k in k_max_list])[0]
