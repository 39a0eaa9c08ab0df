"""Linearized relaxation of a nearly straight inextensible filament.

Normal perturbations Y(z, t) of the straight periodic fiber decouple by
wavenumber, each mode decaying at rate

    nu_k = (-k^4 + k^2) / lambda_n(eps, k)

with lambda_n the normal-direction Dirichlet-to-force eigenvalue.  nu_1
vanishes exactly (translation-like neutral mode) and every |k| >= 2 mode
decays.  Two steppers are provided: explicit Euler, whose stability
ceiling dt < 2/|nu_Kmax| reproduces the dt ~ ds^4 (grid coarser than the
fiber radius) and dt ~ eps * ds^3 (grid finer than the radius) scalings,
and the exact exponential integrator, unconditionally stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiments import _bisect, fit_slope
from .operators import check_count
from .spectra import _check_eps, eigenvalues, pde_family

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
class DynamicsState:
    """Normal displacement coefficients for 1 <= |k| <= K_max, two components."""

    coeffs: np.ndarray  # shape (2, 2*K_max+1), k = -K..K, k=0 slot always 0
    eps: float
    t: float = 0.0

    def __post_init__(self):
        _check_eps(self.eps)
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != 2 or c.shape[1] % 2 == 0:
            raise ValueError("coeffs must have shape (2, 2*K_max+1)")
        if c[:, (c.shape[1] - 1) // 2].any():
            raise ValueError("the k = 0 coefficient must vanish (zero-mean constraint)")
        object.__setattr__(self, "coeffs", c)

    @property
    def k_max(self):
        return (self.coeffs.shape[1] - 1) // 2

    @property
    def k_values(self):
        return np.arange(-self.k_max, self.k_max + 1)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))


def single_mode_state(eps, k_max, k, amplitude=1.0):
    """A state holding one conjugate-symmetric mode pair in the x component."""
    if not 1 <= abs(k) <= k_max:
        raise ValueError(f"mode k must satisfy 1 <= |k| <= k_max = {k_max}")
    check_count("k_max", k_max)
    coeffs = np.zeros((2, 2 * k_max + 1), dtype=complex)
    coeffs[0, k_max + abs(k)] = amplitude
    coeffs[0, k_max - abs(k)] = np.conj(amplitude)
    return DynamicsState(coeffs, eps)


def step(state, dt, scheme):
    """One time step: explicit_euler (1 + dt nu) or implicit_exact (e^{dt nu})."""
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    rates = nu(state.eps, np.arange(1, state.k_max + 1))  # nu reads |k| only
    # Python floats overflow to inf silently, so this test itself never warns
    dt_nu = float(dt) * float(np.max(np.abs(rates), initial=0.0))
    if not (math.isfinite(dt_nu) and math.isfinite(float(state.t) + float(dt))):
        raise ValueError(f"dt = {dt:g} is too large: dt * max|nu| or t + dt overflows")
    if scheme == "explicit_euler":
        half = 1.0 + dt * rates
    elif scheme == "implicit_exact":
        half = np.exp(dt * rates)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    mult = np.concatenate((half[::-1], [1.0], half))  # k = -K..K
    with np.errstate(over="ignore"):  # energy() below rejects the overflowed state
        new = DynamicsState(state.coeffs * mult[None, :], state.eps, state.t + dt)
    energy(new)
    return new


def energy(state):
    """Bending + tension quadratic form: (1/2) sum (pi k)^4 |Y|^2 + (1/2) sum (pi k)^2 |Y|^2.

    Raises OverflowError where it leaves the double range (an unstable
    explicit step grows |Y| by |1 + dt nu| each time).
    """
    pk2 = (math.pi * state.k_values) ** 2
    with np.errstate(over="ignore"):  # checked below
        mag2 = np.sum(np.abs(state.coeffs) ** 2, axis=0)
        value = float(0.5 * np.sum((pk2 * pk2 + pk2) * mag2))
    if not math.isfinite(value):
        raise OverflowError(f"the energy at t = {state.t:g} overflows a double")
    return value


def grid_spacing(k_max):
    """ds of the synthesis grid holding modes up to K_max: 2/(2 K_max + 2)."""
    return 2.0 / (2 * k_max + 2)


def _rate(eps, k_max):
    """nu at the stiffest mode of a K_max >= 8 truncation."""
    if k_max < 8:
        raise ValueError("k_max >= 8 required")
    return nu(eps, k_max)


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
