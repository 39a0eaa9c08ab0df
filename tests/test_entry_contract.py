"""The library's entry contract: every input to a public entry gives a finite result, or a
ValueError / ArithmeticError in the module's own words, and never a RuntimeWarning.

Each argument draws from the edges of the number line (nan, +-inf, 0, -0.0, negatives,
subnormals, 1/2, 1e308, ints past the double range) mixed with values inside the domain,
and an integer argument also from non-integers.
"""

import math
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slenderspec import bessel, dynamics, profiles, spectra
from slenderspec import experiments as xp
from slenderspec import operators as ops
from slenderspec.spectra import K_MAX_LIMIT, EigenFamily, Mode

#: what Python and numpy say on their own; an error in these words was never checked
_FOREIGN_TEXTS = ("division by zero", "too large to convert", "cannot convert float",
                  "math domain error", "math range error", "Numerical result out of range",
                  "cannot be interpreted as an integer", "could not convert")

_EDGES = (math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1.0, -(10**400), 5e-324, 1e-310,
          0.5, 1e308, 10**400)
_EPS = st.sampled_from(_EDGES + (0.01, 0.1, 0.3, np.float64(0.05)))
_Z = st.sampled_from(_EDGES + (1e-3, 2.0, 30.0))
_INTEGERS = (1, -3, 40, np.int64(7), np.int32(-2))
_K = st.sampled_from(_EDGES + _INTEGERS + (2.5, 3.0))
#: a count (K_max, a resolution, a component count): ints from -3 to 10**400 with the cap's
#: edge as cap + 1 only, and floats, even integral ones
_COUNTS = (-3, -1, 0, 1, 2, 3, 7, 8, 9, 16, np.int64(16), 64, K_MAX_LIMIT + 1, 10**400, 16.5,
           16.0, math.nan, math.inf)
_COUNT = st.sampled_from(_COUNTS)
#: s_transform_apply allocates three resolution**2 arrays: the draws it runs stop at 1024 (each
#: count above it is past its cap 2**12), and the cap is tried as 2**12 + 1
_S_RESOLUTION = st.sampled_from(_COUNTS + (512, 1024, 2**12 + 1))
#: the oracle's deep form (below 1.3e-152), with the points where its log form stalled
_ORACLE_Z = st.sampled_from(_EDGES + (1e-3, 2.0, 30.0, 705.0, 1e-200, 1.5e-154, 1e-153,
                                      1.0859582503275125e-153, 1.9024486780306385e-307))
_FIELD = st.sampled_from([ops.make_test_field("h1_rough", 8), ops.PeriodicField([1, 0, 1]),
                          ops.make_test_field("h2_rough", 8, n_components=3),
                          ops.PeriodicField([1e308, 0, -1e308]), ops.PeriodicField([1, 1, 1]),
                          dynamics.single_mode_state(0.01, 8, 3)])
_SETTING = st.sampled_from(("laplace", "stokes"))
_DIRECTION = st.sampled_from(profiles.DIRECTIONS)
_STOKES_DIRECTION = st.sampled_from(("tangential", "normal"))
_DELTA = st.sampled_from(_EDGES + (None, 2.0, 3.0))
#: the profile solutions' eps = 0.05 exactly, and a radius just below eps (1 - 1e-12)
_RADIUS = st.sampled_from(_EDGES + (0.05, 0.05 * (1.0 - 2e-12), 0.2, 3.0))
_GRID = st.one_of(_Z, st.lists(_Z, min_size=1, max_size=3))
_FAMILY = st.sampled_from([
    EigenFamily(entry.setting, d, method, delta=2.0 if method == "delta_reg" else None)
    for method in ("pde", "sbt", "sbt_truncated", "delta_reg")
    for d, entry in spectra._DIRECTIONS.items()])
_SOLUTIONS = {d: profiles.solve_mode(d, Mode(3, 0.05)) for d in profiles.DIRECTIONS}
_SCHEME = st.sampled_from(("explicit_euler", "implicit_exact"))


def _mode_state(amplitude):
    """A state with ``amplitude`` at k = +/-2 in its x component."""
    return dynamics.DynamicsState([[amplitude, 0, 0, 0, amplitude], [0] * 5], 0.01)


#: entry -> (call, one strategy per argument)
_ENTRIES = {
    # eps -> wavenumber
    "Mode": (lambda k, eps: Mode(k, eps).z, (_K, _EPS)),
    "default_cutoff": (
        lambda d, eps: EigenFamily(spectra._DIRECTIONS[d].setting, d, "sbt_truncated")
        .default_cutoff(eps), (st.sampled_from(tuple(spectra._DIRECTIONS)), _EPS)),
    "eigen_difference_margin": (
        lambda eps, k, method2: spectra.eigen_difference_margin(
            "stokes", "normal", eps, k, method2, delta=2.0 if method2 == "delta_reg" else None),
        (_EPS, _K, st.sampled_from(("sbt", "delta_reg")))),
    "sign_change_wavenumber": (
        lambda eps: spectra.sign_change_wavenumber(EigenFamily("stokes", "tangential", "sbt"), eps),
        (_EPS,)),
    "sbt_symbol_log_form": (spectra.sbt_symbol_log_form, (_EPS, _K)),
    "sbt_symbol_harmonic_form": (spectra.sbt_symbol_harmonic_form, (_EPS, _K)),
    "convergence_study": (
        lambda eps, k_max: xp.convergence_study("laplace", "sbt_truncated", "H1",
                                                eps_grid=(0.4, 0.3, 0.2, eps), k_max=k_max),
        (_EPS, st.one_of(st.none(), _COUNT))),
    "wellposedness_constant": (
        lambda eps: xp.wellposedness_constant("laplace", eps_grid=(0.3, eps), k_max=16), (_EPS,)),
    "measured_delta_error": (lambda eps: xp.measured_delta_error("laplace", eps, [2.0]), (_EPS,)),
    "approximation_error": (xp.approximation_error,
                            (_SETTING, st.sampled_from(("sbt_truncated", "delta_reg", "sbt")),
                             _FIELD, _EPS, _DELTA)),
    # integer wavenumbers
    "periodic_kernel_eigenvalue": (spectra.periodic_kernel_eigenvalue, (_K,)),
    "periodic_kernel_apply_mode": (
        lambda k, resolution: spectra.periodic_kernel_apply_mode(k, resolution=resolution),
        (_K, st.one_of(_COUNT, st.just(256)))),
    "legendre_mu": (spectra.legendre_mu, (_K,)),
    # numbers -> floats
    "ode_rhs": (spectra.ode_rhs, (st.sampled_from(("B", "B_t", "B_n", "B_SB", "B_delta")),
                                  _Z, _Z, _DELTA)),
    "h_function": (spectra.h_function, (_Z,)),
    "appendix_c_margins": (spectra.appendix_c_margins, (_Z,)),
    "evaluate_profile": (lambda d, r: profiles.evaluate_profile(_SOLUTIONS[d], r),
                         (_DIRECTION, _RADIUS)),
    "incompressibility_residual": (
        lambda d, r: profiles.incompressibility_residual(_SOLUTIONS[d], r),
        (_STOKES_DIRECTION, _RADIUS)),
    "residual_momentum": (lambda d, r: profiles.residual_momentum(_SOLUTIONS[d], r),
                          (_DIRECTION, _RADIUS)),
    "cdelta_profile": (xp.cdelta_profile, (_SETTING, _GRID, _Z, _Z)),
    "fit_slope": (xp.fit_slope, (_GRID, _GRID)),
    # the rest of the public surface
    "eigenvalues": (spectra.eigenvalues, (_FAMILY, _EPS, _K)),
    "b_function": (
        lambda fam, z, delta, allow: spectra.b_function(fam, z, delta=delta,
                                                        allow_past_singularity=allow),
        (st.sampled_from(spectra.ODE_FAMILIES), _Z, _DELTA, st.booleans())),
    "solve_mode": (lambda d, k, eps: profiles.solve_mode(d, Mode(k, eps)), (_DIRECTION, _K, _EPS)),
    "traction_vs_closed_form": (lambda d, k, eps: profiles.traction_vs_closed_form(d, Mode(k, eps)),
                                (_DIRECTION, _K, _EPS)),
    "optimal_delta": (xp.optimal_delta, (_SETTING, _Z)),
    "max_stable_dt": (dynamics.max_stable_dt, (_EPS, _COUNT, st.booleans())),
    "stability_slope": (dynamics.stability_slope,
                        (_EPS, st.lists(st.sampled_from((8, 16, 32, 7, 2.5)), max_size=3))),
    "stability_sweep": (dynamics.stability_sweep, (_EPS, st.lists(_COUNT, max_size=3))),
    "grid_spacing": (dynamics.grid_spacing, (_COUNT,)),
    "DynamicsState": (lambda c, eps, t: dynamics.DynamicsState([[c, 0, c], [0, 0, c]], eps, t),
                      (_Z, _EPS, _Z)),
    "single_mode_state": (dynamics.single_mode_state,
                          (_EPS, _COUNT, st.one_of(_K, st.sampled_from((None, "3"))))),
    "step": (lambda amplitude, dt, scheme: dynamics.step(_mode_state(amplitude), dt, scheme),
             (_Z, _Z, _SCHEME)),
    "energy": (lambda amplitude: dynamics.energy(_mode_state(amplitude)), (_Z,)),
    "PeriodicField": (lambda c: ops.PeriodicField([c, 0, c]), (_Z,)),
    # counts
    "make_test_field": (
        lambda profile, k_max, n_components: ops.make_test_field(
            profile, k_max, n_components=n_components),
        (st.sampled_from(("h1_rough", "h2_rough", "smooth")), _COUNT, _COUNT)),
    "s_transform_apply": (lambda resolution: spectra.s_transform_apply(np.cos, resolution),
                          (_S_RESOLUTION,)),
    "apply_operator": (ops.apply_operator, (_FAMILY, _FIELD, _EPS)),
    "sobolev_norm": (ops.sobolev_norm, (_FIELD, _Z)),
    "oracle_bessel_k": (bessel.oracle_bessel_k,
                        (st.sampled_from((0, 1, 2, (0, 1, 2), (0, 2), 3, 1.0)), _ORACLE_Z)),
}


def _finite(value):
    """Whether every number in ``value`` (nested containers and dataclasses too) is finite."""
    if is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, str) or value is None:
        return True
    return bool(np.all(np.isfinite(value)))


@settings(max_examples=850, deadline=None, derandomize=True)
@given(st.data())
def test_every_entry_returns_finite_values_or_its_own_typed_error(data):
    name = data.draw(st.sampled_from(sorted(_ENTRIES)), label="entry")
    call, strategies = _ENTRIES[name]
    args = [data.draw(s, label=f"arg{i}") for i, s in enumerate(strategies)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = call(*args)
        except (ValueError, ArithmeticError) as exc:
            text = str(exc)
            assert text and not any(t in text for t in _FOREIGN_TEXTS), (name, args, text)
            return
    assert _finite(value), (name, args, value)


@pytest.mark.parametrize("name", ["evaluate_profile", "incompressibility_residual",
                                  "residual_momentum"])
def test_profile_entries_take_r_from_eps_on(name):
    # every profile entry accepts r = eps exactly and rejects a radius below eps (1 - 1e-12)
    call, _ = _ENTRIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for direction in ("tangential", "normal"):
            eps = _SOLUTIONS[direction].mode.eps
            assert _finite(call(direction, eps)), (name, direction)
            with pytest.raises(ValueError, match="r >= eps"):
                call(direction, eps * (1.0 - 2e-12))
