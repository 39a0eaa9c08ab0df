import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slenderspec import bessel, profiles
from slenderspec.spectra import Mode


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("k", [1, 3, 7, 20])
def test_traction_matches_closed_form(direction, eps, k):
    num, cf, gap = profiles.traction_vs_closed_form(direction, Mode(k, eps))
    assert gap < 1e-6
    assert num > 0 and cf > 0


def test_traction_negative_k():
    # traction route is |k|-even like the closed form
    a = profiles.traction_eigenvalue_numeric("tangential", Mode(5, 0.02))
    b = profiles.traction_eigenvalue_numeric("tangential", Mode(-5, 0.02))
    assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
def test_boundary_conditions(direction):
    for eps, k in ((0.1, 2), (0.01, 11), (0.05, -4)):
        sol = profiles.solve_mode(direction, Mode(k, eps))
        res = profiles.boundary_residuals(sol)
        assert max(res.values()) < 1e-12


def test_laplace_profile_shape():
    mode = Mode(3, 0.05)
    sol = profiles.solve_mode("laplace_scalar", mode)
    r = np.linspace(mode.eps, 1.0, 50)
    prof = profiles.evaluate_profile(sol, r)
    a = math.pi * 3
    expected = bessel.bessel_k(0, a * r) / bessel.bessel_k(0, a * mode.eps)
    assert np.max(np.abs(prof["U"] - expected)) < 1e-14
    assert np.all(prof["p"] == 0)


def test_profile_constants_vs_oracle():
    # the constants are rational in K0, K1, K2; recompute with the oracle.
    # They are stored times 2**scale, so descale them first
    mode = Mode(4, 0.03)
    z = mode.z
    k0 = bessel.oracle_bessel_k(0, z)
    k1 = bessel.oracle_bessel_k(1, z)
    sol = profiles.solve_mode("tangential", mode)

    def descaled(c):
        return complex(math.ldexp(c.real, -sol.scale), math.ldexp(c.imag, -sol.scale))

    c_p = -1j * 2.0 * math.pi * mode.k * k1 / (2.0 * k0 * k1 + z * (k0 * k0 - k1 * k1))
    assert descaled(sol.c_p) == pytest.approx(c_p, rel=1e-12)
    assert descaled(sol.c1) == pytest.approx(-c_p * mode.eps * k0 / (2.0 * k1), rel=1e-12)


def test_far_field_decay():
    for direction in profiles.DIRECTIONS:
        mode = Mode(5, 0.02)
        sol = profiles.solve_mode(direction, mode)
        r_far = 10.0 / (math.pi * abs(mode.k))
        prof = profiles.evaluate_profile(sol, np.array([r_far]))
        vals = [abs(prof[key][0]) for key in prof]
        assert max(vals) < 1e-3


def test_incompressibility():
    for direction in ("tangential", "normal"):
        mode = Mode(6, 0.04)
        sol = profiles.solve_mode(direction, mode)
        r = np.linspace(mode.eps, 0.5, 40)
        res = profiles.incompressibility_residual(sol, r)
        assert np.max(res) <= 1e-12
    sol = profiles.solve_mode("laplace_scalar", Mode(2, 0.1))
    with pytest.raises(ValueError):
        profiles.incompressibility_residual(sol, np.array([0.2]))


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
def test_momentum_residuals(direction):
    mode = Mode(3, 0.05)
    sol = profiles.solve_mode(direction, mode)
    r = np.linspace(2.0 * mode.eps, 0.8, 20)
    res = profiles.residual_momentum(sol, r)
    for key, vals in res.items():
        assert np.max(vals) <= 1e-12, (key, float(np.max(vals)))
    # near the fiber at small x = pi |k| r, where forming K1 + x K1' = -x K0 as a difference
    # of two ~1/x terms would leave a relative residual of about 1e-16 / (x^2 ln(1/x))
    for eps in (1e-3, 1e-5, 1e-7, 1e-9):
        sol = profiles.solve_mode(direction, Mode(1, eps))
        r = eps * np.array([1.0, 2.0, 10.0])
        res = profiles.residual_momentum(sol, r)
        if direction != "laplace_scalar":
            res["div"] = profiles.incompressibility_residual(sol, r)
        for key, vals in res.items():
            assert np.max(vals) <= 1e-12, (eps, key, float(np.max(vals)))


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
def test_momentum_residuals_where_r_squared_leaves_the_double_range(direction):
    # m * m / (r * r) overflowed from r ~ 1.34e154 on ("overflow encountered in multiply");
    # every field has underflowed to 0 there, and so has each residual
    sol = profiles.solve_mode(direction, Mode(3, 0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = profiles.residual_momentum(sol, np.array([1e150, 1e155, 1e200]))
    assert list(res) and all(np.all(vals == 0.0) for vals in res.values())


def test_domain_guards():
    mode = Mode(2, 0.1)
    sol = profiles.solve_mode("tangential", mode)
    with pytest.raises(ValueError):
        profiles.evaluate_profile(sol, np.array([0.05]))
    # r = eps is in the momentum check's domain, as in evaluate_profile's; below it is not
    res = profiles.residual_momentum(sol, np.array([0.1]))
    assert all(np.all(np.isfinite(vals)) for vals in res.values())
    for r in (0.05, 0.1 * (1.0 - 2e-12)):
        with pytest.raises(ValueError, match="r >= eps"):
            profiles.residual_momentum(sol, np.array([r]))
    with pytest.raises(ValueError):
        profiles.solve_mode("sideways", mode)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_evaluate_profile_rejects_non_finite_radii(bad):
    sol = profiles.solve_mode("normal", Mode(3, 0.05))
    with pytest.raises(ValueError, match="profile radii must be finite"):
        profiles.evaluate_profile(sol, np.array([0.05, bad]))


@pytest.mark.parametrize("call", [profiles.evaluate_profile, profiles.incompressibility_residual,
                                  profiles.residual_momentum])
def test_int_radii_past_the_double_range_are_a_value_error(call):
    # each raised OverflowError("int too large to convert to float")
    sol = profiles.solve_mode("normal", Mode(3, 0.05))
    for r in (10**400, [0.1, 10**400]):
        with pytest.raises(ValueError, match=r"z = pi \|k\| r < 2\*\*1023"):
            call(sol, r)


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
def test_radii_past_the_kernel_range_are_a_value_error(direction):
    # pi |k| r overflowed in numpy's multiply (a RuntimeWarning), and the kernel then
    # reported K2's lower edge for the inf it was given
    sol = profiles.solve_mode(direction, Mode(1000, 0.05))
    r_top = bessel.Z_MAX / (math.pi * 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for r in ([0.05, 5e306], [0.05, r_top], [0.05] * 40 + [1e308]):
            with pytest.raises(ValueError, match=r"z = pi \|k\| r < 2\*\*1023"):
                profiles.evaluate_profile(sol, r)
        # just below the edge every K value has underflowed to 0.0
        for r in ([0.05, np.nextafter(r_top, 0.0)], [0.05] * 40 + [np.nextafter(r_top, 0.0)]):
            assert all(v[-1] == 0.0 for v in profiles.evaluate_profile(sol, r).values())


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
def test_solve_mode_calls_bessel_k_detail_once_through_its_binding(direction):
    # the benchmark tracer counts solve_mode's kernel calls by wrapping this binding; the
    # traction route differentiates on solve_mode's boundary K values and calls no kernel itself
    mode = Mode(37, 0.05)
    with mock.patch.object(profiles, "bessel_k_detail", wraps=bessel.bessel_k_detail) as spy, \
            mock.patch.object(profiles, "bessel_k", wraps=bessel.bessel_k) as kernel:
        profiles.solve_mode(direction, mode)
        spy.assert_called_once_with(profiles._PROFILES[direction].orders, mode.z)
        profiles.traction_vs_closed_form(direction, mode)
        assert spy.call_count == 2
        kernel.assert_not_called()


def test_underflow_guard():
    # z = pi*eps*k far past the K underflow point
    with pytest.raises(profiles.UnderflowError):
        profiles.solve_mode("tangential", Mode(100_000, 0.01))


@pytest.mark.parametrize("direction", ["tangential", "normal"])
@pytest.mark.parametrize("z", [250.0, 400.0, 600.0])
def test_traction_where_boundary_products_underflow(direction, z):
    # products of two (tangential) or three (normal) K values at the boundary
    # leave the normal double range from z ~ 354 and ~ 236
    eps = 0.01
    mode = Mode(round(z / (math.pi * eps)), eps)
    _, _, gap = profiles.traction_vs_closed_form(direction, mode)
    assert gap <= 1e-6


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
def test_underflow_error_past_underflow_z(direction):
    mode = Mode(22_918, 0.01)  # z = 719.99
    assert mode.z > bessel.UNDERFLOW_Z
    with pytest.raises(profiles.UnderflowError):
        profiles.traction_vs_closed_form(direction, mode)


def test_constants_past_the_double_range_unscaled():
    # z = 691.6 is below UNDERFLOW_Z; unscaled, the constants (of size ~|k|/K1)
    # exceed the largest double for this |k|, while the scaled ones are finite
    mode = Mode(-2_053_101, 1.0722229706726456e-4)
    _, _, gap = profiles.traction_vs_closed_form("normal", mode)
    assert gap <= 1e-6


@pytest.mark.parametrize("direction", ["laplace_scalar", "tangential"])
def test_k2_free_directions_below_z_min_k2(direction):
    # only the normal direction reads K2, so only it stops at Z_MIN_K2
    mode = Mode(1, 1e-200)
    assert mode.z < bessel.Z_MIN_K2
    _, _, gap = profiles.traction_vs_closed_form(direction, mode)
    assert gap <= 1e-6
    with pytest.raises(bessel.BesselDomainError, match="K2"):
        profiles.solve_mode("normal", mode)


@pytest.mark.parametrize("direction", profiles.DIRECTIONS[:2])
def test_finite_difference_step_floor(direction):
    # traction differentiates exactly, with no step to floor: down to the smallest eps whose
    # z = pi eps is at least Z_MIN (a finite-difference step eps * 1e-5 stopped at 2.2e-303)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for eps in (1.1e-303, 2.3e-308):
            _, _, gap = profiles.traction_vs_closed_form(direction, Mode(1, eps))
            assert gap <= 1e-14, (eps, gap)
    with pytest.raises(bessel.BesselDomainError):
        profiles.traction_vs_closed_form(direction, Mode(1, 0.5 * bessel.Z_MIN / math.pi))
    if direction == "tangential":
        # the residuals differentiate exactly too, with no step to floor
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for eps in (1.1e-302, 2.3e-308):
                sol = profiles.solve_mode(direction, Mode(1, eps))
                r = eps * np.array([1.0, 2.0, 10.0, 1e6])
                residuals = [profiles.incompressibility_residual(sol, r),
                             *profiles.residual_momentum(sol, r).values()]
                assert all(np.all(np.isfinite(v)) and np.max(v) <= 1e-12 for v in residuals)


@settings(max_examples=300, deadline=None)
@given(direction=st.sampled_from(profiles.DIRECTIONS),
       log_eps=st.floats(math.log(1e-300), math.log(0.49)),
       u=st.floats(0.0, 1.0), sign=st.sampled_from((-1, 1)))
def test_traction_gap_or_typed_error(direction, log_eps, u, sign):
    # z log-uniform in [pi eps, UNDERFLOW_Z]: a finite gap <= 1e-14 (laplace) or 5e-12
    # (Stokes), with no RuntimeWarning; the one typed error is K2 below Z_MIN_K2 (normal only)
    eps = math.exp(log_eps)
    z_lo = math.pi * eps
    z_hi = bessel.UNDERFLOW_Z * (1.0 - 1e-12)
    z = math.exp(math.log(z_lo) + u * (math.log(z_hi) - math.log(z_lo)))
    mode = Mode(sign * max(1, math.floor(z / z_lo)), eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if direction == "normal" and mode.z < bessel.Z_MIN_K2:
            with pytest.raises(bessel.BesselDomainError, match="K2"):
                profiles.traction_vs_closed_form(direction, mode)
            return
        _, _, gap = profiles.traction_vs_closed_form(direction, mode)
    assert math.isfinite(gap) and gap <= (1e-14 if direction == "laplace_scalar" else 5e-12)


def test_normal_plus_minus_split():
    mode = Mode(2, 0.1)
    sol = profiles.solve_mode("normal", mode)
    r = np.linspace(mode.eps, 0.5, 10)
    prof = profiles.evaluate_profile(sol, r)
    assert np.max(np.abs(prof["U_r"] - 0.5 * (prof["U_plus"] + prof["U_minus"]))) < 1e-14
    assert np.max(np.abs(prof["U_theta"] - 0.5 * (prof["U_plus"] - prof["U_minus"]))) < 1e-14


#: each field's dtype: real wherever its constants are
_FIELD_DTYPES = {
    "laplace_scalar": {"U": float, "p": complex},
    "tangential": {"U_r": complex, "U_z": complex, "p": complex},
    "normal": {"U_r": float, "U_theta": float, "U_z": complex, "U_plus": float,
               "U_minus": float, "p": float},
}


@pytest.mark.parametrize("direction", profiles.DIRECTIONS)
def test_fields_are_real_wherever_their_constants_are(direction):
    mode = Mode(-7, 0.03)
    sol = profiles.solve_mode(direction, mode)
    r = np.linspace(mode.eps, 0.4, 96)
    dtypes = {key: np.dtype(t) for key, t in _FIELD_DTYPES[direction].items()}
    for prof in (profiles.evaluate_profile(sol, r), profiles.evaluate_profile(sol, r[:0])):
        assert list(prof) == list(dtypes)
        assert {key: v.dtype for key, v in prof.items()} == dtypes
