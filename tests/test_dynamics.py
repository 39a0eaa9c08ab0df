import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slenderspec import dynamics
from slenderspec import operators as ops
from slenderspec.spectra import EigenFamily, eigenvalues


def test_nu_neutral_mode():
    for eps in (0.1, 0.01, 1e-3):
        assert dynamics.nu(eps, 1) == 0.0
        assert dynamics.nu(eps, -1) == 0.0


def test_nu_negative_above_one():
    ks = np.arange(2, 5001)
    for eps in (0.1, 0.01, 1e-3):
        assert np.all(dynamics.nu(eps, ks) < 0)


def test_nu_formula():
    eps, k = 0.01, 7
    lam = eigenvalues(EigenFamily("stokes", "normal", "pde"), eps, k)
    assert dynamics.nu(eps, k) == pytest.approx((-(k**4) + k**2) / lam, rel=1e-14)
    with pytest.raises(ValueError):
        dynamics.nu(eps, 0)


def test_nu_regime_ratios():
    # coarse regime (eps k << 1): nu ~ -k^4 |log(eps k)|, order-1 prefactor
    eps, k = 1e-3, 10
    r = dynamics.nu(eps, k) / (-(k**4) * abs(math.log(eps * k)))
    assert 0.02 < r < 1.0
    # fine regime (eps k >> 1): nu ~ -k^3 / eps, order-1 prefactor
    eps, k = 1e-3, 5000
    r = dynamics.nu(eps, k) / (-(k**3) / eps)
    assert 0.005 < r < 1.0


def test_state_validation():
    c = np.zeros((2, 7), dtype=complex)
    s = dynamics.DynamicsState(c, 0.01)
    assert s.k_max == 3
    c[0, 3] = 1.0
    with pytest.raises(ValueError):
        dynamics.DynamicsState(c, 0.01)
    with pytest.raises(ValueError):
        dynamics.DynamicsState(np.zeros((1, 7), dtype=complex), 0.01)
    for eps in (0.5, 0.7, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="fiber radius"):
            dynamics.DynamicsState(np.zeros((2, 7), dtype=complex), eps)


@pytest.mark.parametrize("cls, shape, n_components", [
    (dynamics.DynamicsState, (2, 7), 2),
    (ops.PeriodicField, (2, 7), None),
    (dynamics.DynamicsState, (1, 7), None),
    (dynamics.DynamicsState, (3, 7), None),
    (dynamics.DynamicsState, (2, 6), None),
    (dynamics.DynamicsState, (2, 1), None),  # K_max = 0, which the state accepted on its own
])
def test_a_state_is_a_two_component_field(cls, shape, n_components):
    args = (np.zeros(shape, dtype=complex),) + ((0.01,) if cls is dynamics.DynamicsState else ())
    if n_components is None:
        with pytest.raises(ValueError, match="components|odd length"):
            cls(*args)
        return
    s = cls(*args)
    assert isinstance(s, ops.PeriodicField) and s.n_components == n_components
    assert s.k_max == 3 and s.mean_free


@pytest.mark.parametrize("call, match", [
    (lambda: dynamics.single_mode_state(0.01, 8, 2.5), "k must be a nonzero integer"),
    (lambda: dynamics.single_mode_state(0.01, 8, None), "k must be a nonzero integer, not None"),
    (lambda: dynamics.single_mode_state(0.01, 8, "3"), "k must be a nonzero integer, not '3'"),
    (lambda: dynamics.single_mode_state(0.01, 8.5, 2), "k_max must be an integer, not 8.5"),
    (lambda: dynamics.step(dynamics.single_mode_state(0.01, 8, 3), 10**400, "implicit_exact"),
     "dt must be finite and positive"),
    (lambda: ops.PeriodicField([0, 10**400, 0]), "past the double range"),
    (lambda: dynamics.DynamicsState([[0, 0, 10**400], [0, 0, 0]], 0.01), "past the double range"),
    (lambda: dynamics.DynamicsState([[0, 0, math.inf], [0, 0, 0]], 0.01), "every coefficient"),
    (lambda: dynamics.DynamicsState(np.zeros((2, 3)), 0.01, math.nan), "t must be a finite"),
    (lambda: dynamics.DynamicsState(np.zeros((2, 3)), 0.01, 10**400), "t must be a finite"),
], ids=["k_2.5", "k_None", "k_str", "k_max_8.5", "dt_int", "field_int",
        "state_int", "state_inf", "t_nan", "t_int"])
def test_dynamics_entries_give_typed_errors(call, match):
    # an IndexError, a TypeError (abs() of None or of a string), Python's "int too large to convert to float", or a state
    # that held a non-finite number
    with pytest.raises(ValueError, match=match):
        call()


def test_step_formulas():
    eps, K, k = 0.01, 16, 5
    s0 = dynamics.single_mode_state(eps, K, k)
    rate = dynamics.nu(eps, k)
    dt = 1e-4
    ex = dynamics.step(s0, dt, "explicit_euler")
    assert ex.coeffs[0, K + k] == pytest.approx((1.0 + dt * rate), rel=1e-14)
    im = dynamics.step(s0, dt, "implicit_exact")
    assert im.coeffs[0, K + k] == pytest.approx(math.exp(dt * rate), rel=1e-14)
    assert ex.t == pytest.approx(dt)
    with pytest.raises(ValueError):
        dynamics.step(s0, -1.0, "explicit_euler")
    with pytest.raises(ValueError):
        dynamics.step(s0, dt, "rk7")


@pytest.mark.parametrize("scheme", ["explicit_euler", "implicit_exact"])
@pytest.mark.parametrize("k_max", [8, 20, 100])
def test_step_evaluates_nu_once_per_wavenumber_magnitude(monkeypatch, scheme, k_max):
    # K_max = 20 puts the signed table (40 points) past bessel._SMALL and |k| inside it
    eps, dt = 0.01, 1e-6
    k = np.arange(-k_max, k_max + 1)
    nz = k != 0
    rates = dynamics.nu(eps, k[nz])
    signed = np.ones(k.size)
    signed[nz] = 1.0 + dt * rates if scheme == "explicit_euler" else np.exp(dt * rates)
    sizes = []
    real_eigenvalues = dynamics.eigenvalues
    monkeypatch.setattr(dynamics, "eigenvalues",
                        lambda fam, e, kk: sizes.append(np.size(kk)) or real_eigenvalues(fam, e, kk))
    ones = np.ones((2, 2 * k_max + 1), dtype=complex)
    ones[:, k_max] = 0.0
    mult = dynamics.step(dynamics.DynamicsState(ones, eps), dt, scheme).coeffs
    assert sizes == [k_max]
    signed_row = np.where(nz, signed, 0.0).astype(complex)
    for row in mult:
        assert np.array_equal(row.view(np.uint64), signed_row.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e12, max_value=-1e-6))
def test_property_bisect_dt_matches_the_fixed_step_loop(rate):
    # the 80-step loop that _bisect_dt replaced; it stands still once lo, hi are adjacent
    analytic = 2.0 / abs(rate)
    lo, hi = 0.5 * analytic, 4.0 * analytic
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(1.0 + mid * rate) ** 200 > 1e6:
            hi = mid
        else:
            lo = mid
    assert dynamics._bisect_dt(rate) == 0.5 * (lo + hi)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_step_rejects_non_finite_dt(dt):
    s0 = dynamics.single_mode_state(0.01, 8, 3)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        dynamics.step(s0, dt, "implicit_exact")


@pytest.mark.parametrize("scheme", ["explicit_euler", "implicit_exact"])
def test_step_rejects_dt_that_overflows(scheme):
    # a finite dt whose dt * nu or t + dt overflows used to print nan/inf rows
    s0 = dynamics.single_mode_state(0.01, 8, 3)
    late = dynamics.DynamicsState(s0.coeffs, 0.01, t=np.finfo(float).max)
    for state, dt in ((s0, 1e308), (late, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"dt \* max\|nu\| or t \+ dt overflows"):
                dynamics.step(state, dt, scheme)


def test_state_whose_energy_overflows_is_rejected():
    # dt * nu is finite, but each unstable explicit step multiplies |Y| by ~1e102:
    # the square in energy() used to overflow to inf with a RuntimeWarning
    s1 = dynamics.step(dynamics.single_mode_state(0.01, 8, 3), 1e100, "explicit_euler")
    assert math.isfinite(dynamics.energy(s1))
    huge = dynamics.DynamicsState(s1.coeffs * 1e60, 0.01, t=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dt in (1e100, 1e300):  # |Y| ~ 1e204 squares past the range; ~1e404 is inf
            with pytest.raises(OverflowError, match=r"energy at t = .* overflows a double"):
                dynamics.step(s1, dt, "explicit_euler")
        with pytest.raises(OverflowError, match=r"energy at t = 5 overflows a double"):
            dynamics.energy(huge)


def test_single_mode_state_caps_k_max():
    with pytest.raises(ValueError, match="exceeds K_MAX_LIMIT"):
        dynamics.single_mode_state(0.01, ops.K_MAX_LIMIT + 1, 3)


def test_explicit_instability_amplification():
    # at dt = 3/|nu| the explicit multiplier is 1 + 3*(-1)*... = -2: doubling
    eps, K, k = 0.01, 16, 16
    rate = dynamics.nu(eps, k)
    dt = 3.0 / abs(rate)
    s = dynamics.single_mode_state(eps, K, k)
    s1 = dynamics.step(s, dt, "explicit_euler")
    assert ops.sobolev_norm(s1, 0) == pytest.approx(2.0 * ops.sobolev_norm(s, 0), rel=1e-12)


def test_implicit_energy_nonincreasing():
    eps, K = 0.01, 32
    rng = np.random.default_rng(0)
    c = (rng.standard_normal((2, 2 * K + 1)) + 1j * rng.standard_normal((2, 2 * K + 1)))
    c[:, K] = 0.0
    s = dynamics.DynamicsState(c, eps)
    dt = 10.0 * dynamics.max_stable_dt(eps, K)
    e_prev = dynamics.energy(s)
    for _ in range(20):
        s = dynamics.step(s, dt, "implicit_exact")
        e = dynamics.energy(s)
        assert e <= e_prev * (1.0 + 1e-14)
        e_prev = e


def test_energy_single_mode():
    K, k = 8, 3
    s = dynamics.DynamicsState(2.0 * dynamics.single_mode_state(0.01, K, k).coeffs, 0.01)
    pk2 = (math.pi * k) ** 2
    # two conjugate slots, each |Y| = 2
    assert dynamics.energy(s) == pytest.approx(0.5 * (pk2**2 + pk2) * 2 * 4.0, rel=1e-14)


def test_grid_spacing():
    assert dynamics.grid_spacing(15) == pytest.approx(2.0 / 32.0, rel=1e-15)


def test_grid_spacing_keeps_the_bits_of_two_over_two_k_max_plus_two():
    ks = [0, 1, 8, 15, 128, 2**20, 2**52 - 1,
          *np.random.default_rng(5).integers(0, 2**52, 2000, dtype=np.int64)]
    assert all(dynamics.grid_spacing(k) == 2.0 / (2 * int(k) + 2) for k in ks)
    assert dynamics.grid_spacing(10**400) == 0.0  # 2.0 / (2 k + 2) raised OverflowError


@pytest.mark.parametrize("call, message", [
    (lambda: dynamics.stability_sweep(0.01, [16.5]), "k_max must be an integer, not 16.5"),
    (lambda: dynamics.max_stable_dt(0.01, math.nan), "k_max must be an integer, not nan"),
    (lambda: dynamics.max_stable_dt(0.01, 7), "k_max must be >= 8"),
    (lambda: dynamics.grid_spacing(-1), "k_max must be >= 0"),
    (lambda: dynamics.grid_spacing(16.0), "k_max must be an integer, not 16.0"),
    (lambda: dynamics.single_mode_state(0.01, 0, 1), "k_max must be >= 1"),
    (lambda: dynamics.single_mode_state(0.01, 16.5, 0), "k_max must be an integer, not 16.5"),
], ids=["sweep_16.5", "max_stable_dt_nan", "max_stable_dt_7", "grid_spacing_-1",
        "grid_spacing_16.0", "single_mode_state_0", "single_mode_state_16.5_before_k"])
def test_k_max_is_read_by_the_count_gate(call, message):
    # a sweep printed K_max 16 with the ds and dt of 16.5, nan reached b_function, -1 raised
    # ZeroDivisionError, and a float or 0 was read as it came
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_max_stable_dt_analytic():
    eps, K = 0.01, 64
    assert dynamics.max_stable_dt(eps, K) == pytest.approx(2.0 / abs(dynamics.nu(eps, K)), rel=1e-14)
    with pytest.raises(ValueError):
        dynamics.max_stable_dt(eps, 4)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-300, max_value=0.5, exclude_min=True, exclude_max=True),
       st.integers(min_value=8, max_value=ops.K_MAX_LIMIT))
def test_property_empirical_dt_is_the_growth_boundary(eps, K):
    # |1 + dt nu|^200 = 10^6 with 1 + dt nu < 0: the bisection bracket holds this
    # boundary over the whole domain
    closed_form = (1.0 + 10**0.03) / abs(dynamics.nu(eps, K))
    assert dynamics.max_stable_dt(eps, K, empirical=True) == pytest.approx(closed_form, rel=1e-12)


@pytest.mark.parametrize("eps,K", [(1e-2, 32), (1e-1, 512)])
def test_max_stable_dt_empirical(eps, K):
    a = dynamics.max_stable_dt(eps, K)
    e = dynamics.max_stable_dt(eps, K, empirical=True)
    assert abs(e - a) / a < 0.1


def test_dt_shrinks_sixteenfold():
    # coarse regime: nu ~ k^4, so doubling K_max shrinks dt by ~16
    eps = 1e-3
    r = dynamics.max_stable_dt(eps, 16) / dynamics.max_stable_dt(eps, 32)
    assert r == pytest.approx(16.0, rel=0.25)


def test_stability_sweep_rows():
    rows = dynamics.stability_sweep(1e-2, [8, 16])
    assert len(rows) == 2
    eps, K, ds, dt_a, dt_e = rows[0]
    assert eps == 1e-2 and K == 8 and ds == dynamics.grid_spacing(8)
    assert abs(dt_e - dt_a) / dt_a < 0.1


def test_one_rate_per_k_max(monkeypatch):
    ks = []
    real_nu = dynamics.nu
    monkeypatch.setattr(dynamics, "nu", lambda eps, k: ks.append(k) or real_nu(eps, k))
    dynamics.stability_sweep(1e-2, [8, 16, 32])
    assert ks == [8, 16, 32]
    monkeypatch.setattr(dynamics, "_bisect_dt", None)  # the analytic step never bisects
    assert dynamics.max_stable_dt(1e-2, 8) == 2.0 / abs(real_nu(1e-2, 8))


def test_stability_slopes():
    s4 = dynamics.stability_slope(1e-3, [8, 16, 32, 64, 128])
    assert abs(s4 - 4.0) <= 0.3
    s3 = dynamics.stability_slope(1e-1, [512, 1024, 2048, 4096])
    assert abs(s3 - 3.0) <= 0.3


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
def test_property_step_linearity(a, b):
    eps, K = 0.01, 8
    s1 = dynamics.single_mode_state(eps, K, 3)
    s2 = dynamics.single_mode_state(eps, K, 5)
    combo = dynamics.DynamicsState(a * s1.coeffs + b * s2.coeffs, eps)
    dt = 1e-5
    stepped = dynamics.step(combo, dt, "explicit_euler")
    expected = (a * dynamics.step(s1, dt, "explicit_euler").coeffs
                + b * dynamics.step(s2, dt, "explicit_euler").coeffs)
    assert np.max(np.abs(stepped.coeffs - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-30)
