import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slenderspec import bessel, spectra, tables
from slenderspec.spectra import EigenFamily, Mode, PoleError, WindowError

GAMMA = spectra.EULER_GAMMA


# ---------------------------------------------------------------------------
# families, modes, validation
# ---------------------------------------------------------------------------

def test_mode_validation():
    m = Mode(3, 0.1)
    assert m.z == pytest.approx(3 * math.pi * 0.1)
    with pytest.raises(ValueError):
        Mode(0, 0.1)
    with pytest.raises(ValueError):
        Mode(1, 0.7)
    with pytest.raises(ValueError):
        Mode(1, -0.1)


@pytest.mark.parametrize("eps", [0.9, 0.5, 0.0, -0.1, math.nan])
def test_eigenvalues_reject_eps_outside_domain(eps):
    for method in ("pde", "sbt", "sbt_truncated"):
        with pytest.raises(ValueError, match=r"fiber radius must lie in \(0, 1/2\)"):
            spectra.eigenvalues(EigenFamily("laplace", "longitudinal", method), eps, [1, 2])


_SBT = EigenFamily("laplace", "longitudinal", "sbt")
_EPS_ERROR = r"fiber radius must lie in \(0, 1/2\)"


@pytest.mark.parametrize("call", [
    lambda: EigenFamily("laplace", "longitudinal", "sbt_truncated").default_cutoff(0.0),
    lambda: spectra.eigen_difference_margin("laplace", "longitudinal", 0.0, 1, "sbt"),
    lambda: spectra.eigen_difference_margin("laplace", "longitudinal", -0.1, 1, "sbt"),
    lambda: spectra.eigen_difference_margin("stokes", "normal", 0.7, 1, "delta_reg", delta=2.0),
    lambda: spectra._difference_window("tangential", "sbt", math.nan),
    lambda: spectra.sign_change_wavenumber(_SBT, -0.1),
    lambda: spectra.sign_change_wavenumber(_SBT, 0.0),
    lambda: spectra.sbt_symbol_log_form(0.0, 1),
    lambda: spectra.sbt_symbol_harmonic_form(0.7, 1),
    lambda: spectra.sbt_symbol_harmonic_form(0.0, 1),
], ids=["default_cutoff", "margin_eps0", "margin_negative", "margin_delta_eps0.7", "window_nan",
        "sign_change_negative", "sign_change_eps0", "log_form_eps0", "harmonic_form_eps0.7",
        "harmonic_form_eps0"])
def test_eps_to_wavenumber_checks_eps_first(call):
    # these divided by pi eps unchecked: ZeroDivisionError, a window |k| <= -1.43, a
    # negative sign-change wavenumber, "math domain error", or a value at eps = 0.7
    with pytest.raises(ValueError, match=_EPS_ERROR):
        call()


def test_wavenumber_past_the_double_range_is_a_value_error():
    # int(inf) raised "cannot convert float infinity to integer"
    family = EigenFamily("laplace", "longitudinal", "sbt_truncated")
    with pytest.raises(ValueError, match=r"\|k\| = 0\.45 / \(pi eps\) is past the double range"):
        family.default_cutoff(1e-320)
    with pytest.raises(ValueError, match="past the double range"):
        spectra.sign_change_wavenumber(_SBT, 5e-324)
    assert family.default_cutoff(1e-300) == int(0.45 / (math.pi * 1e-300))


def test_eps_to_wavenumber_keeps_its_bits():
    for eps in (0.1, 0.031, 1e-3, np.float64(0.02)):
        assert spectra.sign_change_wavenumber(_SBT, eps) == (
            spectra.SBT_SINGULARITY["longitudinal"] / (math.pi * eps))
        assert spectra.sbt_symbol_harmonic_form(eps, 3) == (
            2.0 * math.log(8.0 / (math.pi * eps)) - spectra.periodic_kernel_eigenvalue(3))
        assert spectra.sbt_symbol_log_form(eps, -7) == (
            -2.0 * (math.log(0.5 * math.pi * eps * 7) + GAMMA))


@pytest.mark.parametrize("call", [
    lambda: Mode(1.5, 0.1),
    lambda: Mode(math.nan, 0.1),
    lambda: Mode(3.0, 0.1),
    lambda: spectra.sbt_symbol_log_form(0.01, 1.5),
    lambda: spectra.sbt_symbol_harmonic_form(0.01, 1.5),
    lambda: spectra.periodic_kernel_eigenvalue(2.5),
    lambda: spectra.periodic_kernel_apply_mode(1.5),
    lambda: spectra.periodic_kernel_apply_mode(0),
    lambda: spectra.legendre_mu(2.5),
    lambda: spectra.legendre_mu(-1),
], ids=["mode_half", "mode_nan", "mode_float", "log_form", "harmonic_form", "kernel_eigenvalue",
        "apply_mode", "apply_mode_0", "legendre_half", "legendre_negative"])
def test_integer_wavenumbers_are_gated(call):
    # each was truncated by int(), accepted as it was, or raised a raw TypeError
    with pytest.raises(ValueError, match=r"must be an? (nonzero )?integer"):
        call()


def test_integer_gate_takes_numpy_integers_and_keeps_the_sign():
    assert Mode(np.int64(-3), 0.1).z == Mode(-3, 0.1).z
    assert spectra.periodic_kernel_eigenvalue(np.int32(5)) == spectra.periodic_kernel_eigenvalue(5)
    assert spectra.legendre_mu(np.int64(0)) == 0.0
    plus, minus = (spectra.periodic_kernel_apply_mode(k, resolution=512) for k in (3, -3))
    assert minus.real == pytest.approx(plus.real, rel=1e-14)
    assert minus.imag == pytest.approx(-plus.imag, abs=1e-12)


def test_apply_mode_needs_a_resolution_past_twice_k():
    # at |k| >= resolution/2 the midpoint grid aliases e^{i pi k s}; at |k| = 10**400 the
    # phase overflowed: "int too large to convert to float"
    assert math.isfinite(spectra.periodic_kernel_apply_mode(-7, resolution=16).real)
    for k in (8, -8):
        with pytest.raises(ValueError, match="resolution must be >= 18$"):
            spectra.periodic_kernel_apply_mode(k, resolution=16)
    with pytest.raises(ValueError, match=f"resolution must be >= {2 * 10**400 + 2}$"):
        spectra.periodic_kernel_apply_mode(10**400, resolution=16)


@pytest.mark.parametrize("n, floor, cap, message", [
    (16.0, 8, 16, "n must be an integer, not 16.0"),
    (math.nan, 100, 16, "n must be an integer, not nan"),
    (17, 100, 16, "n = 17 exceeds 16$"),
    (2**20 + 1, 0, spectra.K_MAX_LIMIT, "n = 1048577 exceeds K_MAX_LIMIT = 1048576$"),
    (np.int64(7), 8, 16, "n must be >= 8$"),
])
def test_count_gate_refuses_a_float_then_the_cap_then_the_floor(n, floor, cap, message):
    with pytest.raises(ValueError, match=message):
        spectra._count(n, "n", floor, cap)


def test_count_gate_returns_a_python_int():
    assert type(spectra._count(np.int64(16), "n", 8, 16)) is int
    assert spectra._count(10**400, "n", 0, math.inf) == 10**400


@pytest.mark.parametrize("call, message", [
    (lambda: spectra.s_transform_apply(np.cos, resolution=512.7),
     "resolution must be an integer, not 512.7"),
    (lambda: spectra.s_transform_apply(np.cos, resolution=math.nan),
     "resolution must be an integer, not nan"),
    (lambda: spectra.s_transform_apply(np.cos, resolution=10**5),
     "resolution = 100000 exceeds 4096"),
    (lambda: spectra.s_transform_apply(np.cos, resolution=2**12 + 1),
     "resolution = 4097 exceeds 4096"),
    (lambda: spectra.s_transform_apply(np.cos, resolution=4), "resolution must be >= 8"),
    (lambda: spectra.periodic_kernel_apply_mode(1, resolution=9), "resolution = 9 is odd"),
    (lambda: spectra.periodic_kernel_apply_mode(1, resolution=100.5),
     "resolution must be an integer, not 100.5"),
    (lambda: spectra.periodic_kernel_apply_mode(1, resolution=10**12),
     "resolution = 1000000000000 exceeds K_MAX_LIMIT = 1048576"),
    (lambda: EigenFamily("laplace", "longitudinal", "sbt_truncated", cutoff=20.5),
     "cutoff must be an integer, not 20.5"),
], ids=["s_transform_512.7", "s_transform_nan", "s_transform_1e5", "s_transform_cap+1",
        "s_transform_4",        "apply_mode_odd", "apply_mode_100.5", "apply_mode_1e12", "cutoff_20.5"])
def test_quadrature_resolutions_and_cutoffs_are_read_by_the_count_gate(call, message):
    # s_transform_apply ran 512.7 at 512, raised Python's "cannot convert float NaN to
    # integer" and a MemoryError at 10**5 (74.5 GiB), and took 0.4 GB at 4097; the periodic
    # kernel gave nan+nanj with a RuntimeWarning at 9 (a midpoint at s = 0), -6.165+0.093j at
    # 100.5 and a MemoryError at 10**12; a float cutoff was compared as it was
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_family_validation():
    EigenFamily("laplace", "longitudinal", "pde")
    EigenFamily("stokes", "tangential", "sbt")
    EigenFamily("stokes", "normal", "delta_reg", delta=2.0)
    with pytest.raises(ValueError):
        EigenFamily("laplace", "tangential", "pde")
    with pytest.raises(ValueError):
        EigenFamily("stokes", "longitudinal", "pde")
    with pytest.raises(ValueError):
        EigenFamily("laplace", "longitudinal", "nope")
    with pytest.raises(ValueError):
        EigenFamily("laplace", "longitudinal", "pde", delta=2.0)


def test_delta_thresholds():
    # laplace needs delta > 1, stokes needs delta > sqrt(e)
    EigenFamily("laplace", "longitudinal", "delta_reg", delta=1.01)
    with pytest.raises(ValueError):
        EigenFamily("laplace", "longitudinal", "delta_reg", delta=1.0)
    EigenFamily("stokes", "tangential", "delta_reg", delta=1.66)
    with pytest.raises(ValueError):
        EigenFamily("stokes", "tangential", "delta_reg", delta=1.6)
    with pytest.raises(ValueError):
        EigenFamily("stokes", "normal", "delta_reg")


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("setting,direction,threshold", [
    ("laplace", "longitudinal", "1.0000"), ("stokes", "tangential", "1.6487"),
    ("stokes", "normal", "1.6487")])
def test_delta_must_be_finite(setting, direction, threshold, delta):
    # nan fails every comparison, so "delta <= threshold" alone would accept it
    with pytest.raises(ValueError, match=re.escape(f"needs delta > {threshold}")):
        EigenFamily(setting, direction, "delta_reg", delta=delta)


def test_default_cutoffs():
    eps = 0.01
    assert EigenFamily("stokes", "normal", "sbt_truncated").default_cutoff(eps) == \
        int(73.0 / (100.0 * math.pi * eps))
    assert EigenFamily("stokes", "tangential", "sbt_truncated").default_cutoff(eps) == \
        int(1.0 / (4.0 * math.pi * eps))
    assert EigenFamily("laplace", "longitudinal", "sbt_truncated").default_cutoff(eps) == \
        int(9.0 / (20.0 * math.pi * eps))


# ---------------------------------------------------------------------------
# B-functions and ODEs
# ---------------------------------------------------------------------------

def test_b_scalar_and_vector():
    v = spectra.b_function("B", 2.0)
    assert isinstance(v, float)
    arr = spectra.b_function("B", np.array([1.0, 2.0]))
    assert arr.shape == (2,) and arr[1] == pytest.approx(v)


def test_b_frozen_values():
    assert spectra.b_function("B", 2.0) == pytest.approx(2.4560738596378133, rel=1e-12)


@pytest.mark.parametrize("fam", spectra.ODE_FAMILIES)
def test_ode_consistency(fam):
    """Central difference of each B-family matches its claimed ODE."""
    delta = 2.0 if fam.startswith("B_delta") else None
    if fam in ("B_SB", "B_SB_t", "B_SB_n"):
        z = np.linspace(0.05, 0.55, 25)
        kw = {"allow_past_singularity": False}
    else:
        z = np.linspace(0.05, 5.0, 40)
        kw = {}
    h = 1e-6 * z
    num = (spectra.b_function(fam, z + h, delta=delta, **kw)
           - spectra.b_function(fam, z - h, delta=delta, **kw)) / (2.0 * h)
    rhs = spectra.ode_rhs(fam, z, spectra.b_function(fam, z, delta=delta, **kw), delta=delta)
    assert np.max(np.abs(num - rhs) / np.maximum(np.abs(rhs), 1e-3)) < 1e-5


def test_sbt_pole_guard():
    pole = spectra.SBT_SINGULARITY["longitudinal"]
    with pytest.raises(PoleError):
        spectra.b_function("B_SB", pole + 0.1)
    v = spectra.b_function("B_SB", pole + 0.1, allow_past_singularity=True)
    assert v < 0  # past the singularity the formula flips sign


def test_h_function_bound_and_ratio():
    z = np.linspace(1e-3, 20.0, 10_000)
    h = spectra.h_function(z)
    assert np.all(np.abs(h) < 1.125 * z)
    # the bound is nearly attained somewhere
    assert np.max(np.abs(h) / (1.125 * z)) > 0.9


@pytest.mark.parametrize("z", [2.0**-511, 1e-150, 1e-100])
def test_h_near_its_lower_edge_is_close_to_minus_z(z):
    # h read -0.0 on [1e-160, 1e-140], where z * N3 left the normal range
    assert -1.0 < spectra.h_function(z) / z < -0.95
    assert all(m[0] > 0 for m in spectra.appendix_c_margins(z))


@pytest.mark.parametrize("call", [spectra.h_function, spectra.appendix_c_margins])
def test_h_and_the_margins_reject_z_below_two_to_the_minus_511(call):
    # h read nan with a RuntimeWarning there, and the margins (0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for z in (math.nextafter(2.0**-511, 0.0), 1e-200, bessel.Z_MIN):
            with pytest.raises(ValueError, match=r"h needs z >= 2\*\*-511"):
                call(z)


@pytest.mark.parametrize("fam, z, delta, match", [
    ("B", 1e-310, None, "ode_rhs requires finite z >= 2.225e-308"),
    ("B_t", 1e-308, None, "ode_rhs requires finite z >= 2.225e-308"),
    ("B_n", bessel.Z_MIN, None, r"h needs z >= 2\*\*-511"),
    ("B_delta", 2.0, 10**400, r"delta \* z = inf \* 2 overflows"),
    ("B_delta", 2.0, 1e308, r"delta \* z = 1e\+308 \* 2 overflows"),
], ids=["B_subnormal_z", "B_t_subnormal_z", "B_n_z_min", "delta_int", "delta_1e308"])
def test_ode_rhs_reads_z_and_delta_as_b_function_does(fam, z, delta, match):
    # each overflowed or read nan with a RuntimeWarning, or raised Python's own overflow text
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=match):
            spectra.ode_rhs(fam, z, 1.0, delta)


def test_appendix_c_positivity():
    z = np.geomspace(1e-3, 50.0, 20_000)
    m_minus, m_plus = spectra.appendix_c_margins(z)
    assert np.all(m_minus > 0) and np.all(m_plus > 0)


def test_envelope_spot_values_exact():
    assert spectra.g2_polynomial(Fraction(3, 2)) == Fraction(646907, 163840)
    assert spectra.g3_polynomial(Fraction(1)) == Fraction(3881062, 455625)
    # float path agrees with the exact path
    assert spectra.g2_polynomial(1.5) == pytest.approx(float(Fraction(646907, 163840)), rel=1e-14)
    assert spectra.g3_polynomial(1.0) == pytest.approx(float(Fraction(3881062, 455625)), rel=1e-14)


def test_envelopes_positive_on_range():
    # positivity of the rational envelopes on their stated half-lines is
    # what certifies the margin signs at large z
    for z in np.linspace(1.5, 50.0, 400):
        assert spectra.g2_polynomial(float(z)) > 0
    for z in np.linspace(1.0, 50.0, 400):
        assert spectra.g3_polynomial(float(z)) > 0


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalue_prefactors():
    eps, k = 0.01, 5
    z = math.pi * eps * k
    lam = spectra.eigenvalue(EigenFamily("laplace", "longitudinal", "pde"), Mode(k, eps))
    assert lam == pytest.approx(2.0 * math.pi * spectra.b_function("B", z), rel=1e-13)
    lam = spectra.eigenvalue(EigenFamily("stokes", "tangential", "pde"), Mode(k, eps))
    assert lam == pytest.approx(4.0 * math.pi * spectra.b_function("B_t", z), rel=1e-13)
    lam = spectra.eigenvalue(EigenFamily("stokes", "normal", "pde"), Mode(k, eps))
    assert lam == pytest.approx(2.0 * math.pi * spectra.b_function("B_n", z), rel=1e-13)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_eigenvalues_family_tuple_matches_single_calls_bitwise(monkeypatch):
    calls = []
    for name in ("ratio_A", "bessel_k"):
        fn = getattr(spectra, name)
        monkeypatch.setattr(spectra, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    z = np.geomspace(1e-3, 40.0, 300)
    for fams, delta in ((("B_t", "B_n"), None),
                        (("B_delta_t", "B_delta_n"), 1.7),
                        (("B", "B_SB_n", "B_delta_t", "B_n"), 3.0)):
        for zz in (z, 0.37):
            calls.clear()
            rows = spectra.b_function(fams, zz, delta=delta, allow_past_singularity=True)
            # one kernel pass per kind of kernel, whatever the number of families
            assert sorted(calls) == sorted(set(calls))
            assert rows.shape == (len(fams),) + np.shape(zz)
            for fam, row in zip(fams, rows):
                single = spectra.b_function(fam, zz, delta=delta, allow_past_singularity=True)
                assert _bits(row) == _bits(single)

    eps = 0.004
    for method, kw in (("pde", {}), ("sbt", {}), ("sbt_truncated", {}),
                       ("sbt_truncated", {"cutoff": 25}), ("delta_reg", {"delta": 1.7}),
                       ("delta_reg", {"delta": 3.0})):
        fams = tuple(EigenFamily("stokes", d, method, **kw) for d in ("normal", "tangential"))
        for k in (np.arange(1, 401), np.array([-90, 3, -3, 250]), 7, -140):
            calls.clear()
            rows = spectra.eigenvalues(fams, eps, k)
            assert calls.count("ratio_A") <= 1 and calls.count("bessel_k") <= 1
            assert rows.shape == (2,) + np.shape(k)
            for fam, row in zip(fams, rows):
                single = spectra.eigenvalues(fam, eps, k)
                assert type(single) is (float if np.ndim(k) == 0 else np.ndarray)
                assert _bits(row) == _bits(single)

    normal = EigenFamily("stokes", "normal", "pde")
    for other in (EigenFamily("stokes", "tangential", "sbt"),
                  EigenFamily("stokes", "tangential", "delta_reg", delta=2.0),
                  EigenFamily("laplace", "longitudinal", "pde")):
        with pytest.raises(ValueError, match="must share setting, method and delta"):
            spectra.eigenvalues((normal, other), eps, [1, 2])
    mixed_delta = (EigenFamily("stokes", "normal", "delta_reg", delta=2.0),
                   EigenFamily("stokes", "tangential", "delta_reg", delta=3.0))
    with pytest.raises(ValueError, match="must share setting, method and delta"):
        spectra.eigenvalues(mixed_delta, eps, [1, 2])


def test_eigenvalues_depend_on_abs_k():
    fam = EigenFamily("stokes", "normal", "pde")
    lam = spectra.eigenvalues(fam, 0.02, np.array([-7, 7]))
    assert lam[0] == lam[1]


def test_k_zero_rejected():
    fam = EigenFamily("laplace", "longitudinal", "pde")
    with pytest.raises(ValueError):
        spectra.eigenvalues(fam, 0.01, np.array([0, 1]))


def test_truncation_zeroes_high_band():
    eps = 0.01
    fam = EigenFamily("laplace", "longitudinal", "sbt_truncated")
    cutoff = fam.default_cutoff(eps)
    lam = spectra.eigenvalues(fam, eps, np.arange(1, cutoff + 10))
    assert np.all(lam[:cutoff] != 0.0)
    assert np.all(lam[cutoff:] == 0.0)
    fam8 = EigenFamily("laplace", "longitudinal", "sbt_truncated", cutoff=8)
    lam = spectra.eigenvalues(fam8, eps, np.arange(1, 12))
    assert np.all(lam[8:] == 0.0) and np.all(lam[:8] != 0.0)


def test_sign_change_laplace():
    """1/lambda_sbt flips sign across k = 2 e^{-gamma}/(pi eps)."""
    eps = 0.1
    fam = EigenFamily("laplace", "longitudinal", "sbt")
    kc = spectra.sign_change_wavenumber(fam, eps)
    assert kc == pytest.approx(2.0 * math.exp(-GAMMA) / (math.pi * eps), rel=1e-14)
    assert 3 < kc < 4
    assert spectra.eigenvalues(fam, eps, 3) > 0
    assert spectra.eigenvalues(fam, eps, 4) < 0
    with pytest.raises(ValueError):
        spectra.sign_change_wavenumber(EigenFamily("laplace", "longitudinal", "pde"), eps)


def test_sign_change_thresholds():
    assert spectra.SBT_SINGULARITY["longitudinal"] == pytest.approx(1.1229, abs=1e-4)
    assert spectra.SBT_SINGULARITY["tangential"] == pytest.approx(0.6811, abs=1e-4)
    assert spectra.SBT_SINGULARITY["normal"] == pytest.approx(1.8514, abs=1e-4)


def test_delta_high_k_limits():
    """For eps*k large the delta families flatten to their K0 -> 0 plateaus."""
    eps, k = 0.1, 10_000  # eps*k = 1e3
    delta = 2.0
    lam_t = spectra.eigenvalues(
        EigenFamily("stokes", "tangential", "delta_reg", delta=delta), eps, k)
    assert lam_t == pytest.approx(4.0 * math.pi / (-1.0 + 2.0 * math.log(delta)), rel=1e-3)
    lam_n = spectra.eigenvalues(
        EigenFamily("stokes", "normal", "delta_reg", delta=delta), eps, k)
    assert lam_n == pytest.approx(8.0 * math.pi / (1.0 + 2.0 * math.log(delta)), rel=1e-3)


_DELTA_FAMS = ("B_delta", "B_delta_t", "B_delta_n")


@pytest.mark.parametrize("delta", [1.0 + 1e-7, tables.SQRT_E * (1.0 + 1e-7), 2.0, 3.0, 50.0])
def test_delta_families_skip_k0_exactly(monkeypatch, delta):
    # K0(delta z) is left out only where it cannot move a bit: every family,
    # alone and as a tuple, matches the evaluation with K0 on every point
    z = np.concatenate([np.geomspace(1e-3, 80.0, 4000),
                        np.linspace(20.0 / delta, 60.0 / delta, 4000)])
    k0d = spectra._k0_delta(z, delta, _DELTA_FAMS)
    assert (k0d == 0.0).any() and (k0d > 0.0).any()  # the grid crosses the threshold
    fast = [spectra.b_function(f, z, delta=delta) for f in _DELTA_FAMS]
    fast_rows = spectra.b_function(_DELTA_FAMS, z, delta=delta)
    monkeypatch.setattr(spectra, "_k0_delta", lambda z, delta, fams: bessel.bessel_k(0, delta * z))
    full_rows = spectra.b_function(_DELTA_FAMS, z, delta=delta)
    for f, row, fast_row, full_row in zip(_DELTA_FAMS, fast, fast_rows, full_rows):
        full = spectra.b_function(f, z, delta=delta)
        assert _bits(row) == _bits(full) == _bits(fast_row) == _bits(full_row), f


def test_sbt_and_delta_rows_match_their_closed_forms_bitwise():
    # the table-driven rows, their ODE right-hand sides and the poles, against
    # each closed form written out as the paper states it
    z = np.geomspace(1e-8, 1500.0, 5000)
    lg = np.log(0.5 * z)
    sbt = {"B_SB": (-1.0 / (lg + GAMMA), 1.0),
           "B_SB_t": (-1.0 / (1.0 + 2.0 * lg + 2.0 * GAMMA), 2.0),
           "B_SB_n": (4.0 / (1.0 - 2.0 * lg - 2.0 * GAMMA), 0.5)}
    for fam, (row, factor) in sbt.items():
        b = spectra.b_function(fam, z, allow_past_singularity=True)
        assert _bits(b) == _bits(row), fam
        assert _bits(spectra.ode_rhs(fam, z, b)) == _bits(factor * b * b / z), fam
    for delta in (1.0 + 1e-7, 1.7, 2.0, 3.0, 50.0):
        ld = math.log(delta)
        k0, k1 = bessel.bessel_k((0, 1), delta * z)
        dk1 = delta * k1
        rows = {"B_delta": (1.0 / (ld + k0), 1.0),
                "B_delta_t": (1.0 / (-1.0 + 2.0 * ld + 2.0 * k0), 2.0),
                "B_delta_n": (4.0 / (1.0 + 2.0 * ld + 2.0 * k0), 0.5)}
        for fam, (row, factor) in rows.items():
            b = spectra.b_function(fam, z, delta=delta)
            assert _bits(b) == _bits(row), (fam, delta)
            assert _bits(spectra.ode_rhs(fam, z, b, delta=delta)) == _bits(factor * dk1 * b * b)
    assert spectra.SBT_SINGULARITY == {
        "longitudinal": 2.0 * math.exp(-GAMMA),
        "tangential": 2.0 * math.exp(-GAMMA - 0.5),
        "normal": 2.0 * math.exp(0.5 * (1.0 - 2.0 * GAMMA))}


def test_delta_z_at_the_edge_of_the_double_range():
    # delta z near 1e308: K0 is skipped without a warning (the skip bound used
    # to form 2 delta z, which overflows) and each row is its K0-free plateau
    ld = math.log(1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = spectra.b_function(_DELTA_FAMS, np.array([0.1, 0.3, 0.9]), delta=1e308)
    assert _bits(rows) == _bits([[1.0 / ld] * 3, [1.0 / (-1.0 + 2.0 * ld)] * 3,
                                 [4.0 / (1.0 + 2.0 * ld)] * 3])
    # past it delta z itself overflows: a ValueError before the product is formed
    for fams in ("B_delta_n", ("B_t", "B_delta")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"delta \* z = 1e\+300 \* 3\.2e\+09 overflows"):
                spectra.b_function(fams, np.array([1.0, 3.2e9]), delta=1e300)


def test_lower_edge_of_z():
    # below the smallest normal double K1 ~ 1/z overflowed: B_t read -1 (pde
    # lambda = -4 pi) and B read inf; every family now stops there alike
    fams = ("B", "B_t", "B_n", "B_SB", "B_delta_t")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = spectra.b_function(fams, np.array([bessel.Z_MIN, 1e-300, 1.0]), delta=2.0)
        assert np.all(np.isfinite(rows)) and np.all(rows > 0.0)
        for z in (1e-310, np.array([1.0, np.nextafter(bessel.Z_MIN, 0.0)])):
            with pytest.raises(ValueError, match=r"b_function requires finite z >= 2\.225e-308"):
                spectra.b_function(fams, z, delta=2.0)


@pytest.mark.parametrize("z", [10**400, [1.0, 10**400]], ids=["int", "list"])
def test_int_past_the_double_range_is_no_finite_z(z):
    # float(z) raised a raw OverflowError ("int too large to convert to float")
    for fam in ("B", "B_SB", ("B_t", "B_n")):
        with pytest.raises(ValueError, match=r"b_function requires finite z >= 2\.225e-308"):
            spectra.b_function(fam, z, allow_past_singularity=True)


def test_upper_edges_of_z():
    # B and B_t read nan from 2**1023 on (the kernel's 2 (1 + z) overflowed), B_n
    # from z ~ 1.34e154 on (its z * z); each now raises where its edge starts
    top = np.nextafter(bessel.Z_MAX, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(spectra.b_function(("B", "B_t"), [1.0, top])))
        assert np.all(np.isfinite(spectra.b_function("B_n", [1.0, 2.0**511])))
        for fam in ("B", "B_t"):
            with pytest.raises(bessel.BesselDomainError, match=r"z < 2\*\*1023"):
                spectra.b_function(fam, bessel.Z_MAX)
        for z in (np.nextafter(2.0**511, math.inf), top):
            with pytest.raises(ValueError, match=r"B_n requires z <= 2\*\*511"):
                spectra.b_function(("B", "B_n"), [1.0, z])


@pytest.mark.parametrize("k", [10**400, -(10**400), [1, 10**400],
                               np.array([1, -(10**400)], dtype=object)],
                         ids=["int", "negative_int", "list", "object_array"])
def test_int_k_past_the_double_range_is_a_typed_error(k):
    # float(k) and astype(float) raised a raw OverflowError ("int too large to convert
    # to float"); the message must not format |k| as a float, which overflows too
    for method in ("pde", "sbt", "sbt_truncated", "delta_reg"):
        family = EigenFamily("stokes", "normal", method, delta=2.0 if method == "delta_reg" else None)
        with pytest.raises(ValueError, match=r"z = pi eps \|k\| cannot be formed: "
                                             r"\|k\| is past the double range"):
            spectra.eigenvalues(family, 0.1, k)


def test_mode_past_the_double_range_is_a_typed_error():
    for k in (10**400, -(10**400)):
        with pytest.raises(ValueError, match=r"z = pi eps \|k\| cannot be formed"):
            Mode(k, 0.1).z
    # the largest int that still rounds to a double forms z as before
    k = 2**1024 - 2**970 - 1
    assert Mode(k, 1e-300).z == math.pi * 1e-300 * float(k)


@pytest.mark.parametrize("direction", ["longitudinal", "tangential"])
def test_pde_eigenvalue_past_the_double_range_raises(direction):
    # 2 pi B ~ 2 pi z, and 4 pi B_t (B_t reads z/2 there), leave the double range
    # from z ~ 2.86e307, below the kernel's Z_MAX: lambda read inf with exit 0
    family = spectra.pde_family(direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(spectra.eigenvalues(family, 0.1, np.array([1.0, 1e307]))))
        assert math.isfinite(spectra.eigenvalues(family, 0.1, 10**307))
        for k in (10**308, np.array([1.0, 1e308])):
            with pytest.raises(OverflowError, match=r"overflows a double; z = pi eps \|k\| "
                                                    r"reaches 3\.142e\+307"):
                spectra.eigenvalues(family, 0.1, k)


@pytest.mark.parametrize("fam, z, b", [
    ("B", bessel.Z_MIN, 3.0), ("B", 2.0, 1e155), ("B_SB", 1e-300, 1e5), ("B", 1e308, 1e308),
    ("B_t", 30.0, 1e308), ("B_n", 2.0, 1e308), ("B_n", 1e100, 1.0)])
def test_ode_rhs_past_the_double_range_is_a_typed_error(fam, z, b):
    # B * B, z * z and B * B / z overflowed with a RuntimeWarning to inf or nan (and h at
    # z = 1e100 to nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"dB/dz of {fam} is past the double range"):
            spectra.ode_rhs(fam, z, b)


def test_ode_rhs_rejects_non_finite_z():
    # nan passed the z <= 0 test: B read nan, and B_SB at z = inf read 0.0
    for fam in ("B", "B_SB", "B_t", "B_delta"):
        for z in (math.nan, math.inf, -math.inf, 0.0, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="ode_rhs requires finite z >= 2.225e-308"):
                spectra.ode_rhs(fam, z, 1.0, delta=2.0)


def test_numbers_past_the_double_range_are_typed_errors():
    # each raised OverflowError("int too large to convert to float")
    for z, b in ((10**400, 1.0), (1.0, 10**400), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(ValueError,
                           match="ode_rhs requires finite z >= 2.225e-308 and a finite B"):
            spectra.ode_rhs("B", z, b)
    for call in (spectra.h_function, spectra.appendix_c_margins):
        with pytest.raises(bessel.BesselDomainError, match=r"K_nu requires z < 2\*\*1023"):
            call(10**400)
        with pytest.raises(bessel.BesselDomainError, match=r"K_nu requires z < 2\*\*1023"):
            call([1.0, 10**400])
    with pytest.raises(ValueError, match=r"h needs z >= 2\*\*-511"):
        spectra.h_function(-(10**400))
    # delta past the double range, or an overflowing numpy delta * z (a RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for delta, z in ((10**400, 1.0), (np.float64(1e10), 1e300)):
            with pytest.raises(ValueError, match=r"delta \* z = .* overflows a double"):
                spectra.b_function("B_delta", z, delta=delta)
        with pytest.raises(ValueError, match=r"delta \* z = inf \* 0\.942478 overflows"):
            spectra.eigenvalues(EigenFamily("laplace", "longitudinal", "delta_reg",
                                            delta=10**400), 0.1, 3)


@pytest.mark.parametrize("delta", [None, 0.0, -0.0, -1.0, math.nan, 5e-324])
def test_delta_families_need_a_positive_delta_z(delta):
    # delta <= 0 raised "math domain error", and a delta z that underflows to 0
    # "float division by zero"
    with pytest.raises(ValueError, match=r"B_delta_t requires delta > 0, and delta \* z > 0"):
        spectra.b_function(("B_t", "B_delta_t"), 0.5, delta=delta)


def test_h_function_and_ode_rhs_shapes():
    z = np.array([0.5, 2.0, 7.0])
    assert type(spectra.h_function(2.0)) is float
    assert spectra.h_function(2.0) == spectra.h_function(z)[1]
    assert spectra.h_function([2.0]).shape == (1,)
    b = spectra.b_function("B", z)
    assert type(spectra.ode_rhs("B", 2.0, b[1])) is float
    assert spectra.ode_rhs("B", 2.0, b).shape == (3,)
    assert spectra.ode_rhs("B", z, b)[1] == spectra.ode_rhs("B", 2.0, b[1])


def test_k0_below_its_exponential_bound():
    # K0(x) <= sqrt(pi/(2x)) e^{-x}, the bound behind the K0 skip, holds for
    # the computed values, evaluated as the continued fraction evaluates it
    x = np.linspace(2.0, 800.0, 200_001)
    with np.errstate(under="ignore"):
        bound = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    assert np.all(bessel.bessel_k(0, x) <= bound)


def test_pde_eigenvalues_positive_and_bounded():
    ks = np.arange(1, 2001)
    for setting, direction, lo_f, width in (
        ("laplace", "longitudinal", 2.0, math.pi),
        ("stokes", "tangential", 4.0, 2.0 * math.pi),
        ("stokes", "normal", 3.0, 3.0 * math.pi),
    ):
        for eps in (0.1, 0.01):
            lam = spectra.eigenvalues(EigenFamily(setting, direction, "pde"), eps, ks)
            base = math.pi**2 * eps * ks
            assert np.all(lam > lo_f * base)
            assert np.all(lam < lo_f * base + width)


# ---------------------------------------------------------------------------
# Gronwall constants and difference bounds
# ---------------------------------------------------------------------------

def test_gronwall_constants_values():
    c = spectra.gronwall_constants()
    assert c["c_B"] == pytest.approx(1.9339, abs=5e-4)
    assert c["c_t"] == pytest.approx(0.90533, abs=5e-4)
    assert c["c_n"] == pytest.approx(3.91618, abs=5e-4)
    assert c["c_l2"] == pytest.approx(1.87531, abs=5e-4)
    assert c["c_t2"] == pytest.approx(0.98352, abs=5e-4)
    assert c["c_n2"] == pytest.approx(3.87653, abs=5e-4)
    # the strict inequalities the bounds rely on
    assert c["c_B"] < 2 and c["c_t"] < 1 and c["c_n"] < 4
    assert c["c_l2"] < 2 and c["c_t2"] < 1 and c["c_n2"] < 4


def test_difference_margin_holds():
    for setting, direction in (
        ("laplace", "longitudinal"), ("stokes", "tangential"), ("stokes", "normal"),
    ):
        eps = 1e-2
        kmax = int(spectra._difference_window(direction, "sbt", eps))
        for k in (1, kmax // 2, kmax):
            m = spectra.eigen_difference_margin(setting, direction, eps, k, "sbt")
            assert m.margin >= 0
        kmax = int(spectra._difference_window(direction, "delta_reg", eps))
        for k in (1, kmax):
            m = spectra.eigen_difference_margin(
                setting, direction, eps, k, "delta_reg", delta=2.0)
            assert m.margin >= 0


def test_difference_window_error():
    eps = 1e-2
    kmax = int(spectra._difference_window("longitudinal", "sbt", eps))
    with pytest.raises(WindowError):
        spectra.eigen_difference_margin("laplace", "longitudinal", eps, kmax + 1, "sbt")
    with pytest.raises(ValueError):
        spectra.eigen_difference_margin("laplace", "longitudinal", eps, 1, "midpoint")


@pytest.mark.parametrize("method2,delta", [("sbt", None), ("delta_reg", 1.7), ("delta_reg", 3.0)])
@pytest.mark.parametrize("setting,direction", [
    ("laplace", "longitudinal"), ("stokes", "tangential"), ("stokes", "normal")])
def test_difference_margin_array_k_matches_scalar_calls_bitwise(setting, direction,
                                                                method2, delta):
    for eps in (1e-1, 1e-2, 1e-3):
        kmax = int(spectra._difference_window(direction, method2, eps))
        ks = np.arange(1, kmax + 1)
        arr = spectra.eigen_difference_margin(setting, direction, eps, ks, method2, delta)
        scalar = [spectra.eigen_difference_margin(setting, direction, eps, k, method2, delta)
                  for k in range(1, kmax + 1)]
        assert type(arr.observed_diff) is np.ndarray and arr.paper_bound.shape == ks.shape
        assert np.array_equal(arr.observed_diff, [m.observed_diff for m in scalar])
        assert np.array_equal(arr.paper_bound, [m.paper_bound for m in scalar])
        assert all(type(m.paper_bound) is float for m in scalar)
        with pytest.raises(WindowError):
            spectra.eigen_difference_margin(setting, direction, eps,
                                            np.append(ks, kmax + 1), method2, delta)


# ---------------------------------------------------------------------------
# line / periodic singular operators
# ---------------------------------------------------------------------------

def test_legendre_mu_values():
    assert spectra.legendre_mu(0) == 0.0
    assert spectra.legendre_mu(1) == 2.0
    assert spectra.legendre_mu(3) == pytest.approx(2.0 * (1 + 0.5 + 1 / 3), rel=1e-14)


def test_s_transform_constant_is_zero():
    res = spectra.s_transform_apply(lambda s: np.ones_like(s), resolution=256)
    assert np.max(np.abs(res.values)) < 1e-12


def test_s_transform_legendre_eigenfunctions():
    from numpy.polynomial import legendre

    for k in (3, 5):
        pk = legendre.Legendre.basis(k)
        res = spectra.s_transform_apply(pk, resolution=2048)
        target = -spectra.legendre_mu(k) * pk(res.points)
        mask = np.abs(pk(res.points)) > 0.2
        rel = np.abs(res.values[mask] - target[mask]) / np.abs(target[mask])
        assert np.max(rel) < 0.02


def test_periodic_kernel_eigenvalues():
    assert spectra.periodic_kernel_eigenvalue(1) == 4.0
    assert spectra.periodic_kernel_eigenvalue(2) == pytest.approx(4.0 * (1 + 1 / 3), rel=1e-14)
    assert spectra.periodic_kernel_eigenvalue(3) == pytest.approx(4.0 * (1 + 1 / 3 + 1 / 5), rel=1e-14)
    assert spectra.periodic_kernel_eigenvalue(-3) == spectra.periodic_kernel_eigenvalue(3)
    with pytest.raises(ValueError):
        spectra.periodic_kernel_eigenvalue(0)


@pytest.mark.parametrize("n", [spectra.HARMONIC_SERIES_N + d for d in (1, 2, 3, 1000)]
                         + [2**16 + 1, 10**6])
def test_harmonic_series_past_the_crossover_keeps_to_the_exact_sum(n):
    # the loop's terms summed exactly (math.fsum) and rounded once; the plain loop itself
    # drifts from them by up to ~90 ulps at n ~ 1e5
    mu = 2.0 * math.fsum(1.0 / j for j in range(1, n + 1))
    per = 4.0 * math.fsum(1.0 / (2 * j - 1) for j in range(1, n + 1))
    assert abs(spectra.legendre_mu(n) - mu) <= 2 * math.ulp(mu)
    assert abs(spectra.periodic_kernel_eigenvalue(-n) - per) <= 2 * math.ulp(per)


def test_harmonic_sums_take_bounded_work_at_any_k():
    # the loop over j = 1..|k| never returned at 10**400
    n = 10**400
    log_n = 400 * math.log(10)
    assert spectra.legendre_mu(n) == pytest.approx(2 * (log_n + GAMMA), rel=1e-15)
    assert spectra.periodic_kernel_eigenvalue(n) == pytest.approx(
        2 * (log_n + GAMMA) + 4 * math.log(2), rel=1e-15)
    # up to the crossover the loop runs, bit for bit
    n = spectra.HARMONIC_SERIES_N
    assert spectra.legendre_mu(n) == 2.0 * sum(1.0 / j for j in range(1, n + 1))


def test_periodic_kernel_quadrature_matches():
    for k in range(1, 9):
        val = spectra.periodic_kernel_apply_mode(k, resolution=8192)
        mu = spectra.periodic_kernel_eigenvalue(k)
        assert abs(val.imag) < 1e-10
        assert abs(val.real + mu) / mu < 0.01


def test_sbt_symbol_forms_agree():
    eps = 0.01
    # the two symbol forms differ by the O(1/k^2) harmonic-sum defect
    gap1 = abs(spectra.sbt_symbol_log_form(eps, 1) - spectra.sbt_symbol_harmonic_form(eps, 1))
    assert gap1 == pytest.approx(0.0732, abs=5e-4)
    gap20 = abs(spectra.sbt_symbol_log_form(eps, 20) - spectra.sbt_symbol_harmonic_form(eps, 20))
    assert gap20 < 3e-4
    # quadratic decay of the defect
    gap40 = abs(spectra.sbt_symbol_log_form(eps, 40) - spectra.sbt_symbol_harmonic_form(eps, 40))
    assert gap40 == pytest.approx(gap20 / 4.0, rel=0.1)


def test_periodization_identity():
    value, closed, err = spectra.periodization_identity_check()
    assert closed == pytest.approx(-2.0 * math.log(math.pi / 4.0), rel=1e-15)
    assert err < 1e-8
    # halving the tolerance keeps the result stable
    v2, _, err2 = spectra.periodization_identity_check(tol=5e-11)
    assert abs(v2 - value) < 1e-9 and err2 < 1e-8


def test_periodization_identity_to_rounding():
    assert spectra.periodization_identity_check()[2] < 1e-12


def test_periodization_identity_unreachable_tol_raises():
    # the 128- and 256-panel levels differ by ~2.8e-17: tol = 0 returned the
    # 256-panel value as if two levels had agreed
    with pytest.raises(bessel.BesselAccuracyError, match="tol = 0"):
        spectra.periodization_identity_check(tol=0.0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-4, max_value=0.1),
       st.integers(min_value=1, max_value=1000))
def test_property_pde_positive(eps, k):
    for setting, direction in (
        ("laplace", "longitudinal"), ("stokes", "tangential"), ("stokes", "normal"),
    ):
        lam = spectra.eigenvalues(EigenFamily(setting, direction, "pde"), eps, k)
        assert lam > 0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=10.0))
def test_property_h_bound(z):
    assert abs(spectra.h_function(z)) < 1.125 * z


# ---------------------------------------------------------------------------
# the Python-float route: a scalar k or z against the one-element array call
# ---------------------------------------------------------------------------

#: every family of every direction, delta_reg at delta = 2
_ALL_FAMILIES = [EigenFamily(entry.setting, d, method, delta=2.0 if method == "delta_reg" else None)
                 for method in ("pde", "sbt", "sbt_truncated", "delta_reg")
                 for d, entry in spectra._DIRECTIONS.items()]


def _scalar_and_row(call, x):
    """call(x) for a Python number x and call(np.array([x]))[0]: each a float's
    hex form (the first must be a Python float) with the categories of the
    warnings it raised, or its error's type and text."""
    out = []
    for arg in (x, np.array([x])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = call(arg)
            except Exception as exc:  # the error itself is compared
                out.append((type(exc), str(exc)))
                continue
        if arg is x:
            assert type(value) is float
        out.append((float(value if arg is x else value[0]).hex(), [w.category for w in caught]))
    return out


_NONZERO_K = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**200, 10**200)).filter(bool)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_ALL_FAMILIES), _NONZERO_K,
       st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
def test_property_int_k_runs_on_floats_bitwise(family, k, eps):
    scalar, row = _scalar_and_row(lambda kk: spectra.eigenvalues(family, eps, kk), k)
    assert scalar == row


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_most_negative_int_in_a_k_array_reads_its_modulus(dtype):
    # np.abs leaves it negative, so z came out negative and raised "requires finite z >= ..."
    k = np.iinfo(dtype).min
    for family in (spectra.pde_family("longitudinal"), spectra.pde_family("normal")):
        row = spectra.eigenvalues(family, 0.25, np.array([k, -1, 1], dtype=dtype))
        assert row.tolist() == [spectra.eigenvalues(family, 0.25, kk) for kk in (-k, 1, 1)]


def _raising_int_k_cases():
    """(family, eps, k): k = 0, eps outside (0, 1/2) and z below Z_MIN for every
    family; z past 2**511 for B_n, past the kernel's upper edge for pde, and
    lambda past the double range for the longitudinal and tangential pde."""
    cases = [(f, eps, k) for f in _ALL_FAMILIES for eps, k in (
        (0.1, 0), (0.0, 3), (0.5, 3), (-0.1, 3), (math.nan, 3), (math.inf, 3), (1e-310, 1))]
    cases += [(spectra.pde_family("normal"), 0.1, 10**160)]
    cases += [(f, 0.4, 10**308) for f in _ALL_FAMILIES if f.method == "pde"]
    cases += [(spectra.pde_family(d), 0.1, 10**308) for d in ("longitudinal", "tangential")]
    return cases


@pytest.mark.parametrize("family, eps, k", _raising_int_k_cases(),
                         ids=lambda v: getattr(v, "method", None) or f"{v:.3g}")
def test_int_k_raises_as_the_array_route(family, eps, k):
    scalar, row = _scalar_and_row(lambda kk: spectra.eigenvalues(family, eps, kk), k)
    assert isinstance(scalar[0], type) and scalar == row  # an error type, not a value


_ANY_B_Z = st.one_of(st.floats(min_value=5e-324, max_value=1e-300),
                     st.floats(min_value=1e-300, max_value=1e300),
                     st.sampled_from([2.0**511, math.nextafter(2.0**511, math.inf), math.inf,
                                      math.nan, 0.0, -1.0]))


#: delta = 2, and the zeros of c0 + m log(delta) (B_delta, B_delta_t, B_delta_n), where
#: B = num / (c0 + m log(delta) + m K0(delta z)) is num / 0 once K0(delta z) is 0
_ANY_DELTA = st.one_of(st.just(2.0), st.sampled_from([1.0, math.sqrt(math.e), math.exp(-0.5)]),
                       st.floats(min_value=1e-3, max_value=1e3))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(spectra.ODE_FAMILIES), _ANY_B_Z, _ANY_DELTA, st.booleans())
@example("B_delta", 1000.0, 1.0, False)
@example("B_delta_t", 1000.0, math.sqrt(math.e), False)
def test_property_b_function_float_z_matches_the_row(name, z, delta, allow):
    scalar, row = _scalar_and_row(
        lambda zz: spectra.b_function(name, zz, delta=delta, allow_past_singularity=allow), z)
    assert scalar == row
