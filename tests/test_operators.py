import math
import struct
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slenderspec import operators as ops
from slenderspec.spectra import EigenFamily, eigenvalues


def _mode_field(k_max, k, n_components=1):
    """Unit amplitude at k = +/- k in every component."""
    c = np.zeros((n_components, 2 * k_max + 1), dtype=complex)
    c[:, [k_max - k, k_max + k]] = 1.0
    return ops.PeriodicField(c)


def test_field_validation():
    with pytest.raises(ValueError):
        ops.PeriodicField(np.zeros((2, 5), dtype=complex))
    with pytest.raises(ValueError):
        ops.PeriodicField(np.zeros((1, 4), dtype=complex))
    f = ops.PeriodicField(np.zeros(5, dtype=complex))
    assert f.n_components == 1 and f.k_max == 2


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf),
                                 complex(math.nan, 0)])
def test_field_rejects_non_finite_coefficients(bad):
    # [inf, 0, inf] was accepted: apply_operator then warned "invalid value encountered in
    # multiply" and returned nan, and sobolev_norm returned inf
    with pytest.raises(ValueError, match="every coefficient must be a finite double"):
        ops.PeriodicField([bad, 0, bad])
    vector = np.ones((3, 5), dtype=complex)
    vector[1, 4] = bad
    with pytest.raises(ValueError, match="every coefficient must be a finite double"):
        ops.PeriodicField(vector)


def test_coeff_indexing():
    c = np.arange(5, dtype=complex)
    f = ops.PeriodicField(c)
    assert f.coeffs[0, f.k_max + np.array([-2, 0, 2])].tolist() == [0, 2, 4]
    assert list(f.k_values) == [-2, -1, 0, 1, 2]


def test_sobolev_single_mode():
    c = np.zeros(5, dtype=complex)
    c[3] = 1.0  # k = +1 only
    f = ops.PeriodicField(c)
    assert ops.sobolev_norm(f, 0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert ops.sobolev_norm(f, 1) == pytest.approx(
        math.sqrt(2.0 * (1.0 + math.pi**2)), rel=1e-14)
    with pytest.raises(ValueError):
        ops.sobolev_norm(f, -1)


@pytest.mark.parametrize("s", [math.nan, math.inf, 10**400, -1, -math.inf],
                         ids=["nan", "inf", "int_10**400", "-1", "-inf"])
def test_sobolev_norm_needs_a_finite_s_of_at_least_0(s):
    # nan gave nan, inf and 10**400 gave inf or Python's "int too large to convert to float"
    with pytest.raises(ValueError, match="s must be finite and >= 0"):
        ops.sobolev_norm(ops.PeriodicField([1, 0, 1]), s)


@pytest.mark.parametrize("coeffs, s", [([1e308, 0, 1e308], 0), ([1e200, 0, 1e200], 2),
                                       ([0, 1, 0], 1e4)])
def test_sobolev_norm_past_the_double_range_is_an_overflow_error(coeffs, s):
    # |fhat_k|**2 and the weight overflowed with a RuntimeWarning, and the norm read inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match="overflows a double"):
            ops.sobolev_norm(ops.PeriodicField(coeffs), s)


def test_sobolev_norm_regularity_split():
    # the k^{-1.6} profile is H1 but not H2: H1 norm converges with K_max,
    # H2 norm diverges
    h1 = [ops.sobolev_norm(ops.make_test_field("h1_rough", K, seed=0), 1)
          for K in (64, 256, 1024)]
    h2 = [ops.sobolev_norm(ops.make_test_field("h1_rough", K, seed=0), 2)
          for K in (64, 256, 1024)]
    # convergent tail: increments shrink (k^{-1.2} tail, ratio 4^{-0.2} = 0.76)
    assert h1[2] - h1[1] < 0.8 * (h1[1] - h1[0])
    # divergent tail: increments grow
    assert h2[2] - h2[1] > 2.0 * (h2[1] - h2[0])


def test_apply_operator_single_mode():
    fam = EigenFamily("stokes", "tangential", "pde")
    eps, k = 0.01, 3
    f = _mode_field(8, k)
    g = ops.apply_operator(fam, f, eps)
    lam = eigenvalues(fam, eps, k)
    assert g.coeffs[0, k + g.k_max] == pytest.approx(lam * f.coeffs[0, k + f.k_max], rel=1e-14)
    assert g.coeffs[0, -k + g.k_max] == pytest.approx(lam * f.coeffs[0, -k + f.k_max], rel=1e-14)
    assert np.count_nonzero(g.coeffs) == 2


def test_apply_operator_vector_directions():
    # z component takes the tangential eigenvalue, x/y take the normal one
    fam = EigenFamily("stokes", "tangential", "pde")
    eps, k = 0.02, 4
    f = _mode_field(8, k, n_components=3)
    g = ops.apply_operator(fam, f, eps)
    lam_t = eigenvalues(EigenFamily("stokes", "tangential", "pde"), eps, k)
    lam_n = eigenvalues(EigenFamily("stokes", "normal", "pde"), eps, k)
    assert g.coeffs[2, k + g.k_max] == pytest.approx(lam_t * f.coeffs[2, k + f.k_max], rel=1e-14)
    assert g.coeffs[0, k + g.k_max] == pytest.approx(lam_n * f.coeffs[0, k + f.k_max], rel=1e-14)
    assert g.coeffs[1, k + g.k_max] == pytest.approx(lam_n * f.coeffs[1, k + f.k_max], rel=1e-14)


def test_mean_mode_error():
    c = np.zeros(5, dtype=complex)
    c[2] = 1.0
    f = ops.PeriodicField(c)
    with pytest.raises(ops.MeanModeError):
        ops.apply_operator(EigenFamily("laplace", "longitudinal", "pde"), f, 0.01)


def _component_families(setting, method, params, n_components):
    if n_components == 1:
        return [EigenFamily(setting, "longitudinal", method, **params)]
    normal = EigenFamily(setting, "normal", method, **params)
    return [normal, normal, EigenFamily(setting, "tangential", method, **params)]


@pytest.mark.parametrize("method,params", [
    ("pde", {}), ("sbt_truncated", {"cutoff": 30}), ("sbt_truncated", {"cutoff": 40}),
    ("delta_reg", {"delta": 2.0})])
@pytest.mark.parametrize("setting,n_components", [("laplace", 1), ("stokes", 3)])
def test_apply_operator_matches_signed_k_spectrum_bitwise(setting, n_components, method,
                                                          params):
    # reference: each component multiplied by its own family's spectrum, evaluated
    # over the full signed k range
    eps, k_max = 0.004, 40
    f = ops.make_test_field("h1_rough", k_max, seed=8, n_components=n_components)
    nonzero = f.k_values != 0
    k = f.k_values[nonzero]
    fams = _component_families(setting, method, params, n_components)
    expected = np.zeros_like(f.coeffs)
    for ci, fam in enumerate(fams):
        expected[ci, nonzero] = f.coeffs[ci, nonzero] * eigenvalues(fam, eps, k)
    got = ops.apply_operator(fams[-1], f, eps)
    assert np.array_equal(got.coeffs, expected)


@pytest.mark.parametrize("setting,direction,n_components",
                         [("laplace", "longitudinal", 1), ("stokes", "tangential", 3)])
def test_apply_operator_mean_column_is_positive_zero(monkeypatch, setting, direction,
                                                     n_components):
    # the output starts uninitialised (here: filled with nan) and only its k = 0
    # column is zeroed; that column must be +0j bit for bit, as np.zeros_like gave
    def nan_filled(a, *args, **kwargs):
        out = np.empty_like(a, *args, **kwargs)
        out.fill(np.nan)
        return out

    f = ops.make_test_field("h1_rough", 40, seed=3, n_components=n_components)
    monkeypatch.setattr(ops, "np", types.SimpleNamespace(**{**vars(np), "empty_like": nan_filled}))
    got = ops.apply_operator(EigenFamily(setting, direction, "pde"), f, 0.01).coeffs
    assert got.shape == f.coeffs.shape
    assert np.all(got[:, [f.k_max]].view(np.int64) == 0)
    assert not np.any(np.isnan(got))


def _parent_sobolev_norm(field, s):
    """sobolev_norm as written before it skipped the s = 0 weight and weighted in place."""
    w = (1.0 + (math.pi * field.k_values) ** 2) ** s
    return math.sqrt(2.0 * float(np.sum(w[None, :] * np.abs(field.coeffs) ** 2)))


@pytest.mark.parametrize("s", [0, 0.0, 1, 1.5, 2])
@pytest.mark.parametrize("seed", range(6))
def test_sobolev_norm_bits_match_the_weighted_formula(s, seed):
    rng = np.random.default_rng(seed)
    n, k_max = int(rng.choice((1, 3))), int(rng.integers(1, 300))
    scale = 10.0 ** rng.uniform(-100.0, 100.0, size=(n, 2 * k_max + 1))
    c = scale * (rng.standard_normal(scale.shape) + 1j * rng.standard_normal(scale.shape))
    field = ops.PeriodicField(c)
    got, want = ops.sobolev_norm(field, s), _parent_sobolev_norm(field, s)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_band_limited_inverse_exact():
    # truncated family agrees with untruncated sbt below the cutoff
    eps = 0.01
    f = ops.make_test_field("h2_rough", 8, seed=2)
    full = ops.apply_operator(EigenFamily("laplace", "longitudinal", "sbt"), f, eps)
    trunc = ops.apply_operator(
        EigenFamily("laplace", "longitudinal", "sbt_truncated", cutoff=20), f, eps)
    assert np.max(np.abs(full.coeffs - trunc.coeffs)) == 0.0


@pytest.mark.parametrize("k_max, message", [
    (math.nan, "k_max must be an integer, not nan"),
    (-math.inf, "k_max must be an integer, not -inf"),
    (math.inf, "k_max must be an integer, not inf"),
    (1e308, "k_max must be an integer, not 1e[+]308"),
    (16.5, "k_max must be an integer, not 16.5"),
    (np.float64(16.0), "k_max must be an integer, not ")])
def test_make_test_field_rejects_non_finite_k_max(k_max, message):
    # int(k_max) raised "cannot convert float NaN (infinity) to integer", and truncated
    # 16.5 to 16 without a word; the count gate refuses any float before its cap and floor
    with pytest.raises(ValueError, match=message):
        ops.make_test_field("h1_rough", k_max)


@pytest.mark.parametrize("n_components, message", [
    (2.5, "n_components must be an integer, not 2.5"), (4, "n_components = 4 exceeds 3"),
    (0, "n_components must be >= 1")])
def test_make_test_field_reads_its_component_count_through_the_gate(n_components, message):
    # 2.5 raised numpy's TypeError, and 4 filled a table of 4 rows before the field refused it
    with pytest.raises(ValueError, match=message):
        ops.make_test_field("h1_rough", 16, n_components=n_components)


def test_apply_operator_rejects_a_dynamics_state_before_any_spectrum(monkeypatch):
    # the whole spectrum was evaluated, then "a PeriodicField has 1 or 3 components" named
    # the output
    from slenderspec import dynamics

    monkeypatch.setattr(ops, "eigenvalues", lambda *_: pytest.fail("a spectrum was evaluated"))
    state = dynamics.single_mode_state(0.01, 8, 3)
    with pytest.raises(ValueError, match="apply_operator takes a scalar or vector field, "
                                         "not a DynamicsState of 2 components"):
        ops.apply_operator(EigenFamily("stokes", "normal", "pde"), state, 0.01)


def test_apply_operator_past_the_double_range_is_a_typed_error():
    # lambda * 1e308 overflowed with a RuntimeWarning into inf coefficients
    field = ops.PeriodicField([1e308, 0, -1e308])
    family = EigenFamily("laplace", "longitudinal", "pde")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match="lambda overflows a double"):
            ops.apply_operator(family, field, 0.3)


def test_make_test_field_deterministic():
    a = ops.make_test_field("h1_rough", 32, seed=9)
    b = ops.make_test_field("h1_rough", 32, seed=9)
    c = ops.make_test_field("h1_rough", 32, seed=10)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_make_test_field_real_and_mean_free():
    for profile in ("h1_rough", "h2_rough"):
        f = ops.make_test_field(profile, 16, seed=4, n_components=3)
        # real-valued: conjugate-symmetric coefficients, fhat_{-k} = conj(fhat_k)
        asym = np.max(np.abs(f.coeffs - np.conj(f.coeffs[:, ::-1])))
        assert f.mean_free and asym <= 1e-12 * np.max(np.abs(f.coeffs))
    with pytest.raises(ValueError):
        ops.make_test_field("h1_rough", 4)
    for profile in ("weird", "smooth", "single_mode"):
        with pytest.raises(ValueError, match="unknown profile"):
            ops.make_test_field(profile, 16)
    # checked before the coefficient table is allocated
    with pytest.raises(ValueError, match="exceeds K_MAX_LIMIT"):
        ops.make_test_field("h1_rough", ops.K_MAX_LIMIT + 1, n_components=3)


def test_self_adjointness():
    fam = EigenFamily("stokes", "normal", "pde")
    f = ops.make_test_field("h1_rough", 24, seed=6)
    g = ops.make_test_field("h2_rough", 24, seed=7)
    lf = ops.apply_operator(fam, f, 0.01)
    lg = ops.apply_operator(fam, g, 0.01)

    def l2_inner(u, v):  # <u, v>_{L^2} = 2 sum_k uhat_k conj(vhat_k)
        return 2.0 * complex(np.sum(u.coeffs * np.conj(v.coeffs)))

    assert l2_inner(lf, g) == pytest.approx(l2_inner(f, lg), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_property_operator_linearity(seed, a, b):
    fam = EigenFamily("laplace", "longitudinal", "pde")
    f = ops.make_test_field("h1_rough", 12, seed=seed)
    g = ops.make_test_field("h2_rough", 12, seed=seed + 1)
    combo = ops.PeriodicField(a * f.coeffs + b * g.coeffs)
    lhs = ops.apply_operator(fam, combo, 0.02)
    rhs = (a * ops.apply_operator(fam, f, 0.02).coeffs
           + b * ops.apply_operator(fam, g, 0.02).coeffs)
    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    assert np.max(np.abs(lhs.coeffs - rhs)) <= 1e-12 * scale
