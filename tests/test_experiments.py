import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slenderspec import bessel, dynamics
from slenderspec import experiments as xp
from slenderspec import operators as ops
from slenderspec.spectra import EigenFamily, eigenvalues
from slenderspec.tables import SQRT_E

# eps regimes where each configuration sits in its asymptotic window; the
# truncated method needs small eps while the delta H1 error needs eps large
# enough that the k^{-1.2} tail sums have not saturated their band limit
SBT_GRID = None  # module default
DELTA_H1_GRID = tuple(np.geomspace(1e-1, 10**-2.5, 6))
DELTA_H2_GRID = tuple(np.geomspace(10**-2.5, 1e-4, 6))


def test_single_mode_error_is_exact():
    eps, k = 0.01, 5
    c = np.zeros(33, dtype=complex)
    c[[16 - k, 16 + k]] = 1.0
    f = ops.PeriodicField(c)
    err = xp.approximation_error("laplace", "delta_reg", f, eps, delta=2.0)
    lam_pde = eigenvalues(EigenFamily("laplace", "longitudinal", "pde"), eps, k)
    lam_d = eigenvalues(EigenFamily("laplace", "longitudinal", "delta_reg", delta=2.0), eps, k)
    # two conjugate unit modes, L2 norm sqrt(2*2)
    assert err == pytest.approx(abs(lam_pde - lam_d) * 2.0, rel=1e-12)


@pytest.mark.parametrize("setting,n_components", [("laplace", 1), ("stokes", 3)])
def test_approximation_error_leaves_the_field_unchanged(setting, n_components):
    # c lambda_approx is subtracted row by row, into the fresh output of the exact map
    u = ops.make_test_field("h1_rough", 64, seed=5, n_components=n_components)
    before = u.coeffs.tobytes()
    errors = [xp.approximation_error(setting, method, u, 0.01, delta=delta)
              for method, delta in (("sbt_truncated", None), ("delta_reg", 2.0))]
    assert u.coeffs.tobytes() == before
    assert errors == [xp.approximation_error(setting, method, u, 0.01, delta=delta)
                      for method, delta in (("sbt_truncated", None), ("delta_reg", 2.0))]


@pytest.mark.parametrize("k_max", [64, bessel._KERNEL_BLOCK + 1000])  # the latter runs two blocks
@pytest.mark.parametrize("method,delta", [("sbt_truncated", None), ("delta_reg", 2.0)])
@pytest.mark.parametrize("setting", ["laplace", "stokes"])
def test_approximation_error_matches_the_two_field_form_bitwise(monkeypatch, setting, method,
                                                                delta, k_max):
    # one full-size output, from which c lambda_approx is subtracted row by row, against
    # each map into its own field and one subtract
    u = xp._input_field(setting, "H2", k_max, 11)
    pde, approx = xp._families(setting, method, delta)
    want = ops.PeriodicField(ops.apply_operator(pde, u, 0.01).coeffs
                             - ops.apply_operator(approx, u, 0.01).coeffs)
    seen, norm = [], xp.sobolev_norm
    monkeypatch.setattr(xp, "sobolev_norm", lambda field, s: seen.append(field) or norm(field, s))
    err = xp.approximation_error(setting, method, u, 0.01, delta=delta)
    (diff,) = seen
    assert diff.coeffs.tobytes() == want.coeffs.tobytes()
    assert diff.coeffs[:, k_max].tobytes() == np.zeros(u.n_components, complex).tobytes()  # +0j
    assert err.hex() == norm(want, 0).hex()


@pytest.mark.parametrize("setting,bound", [("stokes", 1.9), ("laplace", 2.6)])
def test_approximation_error_working_set(setting, bound):
    # the peak above entry, in units of the field's bytes: the two-field form with an unblocked
    # continued fraction read 2.84 (Stokes) and 6.37 (Laplace); one full-size output, 1.67
    # and 3.25; the whole Bessel kernel run in blocks, 1.67 (the norm's square sets it) and 2.32.
    # On a cold table cache, the worst case, the K1/K0 table the call keeps counts: 1.75 and
    # 2.32 with a half-row product buffer (a full-row one read 2.57 for Laplace)
    u = xp._input_field(setting, "H2", 60_000, 11)
    bessel._ratio_tables.clear()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        xp.approximation_error(setting, "delta_reg", u, 1e-4, delta=2.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * u.coeffs.nbytes, peak / u.coeffs.nbytes


@pytest.mark.parametrize("field,error,text", [
    (dynamics.single_mode_state(0.01, 8, 3), ValueError,
     "apply_operator takes a scalar or vector field, not a DynamicsState of 2 components"),
    (ops.PeriodicField([[1, 1, 1]] * 3), ops.MeanModeError, "k = 0 coefficient must vanish")])
def test_approximation_error_rejects_a_field_before_any_spectrum(monkeypatch, field, error, text):
    monkeypatch.setattr(ops, "eigenvalues", lambda *_: pytest.fail("a spectrum was evaluated"))
    with pytest.raises(error, match=text):
        xp.approximation_error("stokes", "delta_reg", field, 0.01, delta=2.0)


def test_approximation_error_takes_the_approximate_spectrum_first():
    # both maps fail here; the approximate spectrum's error comes before the exact map's
    # overflow, which the two-field form raised first
    u = ops.PeriodicField([1e308, 0, -1e308])
    with pytest.raises(ValueError, match=r"delta \* z = inf \* 0.314159 overflows a double"):
        xp.approximation_error("laplace", "delta_reg", u, 0.1, delta=10**400)
    with pytest.raises(OverflowError, match="a coefficient times lambda overflows a double"):
        ops.apply_operator(EigenFamily("laplace", "longitudinal", "pde"), u, 0.1)


def test_convergence_study_leaves_its_field_unchanged(monkeypatch):
    # every eps of the grid must see the same input field
    seen = []
    input_field = xp._input_field

    def recording(*args):
        u = input_field(*args)
        seen.append((u, u.coeffs.tobytes()))
        return u

    monkeypatch.setattr(xp, "_input_field", recording)
    rep = xp.convergence_study("stokes", "delta_reg", "H1", eps_grid=DELTA_H1_GRID, k_max=400)
    (u, before), = seen
    assert u.coeffs.tobytes() == before
    assert rep.errors == tuple(xp.approximation_error("stokes", "delta_reg", u, e, delta=2.0)
                               for e in DELTA_H1_GRID)


def test_fit_slope_recovers_powers():
    eps = np.geomspace(0.1, 1e-3, 6)
    slope, resid = xp.fit_slope(eps, 3.7 * eps**1.5)
    assert slope == pytest.approx(1.5, abs=1e-10)
    assert resid < 1e-10


@pytest.mark.parametrize("eps_grid, errors", [
    ([0.1], [0.2]), ([], []), ([0.1, 0.1, 0.1], [0.2, 0.3, 0.4]), ([0.1, 0.05], [0.2]),
    ([0.1, 0.05, 0.0], [1.0, 2.0, 3.0]), ([0.1, -0.05], [1.0, 2.0]),
    ([0.1, 0.05], [1.0, math.nan]), ([0.1, math.inf], [1.0, 2.0]), ([0.1, 0.05], [1.0, 0.0]),
    ([0.1, 10**400], [1.0, 2.0]), ([[0.1, 0.05]], [[1.0, 2.0]]),
])
def test_fit_slope_rejects_degenerate_input(eps_grid, errors):
    # one point returned 0.3495 after numpy's RankWarning, an empty one a raw TypeError
    with pytest.raises(ValueError, match="a log-log fit needs two or more distinct x"):
        xp.fit_slope(eps_grid, errors)


def test_stability_slope_rejects_degenerate_sweeps():
    from slenderspec import dynamics

    for k_max_list in ([8], [], [16, 16]):
        with pytest.raises(ValueError, match="a log-log fit needs two or more distinct x"):
            dynamics.stability_slope(0.01, k_max_list)
    assert xp.fit_slope([0.1, 0.05], [0.4, 0.1])[0] == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("call", [
    lambda: xp.convergence_study("laplace", "sbt_truncated", "H1", eps_grid=(0.4, 0.3, 0.2, 0.0)),
    lambda: xp.convergence_study("laplace", "sbt_truncated", "H1", eps_grid=(0.4, 0.3, 0.2, -1.0),
                                 k_max=64),
    lambda: xp.wellposedness_constant("laplace", eps_grid=(0.1, 0.0)),
    lambda: xp.measured_delta_error("laplace", 0.0, [2.0]),
    lambda: xp.measured_delta_error("stokes", math.nan, [2.0]),
], ids=["converge", "converge_k_max", "wellposedness", "measured", "measured_nan"])
def test_k_max_floor_checks_eps_first(call):
    # these raised ZeroDivisionError("float division by zero")
    with pytest.raises(ValueError, match=r"fiber radius must lie in \(0, 1/2\)"):
        call()


def test_optimal_delta_ratio_past_the_double_range():
    # 10**400 passed "finite" and returned the overflow point of the left side, 1.47e150
    with pytest.raises(ValueError, match="ratio must be finite"):
        xp.optimal_delta("laplace", 10**400)


@st.composite
def _sorted_distinct_triples(draw):
    """lo < threshold < hi in [-1e300, 1e300], drawn in order: no draw is filtered out."""
    threshold = draw(st.floats(-1e300, 1e300, exclude_min=True, exclude_max=True))
    return (draw(st.floats(-1e300, threshold, exclude_max=True)), threshold,
            draw(st.floats(threshold, 1e300, exclude_min=True)))


@settings(max_examples=300, deadline=None)
@given(_sorted_distinct_triples(), st.booleans())
def test_property_bisect_ends_on_adjacent_doubles(points, through_atan):
    # below holds up to the threshold and fails from it on: x < t, or atan x < atan t
    lo, threshold, hi = points
    below = ((lambda x: math.atan(x) < math.atan(threshold)) if through_atan
             else (lambda x: x < threshold))
    assume(below(lo) and not below(hi))  # atan rounds neighbouring points alike
    lo, hi = xp._bisect(below, lo, hi)
    assert np.nextafter(lo, np.inf) == hi
    assert below(lo) and not below(hi)


@pytest.mark.parametrize("setting", ["laplace", "stokes"])
@pytest.mark.parametrize("regularity,expected", [("H1", 1.0), ("H2", 2.0)])
def test_convergence_sbt(setting, regularity, expected):
    rep = xp.convergence_study(setting, "sbt_truncated", regularity, k_max=20_000)
    assert abs(rep.slope - expected) <= 0.5
    assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))


@pytest.mark.parametrize("setting", ["laplace", "stokes"])
def test_convergence_delta_h1(setting):
    rep = xp.convergence_study(setting, "delta_reg", "H1",
                               eps_grid=DELTA_H1_GRID, k_max=20_000)
    assert abs(rep.slope - 1.0) <= 0.5


@pytest.mark.parametrize("setting", ["laplace", "stokes"])
def test_convergence_delta_h2(setting):
    rep = xp.convergence_study(setting, "delta_reg", "H2",
                               eps_grid=DELTA_H2_GRID, k_max=60_000)
    assert abs(rep.slope - 2.0) <= 0.5


def test_convergence_seed_independent():
    # diagonal operators see only |u_k|, so the random phases cannot matter
    a = xp.convergence_study("laplace", "sbt_truncated", "H1", seed=11, k_max=2000,
                             eps_grid=np.geomspace(10**-1.5, 1e-2, 4))
    b = xp.convergence_study("laplace", "sbt_truncated", "H1", seed=47, k_max=2000,
                             eps_grid=np.geomspace(10**-1.5, 1e-2, 4))
    assert a.errors == pytest.approx(b.errors, rel=1e-12)


def test_h2_errors_below_h1():
    grid = tuple(np.geomspace(10**-1.5, 1e-2, 4))
    h1 = xp.convergence_study("laplace", "sbt_truncated", "H1", eps_grid=grid, k_max=2000)
    h2 = xp.convergence_study("laplace", "sbt_truncated", "H2", eps_grid=grid, k_max=2000)
    assert all(e2 < e1 for e1, e2 in zip(h1.errors, h2.errors))


def test_convergence_study_guards():
    with pytest.raises(ValueError):
        xp.convergence_study("laplace", "sbt_truncated", "H1", eps_grid=(0.1, 0.2, 0.05, 0.01))
    with pytest.raises(ValueError):
        xp.convergence_study("laplace", "sbt_truncated", "H1", eps_grid=(0.1, 0.05))
    with pytest.raises(ValueError):
        xp.convergence_study("laplace", "sbt_truncated", "H1", k_max=50)
    with pytest.raises(ValueError):
        xp.convergence_study("laplace", "midpoint", "H1")


def test_unknown_regularity_is_a_typed_error():
    # a raw KeyError: 'H3'
    with pytest.raises(ValueError, match="regularity must be 'H1' or 'H2', not 'H3'"):
        xp.convergence_study("laplace", "sbt_truncated", "H3")


def test_wellposedness_constant_needs_an_eps():
    # Python's "min() arg is an empty sequence"
    with pytest.raises(ValueError, match="eps_grid must hold at least one eps"):
        xp.wellposedness_constant("laplace", eps_grid=[])


@pytest.mark.parametrize("setting", ["laplace", "stokes"])
def test_wellposedness_bounded(setting):
    eps, vals = xp.wellposedness_constant(setting)
    assert max(vals) / min(vals) < 2.0


def test_optimal_delta_windows():
    # across two decades of constant ratios the optimum stays in a narrow band
    for ratio in np.geomspace(0.1, 10.0, 9):
        d = xp.optimal_delta("stokes", ratio)
        assert SQRT_E < d < 3.2
        d = xp.optimal_delta("laplace", ratio)
        assert 1.0 < d < 3.0


def test_optimal_delta_monotone_in_ratio():
    for setting in ("laplace", "stokes"):
        ds = [xp.optimal_delta(setting, r) for r in np.geomspace(0.05, 20.0, 12)]
        assert all(b > a for a, b in zip(ds, ds[1:]))
    with pytest.raises(ValueError):
        xp.optimal_delta("stokes", -1.0)


def test_optimal_delta_is_root():
    for setting, ratio in (("stokes", 2.0), ("laplace", 0.7)):
        d = xp.optimal_delta(setting, ratio)
        assert xp._root_lhs(setting, d) == pytest.approx(ratio, rel=1e-9)


def test_optimal_delta_brackets_root_to_one_ulp():
    for setting in ("laplace", "stokes"):
        for ratio in np.geomspace(1e-6, 1e6, 25):
            d = xp.optimal_delta(setting, ratio)
            assert xp._root_lhs(setting, d) < ratio <= xp._root_lhs(
                setting, np.nextafter(d, math.inf))
        for bad in (0.0, math.nan, math.inf, 1e-40):
            with pytest.raises(ValueError):
                xp.optimal_delta(setting, bad)


def test_optimal_delta_minimizes_cdelta():
    c1, c2 = 1.0, 2.0
    for setting, lo in (("stokes", SQRT_E), ("laplace", 1.0)):
        d_star = xp.optimal_delta(setting, c2 / c1)
        grid = np.linspace(lo + 1e-3, 6.0, 40_001)
        vals = xp.cdelta_profile(setting, grid, c1, c2)
        d_grid = grid[int(np.argmin(vals))]
        assert d_grid == pytest.approx(d_star, abs=2e-3)


def test_cdelta_profile_guards():
    with pytest.raises(ValueError):
        xp.cdelta_profile("stokes", [1.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        xp.cdelta_profile("laplace", [0.9], 1.0, 1.0)
    with pytest.raises(ValueError):
        xp.cdelta_profile("helmholtz", [2.0], 1.0, 1.0)


@pytest.mark.parametrize("grid, c1, c2", [
    ([2.0, math.nan], 1.0, 2.0), ([2.0, math.inf], 1.0, 2.0), ([2.0], math.inf, 2.0),
    ([2.0], 1.0, math.nan), ([2.0], -math.inf, 2.0), ([1e308], 1.0, 2.0), ([2.0, 1e200], 1.0, 2.0),
    ([10**400], 1.0, 2.0), ([2.0], 10**400, 2.0), ([2.0], 1e308, 1e308),
])
def test_cdelta_profile_domain(grid, c1, c2):
    # nan and inf rows came back silently, 1e308 overflowed with a RuntimeWarning, and
    # 10**400 raised OverflowError("int too large to convert to float")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="C_delta not finite at C1 = "):
            xp.cdelta_profile("laplace", grid, c1, c2)


def test_cdelta_profile_scalar_and_int_inputs():
    assert xp.cdelta_profile("stokes", 2.0, 1, 3) == xp.cdelta_profile("stokes", [2.0], 1.0, 3.0)[0]


def test_measured_error_has_interior_minimum():
    # the measured delta-error turns over inside (threshold, 4]
    grid = np.linspace(SQRT_E + 0.05, 4.0, 25)
    errs = xp.measured_delta_error("stokes", 0.01, grid)
    i = int(np.argmin(errs))
    assert 0 < i < len(grid) - 1
