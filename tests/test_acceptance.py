"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines when everything passes).  Each criterion prints a single
``[PASS]``/``[FAIL]`` line with its headline number before asserting.
"""

import functools
import time

import numpy as np

from slenderspec import bessel, checks, experiments, profiles, spectra
from slenderspec.spectra import Mode


def _report(n, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n:2d} ({label}): {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@functools.cache
def _suite(name):
    """One run of a ``checks`` suite, shared by the criteria that read it."""
    return checks.SUITES[name]()


def test_criterion_01_bessel_accuracy():
    t0 = time.perf_counter()
    ok, worst = checks.verify_bessel().checks["rel_error_vs_oracle"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(1, "bessel vs oracle", ok,
            f"max rel err {worst:.2e} (<= 1e-12), {elapsed:.1f}s (< 10s)")


def test_criterion_02_ratio_and_small_z_bounds():
    # below z ~ 1e-4 both sides of the small-z bounds round to the same
    # double, so the suite's small-z grid starts where the margin is resolvable
    res = _suite("inequalities").checks
    names = ("ratio_lower_bound", "ratio_upper_bound", "small_z_k0_bound", "small_z_zk1_bound")
    ok = all(res[n][0] for n in names)
    worst = min(res[n][1] for n in names)
    _report(2, "two-sided ratio + small-z bounds", ok, f"worst margin {worst:.3e} (> 0)")


def test_criterion_03_growth_bounds():
    ok, worst = _suite("inequalities").checks["growth_bounds_margin"]
    _report(3, "two-sided eigenvalue growth bounds", ok,
            f"worst margin {worst:.3e} over eps in {{1e-1..1e-4}}, k <= 1e4")


def test_criterion_04_comparison_constants():
    c = spectra.gronwall_constants()
    targets = {"c_B": 1.9339, "c_t": 0.90533, "c_n": 3.91618,
               "c_l2": 1.87531, "c_t2": 0.98352, "c_n2": 3.87653}
    gaps = {k: abs(c[k] - v) for k, v in targets.items()}
    a_gap = abs(bessel.ratio_A(1.0) - 0.6995)
    ok = max(gaps.values()) <= 5e-4 and a_gap <= 1e-3
    _report(4, "ODE comparison constants", ok,
            f"max gap {max(gaps.values()):.2e} (<= 5e-4), A(1) gap {a_gap:.2e} (<= 1e-3)")


def test_criterion_05_difference_bounds():
    res = checks.verify_difference_bounds()
    worst = min(v[1] for v in res.checks.values())
    _report(5, "eigenvalue-difference bounds in-window", res.ok,
            f"{len(res.checks)} window sweeps, worst margin {worst:.3e} (>= 0)")


def test_criterion_06_traction_oracle():
    worst_tr = 0.0
    worst_div = 0.0
    for direction in profiles.DIRECTIONS:
        for eps in (0.1, 0.01):
            for k in range(1, 21):
                mode = Mode(k, eps)
                _, _, gap = profiles.traction_vs_closed_form(direction, mode)
                worst_tr = max(worst_tr, gap)
                if direction != "laplace_scalar":
                    sol = profiles.solve_mode(direction, mode)
                    r = np.linspace(eps, min(8.0 * eps, 0.45), 12)
                    worst_div = max(worst_div, float(np.max(
                        profiles.incompressibility_residual(sol, r))))
    ok = worst_tr <= 1e-6 and worst_div <= 1e-6
    _report(6, "traction vs closed form", ok,
            f"traction gap {worst_tr:.2e}, divergence {worst_div:.2e} (both <= 1e-6)")


def test_criterion_07_convergence_rates():
    t0 = time.perf_counter()
    # each configuration is run in the eps-regime where its rate is asymptotic
    # (the truncated error needs small eps; the delta H1 tail saturates its
    # band limit below eps ~ 3e-3, and the delta H2 error needs smaller eps)
    delta_h1_grid = tuple(np.geomspace(1e-1, 10**-2.5, 6))
    delta_h2_grid = tuple(np.geomspace(10**-2.5, 1e-4, 6))
    configs = []
    for setting in ("laplace", "stokes"):
        configs.append((setting, "sbt_truncated", "H1", None, None, 1.0))
        configs.append((setting, "sbt_truncated", "H2", None, None, 2.0))
        configs.append((setting, "delta_reg", "H1", delta_h1_grid, 20_000, 1.0))
        configs.append((setting, "delta_reg", "H2", delta_h2_grid, 60_000, 2.0))
    slopes = []
    ok = True
    for setting, method, reg, grid, k_max, target in configs:
        for seed in experiments.DEFAULT_SEEDS:
            rep = experiments.convergence_study(
                setting, method, reg, eps_grid=grid, seed=seed,
                k_max=k_max or 20_000)
            slopes.append(rep.slope)
            ok = ok and abs(rep.slope - target) <= 0.15
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(7, "convergence slopes", ok,
            f"24 studies, slopes in [{min(slopes):.3f}, {max(slopes):.3f}], "
            f"{elapsed:.0f}s (< 120s)")


def test_criterion_08_wellposedness_surrogate():
    worst = 0.0
    for setting in ("laplace", "stokes"):
        grid = tuple(np.geomspace(1e-1, 1e-3, 6))
        _, vals = experiments.wellposedness_constant(setting, eps_grid=grid)
        worst = max(worst, max(vals) / min(vals))
    _report(8, "well-posedness constant bounded", worst < 2.0,
            f"max variation {worst:.3f}x (< 2x) over two decades of eps")


def test_criterion_09_optimal_delta_windows():
    # window containment with 0.01 slack at the sweep endpoints
    ok = True
    details = []
    for setting, ratios, lo, hi in (
        ("stokes", np.geomspace(0.05, 10.0, 11), 1.72, 2.5),
        ("laplace", np.geomspace(0.1, 10.0, 11), 1.1, 2.1),
    ):
        ds = [experiments.optimal_delta(setting, r) for r in ratios]
        inside = all(lo - 0.01 <= d <= hi + 0.01 for d in ds)
        ok = ok and inside
        details.append(f"{setting}: [{min(ds):.4f}, {max(ds):.4f}] in "
                       f"[{lo}, {hi}] +/- 0.01")
    _report(9, "optimal delta windows", ok, "; ".join(details))


def test_criterion_10_singular_integral_spectra():
    from numpy.polynomial import legendre

    worst_s = 0.0
    for k in range(1, 6):
        pk = legendre.Legendre.basis(k)
        res = spectra.s_transform_apply(pk, resolution=512)
        target = -spectra.legendre_mu(k) * pk(res.points)
        mask = np.abs(pk(res.points)) > 0.3
        worst_s = max(worst_s, float(np.max(
            np.abs(res.values[mask] - target[mask]) / np.abs(target[mask]))))
    worst_p = 0.0
    for k in range(1, 9):
        val = spectra.periodic_kernel_apply_mode(k, resolution=8192)
        mu = spectra.periodic_kernel_eigenvalue(k)
        worst_p = max(worst_p, abs(val.real + mu) / mu)
    _, _, per_err = spectra.periodization_identity_check()
    ok = worst_s < 0.01 and worst_p < 0.01 and per_err < 1e-8
    _report(10, "singular-integral spectra", ok,
            f"line-op err {worst_s:.2%}, periodic err {worst_p:.2%} (both < 1%), "
            f"periodization {per_err:.1e} (< 1e-8)")


def test_criterion_11_h_bound_and_spot_values():
    margin_ok, margin = _suite("inequalities").checks["h_bound_margin"]
    spots = _suite("appendixC").checks
    exact = spots["g2_spot_value"][0] and spots["g3_spot_value"][0]
    _report(11, "forcing bound + exact spot values", margin_ok and exact,
            f"|h| < 9z/8 margin {margin:.3e}, rational spot values "
            f"{'exact' if exact else 'WRONG'}")


def test_criterion_12_dynamics():
    res = _suite("dynamics")
    c = res.checks
    gap = max(v[1] for name, v in c.items() if name.startswith("empirical_dt_"))
    _report(12, "relaxation dynamics", res.ok,
            f"nu_1 = {c['nu_1_is_zero'][1]}, nu_k < 0 "
            f"{'ok' if c['nu_negative_k_ge_2'][0] else 'VIOLATED'}, "
            f"dt gap {gap:.2%} (< 10%), slopes {c['quartic_regime_slope'][1]:.2f} (4 +/- 0.3) "
            f"and {c['cubic_regime_slope'][1]:.2f} (3 +/- 0.3)")
