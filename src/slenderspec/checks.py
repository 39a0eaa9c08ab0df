"""Verification suites: every inequality the toolkit claims, swept hard.

Each suite returns a :class:`SuiteResult` whose ``checks`` map names to
(ok, worst_margin_or_error) pairs; the CLI ``verify`` subcommand prints
them and exits nonzero if anything fails.  The same suites back the
acceptance tests, so a green ``verify all`` is the library's own
statement of health.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bessel, dynamics, spectra, tables


@dataclass
class SuiteResult:
    name: str
    checks: dict = field(default_factory=dict)

    def add(self, check, ok, detail):
        self.checks[check] = (bool(ok), float(detail))

    @property
    def ok(self):
        return all(v[0] for v in self.checks.values())


def verify_bessel():
    """Implementation vs quadrature oracle, recurrence, crossover continuity."""
    res = SuiteResult("bessel")
    z = np.geomspace(1e-8, 100.0, 10_000)
    mine = bessel.bessel_k((0, 1, 2), z)
    ref = bessel.oracle_bessel_k((0, 1, 2), z)
    worst = float(np.max(np.abs(mine - ref) / ref))
    res.add("rel_error_vs_oracle", worst <= 1e-12, worst)

    k0, k1, k2 = mine
    rec = float(np.max(np.abs(k2 - k0 - 2.0 * k1 / z) / k2))
    res.add("recurrence_residual", rec <= 1e-12, rec)

    zc = bessel.SERIES_CUTOFF
    left, right = bessel.bessel_k((0, 1, 2), np.array([zc, np.nextafter(zc, 10.0)])).T
    gap = float(np.max(np.abs(left - right) / left))
    res.add("crossover_continuity", gap <= 1e-12, gap)

    mono = float(np.max(np.diff(k0)))
    res.add("monotone_decreasing", mono < 0.0, mono)
    return res


def verify_oracle():
    """Self-consistency of the quadrature oracle."""
    res = SuiteResult("oracle")
    z = np.geomspace(1e-6, 90.0, 200)
    k0, k1, k2 = bessel.oracle_bessel_k((0, 1, 2), z)
    res.add("positivity", bool(np.all(k0 > 0) and np.all(k1 > 0)), float(min(k0.min(), k1.min())))
    rec = float(np.max(np.abs(k2 - k0 - 2.0 * k1 / z) / k2))
    res.add("recurrence_residual", rec <= 1e-13, rec)
    far = bessel.oracle_bessel_k(0, 50.0)
    res.add("deep_decay_finite", 0.0 < far < 1e-20, far)
    return res


def verify_inequalities():
    """Ratio bounds, small-z bounds, eigenvalue growth bounds, |h| < 9z/8."""
    res = SuiteResult("inequalities")
    grid = np.geomspace(1e-6, 100.0, 100_000)
    lower, upper = bessel.check_ratio_bounds(grid)
    res.add("ratio_lower_bound", np.all(lower > 0), float(lower.min()))
    res.add("ratio_upper_bound", np.all(upper > 0), float(upper.min()))

    zs = np.linspace(1e-4, 1.0, 10_000, endpoint=False)
    m0, m1 = bessel.check_small_z_bounds(zs)
    res.add("small_z_k0_bound", np.all(m0 >= 0), float(m0.min()))
    res.add("small_z_zk1_bound", np.all(m1 >= 0), float(m1.min()))

    ks = np.arange(1, 10_001)
    worst = math.inf
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        base = math.pi**2 * eps * ks
        for direction, entry in spectra._DIRECTIONS.items():
            lam = spectra.eigenvalues(spectra.pde_family(direction), eps, ks)
            lo, width = entry.growth[0] * base, entry.growth[1]
            worst = min(worst, float(np.min(lam - lo)), float(np.min(lo + width - lam)))
    res.add("growth_bounds_margin", worst > 0, worst)

    z = np.linspace(2e-3, 20.0, 10_000)
    hmargin = float(np.min(1.125 * z - np.abs(spectra.h_function(z))))
    res.add("h_bound_margin", hmargin > 0, hmargin)
    return res


def verify_appendix_c():
    """9 D3 +/- N3 positivity and the exact rational spot values."""
    res = SuiteResult("appendixC")
    z = np.geomspace(1e-3, 50.0, 10_000)
    m_minus, m_plus = spectra.appendix_c_margins(z)
    res.add("nine_d3_minus_n3", float(m_minus.min()) > 0, float(m_minus.min()))
    res.add("nine_d3_plus_n3", float(m_plus.min()) > 0, float(m_plus.min()))
    g2 = spectra.g2_polynomial(Fraction(3, 2))
    res.add("g2_spot_value", g2 == Fraction(646907, 163840), float(g2 - Fraction(646907, 163840)))
    g3 = spectra.g3_polynomial(Fraction(1))
    res.add("g3_spot_value", g3 == Fraction(3881062, 455625), float(g3 - Fraction(3881062, 455625)))
    return res


def verify_difference_bounds():
    """Every eigenvalue-difference bound over its full validity window."""
    res = SuiteResult("difference_bounds")
    for direction, entry in spectra._DIRECTIONS.items():
        setting = entry.setting
        for eps in (1e-1, 1e-2, 1e-3):
            for method2, delta, label in [("sbt", None, "sbt")] + [
                    ("delta_reg", d, f"delta{d:g}") for d in (1.7, 2.0, 3.0)]:
                kmax = int(spectra._difference_window(direction, method2, eps))
                if kmax < 1:  # at eps = 0.1 some windows admit no k at all
                    continue
                worst = spectra.eigen_difference_margin(
                    setting, direction, eps, np.arange(1, kmax + 1), method2,
                    delta=delta).margin.min()
                res.add(f"{label}_{setting}_{direction}_eps{eps:g}", worst >= 0, worst)
    return res


def verify_dynamics():
    """Sign structure of nu and the explicit-step stability scalings."""
    res = SuiteResult("dynamics")
    res.add("nu_1_is_zero", dynamics.nu(1e-3, 1) == 0.0, dynamics.nu(1e-3, 1))
    ks = np.arange(2, 10_001)
    worst = max(float(np.max(dynamics.nu(e, ks))) for e in (1e-1, 1e-2, 1e-3))
    res.add("nu_negative_k_ge_2", worst < 0, worst)
    for eps, k_max in ((1e-2, 32), (1e-1, 512)):
        *_, a, e = dynamics.stability_sweep(eps, [k_max])[0]
        res.add(f"empirical_dt_eps{eps:g}_K{k_max}", abs(e - a) / a < 0.1, abs(e - a) / a)
    s4 = dynamics.stability_slope(1e-3, [8, 16, 32, 64, 128])
    res.add("quartic_regime_slope", abs(s4 - 4.0) <= 0.3, s4)
    s3 = dynamics.stability_slope(1e-1, [512, 1024, 2048, 4096])
    res.add("cubic_regime_slope", abs(s3 - 3.0) <= 0.3, s3)
    return res


SUITES = dict(zip(tables.SUITE_NAMES, (
    verify_bessel,
    verify_oracle,
    verify_inequalities,
    verify_appendix_c,
    verify_difference_bounds,
    verify_dynamics,
)))
