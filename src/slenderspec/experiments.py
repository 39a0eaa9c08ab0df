"""Desk-scale reproductions of the quantitative claims.

Three experiment families:

* convergence_study -- L2 error between the exact inverse map and an
  approximate one (spectral truncation or delta-regularization) on rough
  random inputs, swept over a geometric eps-grid and summarized by a
  log-log least-squares slope.  H1-regular inputs give rate ~eps, H2
  inputs ~eps^2.
* wellposedness_constant -- the combination ||L^{-1}u|| |log eps| / ||u||_H1,
  which stays bounded (varies by less than 2x over two decades of eps).
* optimal_delta / cdelta_profile -- the regularization parameter that
  minimizes the error constant C_delta, found as the root of a monotone
  scalar equation, landing in [1.72, 2.5] (Stokes) or [1.1, 2.1] (Laplace)
  for constant ratios spanning a couple of decades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _as_float
from .operators import (PeriodicField, _multiply, _sides, _spectra, apply_operator,
                        make_test_field, sobolev_norm)
from .spectra import _DIRECTIONS, K_MAX_LIMIT, EigenFamily, _setting, _wavenumber

DEFAULT_EPS_GRID = tuple(np.geomspace(10**-1.5, 1e-3, 6))
DEFAULT_SEEDS = (11, 23, 47)


@dataclass(frozen=True)
class ConvergenceReport:
    setting: str
    method: str
    regularity: str
    eps_grid: tuple
    errors: tuple
    slope: float
    residual: float
    seed: int


def _required_k_max(eps_min):
    """K_max that resolves the 1/eps truncation scale; at most K_MAX_LIMIT."""
    scale = _wavenumber(2.0, eps_min, finite=False)  # inf compares past the cap
    if scale > K_MAX_LIMIT - 8:
        raise ValueError(f"eps = {eps_min:g} needs k_max > K_MAX_LIMIT = {K_MAX_LIMIT}")
    return int(math.ceil(scale)) + 8


def _input_field(setting, regularity, k_max, seed):
    if regularity not in (rough := {"H1": ("h1_rough", 1), "H2": ("h2_rough", 2)}):
        raise ValueError(f"regularity must be 'H1' or 'H2', not {regularity!r}")
    profile, s = rough[regularity]
    u = make_test_field(profile, k_max, seed=seed, n_components=_setting(setting).n_components)
    return PeriodicField(np.divide(u.coeffs, sobolev_norm(u, s), out=u.coeffs))  # u is fresh


def _families(setting, method, delta):
    direction = _setting(setting).direction
    if method not in ("sbt_truncated", "delta_reg"):
        raise ValueError("method must be 'sbt_truncated' or 'delta_reg'")
    return (EigenFamily(setting, direction, "pde"),
            EigenFamily(setting, direction, method, delta=delta if method == "delta_reg" else None))


def approximation_error(setting, method, u, eps, delta=None):
    """||L_eps^{-1} u - approx^{-1} u||_{L^2} for one input field, from one full-size table:
    the exact map's output less c lambda_approx one side of a row at a time (``_sides``), bit for
    bit the two-field form."""
    pde, approx = _families(setting, method, delta)
    lams, diff = _spectra(approx, u, eps), apply_operator(pde, u, eps)  # diff is fresh
    half = np.empty_like(u.coeffs[0, :u.k_max])  # one side of a row; diff's k = 0 stays +0
    for row, lam, diff_row in zip(u.coeffs, lams, diff.coeffs):
        for at, lam_at in _sides(lam):
            np.subtract(diff_row[at], _multiply(row[at], lam_at, half), out=diff_row[at])
    del lams, half  # freed before the norm's temporaries
    return sobolev_norm(diff, 0)


def fit_slope(eps_grid, errors):
    """OLS slope of log(error) vs log(eps), plus RMS fit residual."""
    x, y = (np.asarray(_as_float(v, math.inf)) for v in (eps_grid, errors))
    if x.ndim != 1 or x.shape != y.shape or x.size < 2 or np.all(x == x[0]) or not np.all(
            (0.0 < x) & (x < math.inf) & (0.0 < y) & (y < math.inf)):
        raise ValueError("a log-log fit needs two or more distinct x, each x and y finite and > 0")
    x, y = np.log(x), np.log(y)
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def convergence_study(setting, method, regularity, eps_grid=None, seed=11,
                      delta=2.0, k_max=None):
    """Error-vs-eps sweep for one estimate configuration."""
    eps_grid = tuple(eps_grid) if eps_grid is not None else DEFAULT_EPS_GRID
    if len(eps_grid) < 4 or not all(a > b for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps_grid must be strictly decreasing with >= 4 points")
    if k_max is None:
        k_max = _required_k_max(min(eps_grid))
    if k_max < _wavenumber(2.0, min(eps_grid), finite=False):
        raise ValueError("k_max does not resolve the 1/eps truncation scale")
    u = _input_field(setting, regularity, k_max, seed)
    errors = tuple(approximation_error(setting, method, u, e, delta=delta)
                   for e in eps_grid)
    if any(err <= 0 for err in errors):
        raise ValueError("degenerate zero error; input field too sparse")
    slope, residual = fit_slope(eps_grid, errors)
    method_tag = method if method != "delta_reg" else f"delta_reg({delta})"
    return ConvergenceReport(setting, method_tag, regularity, eps_grid, errors,
                             slope, residual, seed)


def wellposedness_constant(setting, eps_grid=None, k_max=None):
    """Per-eps values of ||L_eps^{-1} u||_{L^2} |log eps| / ||u||_{H^1}, u the seed-11 H1 field."""
    eps_grid = tuple(eps_grid) if eps_grid is not None else DEFAULT_EPS_GRID
    if not eps_grid:
        raise ValueError("eps_grid must hold at least one eps")
    if k_max is None:
        k_max = _required_k_max(min(eps_grid))
    entry = _setting(setting)
    pde = EigenFamily(setting, entry.direction, "pde")
    u = make_test_field("h1_rough", k_max, seed=11, n_components=entry.n_components)
    h1 = sobolev_norm(u, 1)
    return eps_grid, [sobolev_norm(apply_operator(pde, u, eps), 0)
                      * abs(math.log(eps)) / h1 for eps in eps_grid]


# ---------------------------------------------------------------------------
# optimal regularization parameter
# ---------------------------------------------------------------------------

def _root_lhs(setting, delta):
    """Left side d^2 (c0 + m log d)^2 (3 + 2 log d) / m of the optimality equation."""
    _, c0, m = _DIRECTIONS[_setting(setting).direction].log_family
    return delta**2 * (c0 + m * math.log(delta)) ** 2 * (3.0 + 2.0 * math.log(delta)) / m


def _bisect(below, lo, hi):
    """Halve [lo, hi] until lo and hi are adjacent doubles, keeping below(lo) and
    not below(hi) for a ``below`` that holds up to one point and fails past it."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def optimal_delta(setting, ratio):
    """delta* solving the monotone optimality equation at C2/C1 = ratio."""
    lo = _setting(setting).threshold * (1.0 + 1e-12)
    floor, ratio = _root_lhs(setting, lo), _as_float(ratio, math.inf)
    if not floor < ratio < math.inf:
        raise ValueError(f"ratio must be finite and above {floor:.3g}")
    hi = 10.0
    while _root_lhs(setting, hi) < ratio:
        hi *= 2.0
    return _bisect(lambda d: _root_lhs(setting, d) < ratio, lo, hi)[0]  # increasing on [lo, hi]


def cdelta_profile(setting, delta_grid, c1, c2):
    """The error constant C_delta = C1 d^2 (1 + log d) + C2/(c0 + m log d) on a grid,
    with c0 + m log d the denominator of the setting's delta family; a ValueError where
    delta, C1 or C2 is not finite or C_delta leaves the double range."""
    d, c1, c2 = (_as_float(x, math.inf) for x in (delta_grid, c1, c2))
    threshold, direction, _ = _setting(setting)
    if np.any(d <= threshold):
        raise ValueError(f"{setting} requires delta > {threshold:.4f}")
    _, c0, m = _DIRECTIONS[direction].log_family
    with np.errstate(over="ignore", invalid="ignore"):  # nan and inf are rejected below
        out = c1 * d * d * (1.0 + np.log(d)) + c2 / (c0 + m * np.log(d))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"C_delta not finite at C1 = {c1:g}, C2 = {c2:g}, delta <= {np.max(d):g}")
    return out


def measured_delta_error(setting, eps, delta_grid):
    """Measured approximation error as a function of delta at fixed eps (H1 input, seed 11)."""
    u = _input_field(setting, "H1", _required_k_max(eps), 11)
    return [approximation_error(setting, "delta_reg", u, eps, delta=d)
            for d in delta_grid]
