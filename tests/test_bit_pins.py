"""Bit pins for the values the per-direction and per-setting tables feed.

Each expected value is the float's hex form, so a table entry that differs
from the constant it replaced, or an expression re-associated on the way,
fails here even where the check margins would hide it.
"""

import math

import pytest

from slenderspec import experiments as xp
from slenderspec import profiles, spectra
from slenderspec.spectra import Mode

GRONWALL = {
    "c_B": "0x1.ef13f9ed25b87p+0", "c_t": "0x1.cf87030b60d72p-1",
    "c_n": "0x1.f5457fa17d73ap+1", "c_l2": "0x1.e0147d361fa30p+0",
    "c_t2": "0x1.f78f552e0c7a2p-1", "c_n2": "0x1.f03208bd1941cp+1",
}

#: (setting, direction, method2, delta) -> paper_bound at eps = 1e-2, k = 5
PAPER_BOUND = {
    ("laplace", "longitudinal", "sbt", None): "0x1.2c349dfcbb65bp+1",
    ("laplace", "longitudinal", "delta_reg", 2.0): "0x1.58635c39f1e39p+5",
    ("stokes", "tangential", "sbt", None): "0x1.a33622313c6dap+1",
    ("stokes", "tangential", "delta_reg", 2.0): "0x1.7e297f184e70cp+9",
    ("stokes", "normal", "sbt", None): "0x1.0a59862f6dd4fp+2",
    ("stokes", "normal", "delta_reg", 2.0): "0x1.5424b54b53360p+7",
}

#: setting -> (smallest ratio above the floor, optimal_delta there)
OPTIMAL_DELTA_EDGE = {
    "stokes": ("0x1.a4b5625517189p-76", "0x1.a61298e1e239ep+0"),
    "laplace": ("0x1.d04f600003531p-79", "0x1.0000000001198p+0"),
}

#: direction -> boundary_residuals at Mode(-40, 0.031)
BOUNDARY = {
    "laplace_scalar": {"U": "0x1.0000000000000p-52"},
    "tangential": {"U_r": "0x0.0p+0", "U_z": "0x1.0000000000000p-51"},
    "normal": {"U_minus": "0x1.0000000000000p-51", "U_plus": "0x1.0000000000000p-52",
               "U_z": "0x0.0p+0"},
}

#: setting -> (cdelta_profile, wellposedness_constant, measured_delta_error) rows
EXPERIMENTS = {
    "laplace": (["0x1.1b4f25224a367p+2", "0x1.5cb1ca500ba7cp+2"],
                ["0x1.23f7a0a240df3p+1", "0x1.f8e92e11dde0bp+0"],
                ["0x1.3c3008ea3106ap-4", "0x1.096993d2aa3cfp-3"]),
    "stokes": (["0x1.f14b1a624991ap+2", "0x1.68a1fe9933d42p+2"],
               ["0x1.c3f9cae5682b3p+1", "0x1.851f5a8ca264cp+1"],
               ["0x1.5af52e2f99980p-3", "0x1.b54a8217770eep-3"]),
}


def _hex(values):
    return [float(v).hex() for v in values]


def test_gronwall_constants_bits():
    assert {k: v.hex() for k, v in spectra.gronwall_constants().items()} == GRONWALL


@pytest.mark.parametrize("case", PAPER_BOUND)
def test_difference_bound_bits(case):
    setting, direction, method2, delta = case
    margin = spectra.eigen_difference_margin(setting, direction, 1e-2, 5, method2, delta=delta)
    assert margin.paper_bound.hex() == PAPER_BOUND[case]


@pytest.mark.parametrize("setting", OPTIMAL_DELTA_EDGE)
def test_optimal_delta_lower_edge_bits(setting):
    ratio, expected = OPTIMAL_DELTA_EDGE[setting]
    ratio = float.fromhex(ratio)
    assert xp.optimal_delta(setting, ratio).hex() == expected
    with pytest.raises(ValueError):
        xp.optimal_delta(setting, math.nextafter(ratio, 0.0))


@pytest.mark.parametrize("direction", BOUNDARY)
def test_boundary_residual_bits(direction):
    sol = profiles.solve_mode(direction, Mode(-40, 0.031))
    residuals = profiles.boundary_residuals(sol)
    assert list(residuals) == list(BOUNDARY[direction])
    assert {k: v.hex() for k, v in residuals.items()} == BOUNDARY[direction]


@pytest.mark.parametrize("setting", EXPERIMENTS)
def test_experiment_bits(setting):
    cdelta, wellposed, measured = EXPERIMENTS[setting]
    assert _hex(xp.cdelta_profile(setting, [1.9, 2.5], 0.3, 1.7)) == cdelta
    _, values = xp.wellposedness_constant(setting, eps_grid=(0.1, 0.05), k_max=64)
    assert _hex(values) == wellposed
    assert _hex(xp.measured_delta_error(setting, 0.05, [2.0, 3.0])) == measured
