"""Bit pins for the values the per-direction and per-setting tables feed.

Each expected value is the float's hex form, so a table entry that differs
from the constant it replaced, or an expression re-associated on the way,
fails here even where the check margins would hide it.  Values on whole
grids are pinned by the sha256 of their float64 bytes (of their ``str`` for
exact ``Fraction`` results).
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from slenderspec import bessel, dynamics, operators, profiles, spectra
from slenderspec import experiments as xp
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


#: periodization_identity_check() at its default tol: (value, closed form, abs error)
PERIODIZATION = ["0x1.eeb95b094c18fp-2", "0x1.eeb95b094c193p-2", "0x1.0000000000000p-52"]


def _hex(values):
    return [float(v).hex() for v in values]


def test_gronwall_constants_bits():
    assert {k: v.hex() for k, v in spectra.gronwall_constants().items()} == GRONWALL


def test_periodization_identity_bits():
    assert _hex(spectra.periodization_identity_check()) == PERIODIZATION


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


def _digest(values):
    if all(isinstance(v, Fraction) for v in values):
        data = ",".join(map(str, values)).encode()
    else:
        data = np.asarray(values, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


#: the ratio grid up to just below the kernel's upper edge, and every 500th
#: point of it as scalar calls (the Python-float loops)
_RATIO_Z = np.geomspace(1e-300, 8e307, 20000)
#: the verify suite's grid for the K1/K0 bounds
_BOUNDS_Z = np.geomspace(1e-6, 100.0, 100_000)
_OPTIMAL_RATIOS = np.geomspace(1e-20, 1e4, 300)
_G2_EXACT = (Fraction(3, 2), 2, Fraction(5, 2), 3, 10)
_G3_EXACT = (Fraction(1), 1, Fraction(3, 2), 2, 7)


def _delta_grid(setting):
    return np.geomspace(spectra._SETTINGS[setting].threshold * (1.0 + 1e-9), 50.0, 1000)


def _traction_modes(bands=35, small=15):
    """Seeded (direction, Mode) pairs with z in (0, 700] and eps log-uniform in
    (1e-6, 1/2): per direction one z in each of ``bands`` equal-width bands, as
    the benchmark's traction sweep draws them, and ``small`` z log-uniform in
    (1e-4, 2), the ascending series and the window where sbt_truncated keeps a mode."""
    rng = np.random.default_rng(15)
    out = []
    for direction in profiles.DIRECTIONS:
        zs = [(i + rng.uniform()) * 700.0 / bands for i in range(bands)]
        zs += list(np.exp(rng.uniform(math.log(1e-4), math.log(2.0), small)))
        for z in zs:
            eps = math.exp(rng.uniform(math.log(1e-6), math.log(0.5)))
            k = min(max(1, round(z / (math.pi * eps))), math.floor(700.0 / (math.pi * eps)))
            out.append((direction, Mode(k * int(rng.choice((-1, 1))), eps)))
    return out


_TRACTION_MODES = _traction_modes()

#: every eigenvalue family of each direction, as the traction modes evaluate it
_SCALAR_FAMILIES = {
    (method, direction): spectra.EigenFamily(entry.setting, direction, method,
                                             delta=2.0 if method == "delta_reg" else None)
    for method in ("pde", "sbt", "sbt_truncated", "delta_reg")
    for direction, entry in spectra._DIRECTIONS.items()
}


def _scalar_eigenvalues(family):
    values = [spectra.eigenvalue(family, mode) for _, mode in _TRACTION_MODES]
    assert all(type(v) is float for v in values)
    return values


def _incompressibility_06():
    """incompressibility_residual on the criterion-06 grid."""
    out = []
    for direction in ("tangential", "normal"):
        for eps in (0.1, 0.01):
            for k in range(1, 21):
                sol = profiles.solve_mode(direction, Mode(k, eps))
                out.append(profiles.incompressibility_residual(
                    sol, np.linspace(eps, min(8.0 * eps, 0.45), 12)))
    return np.concatenate(out)


#: the stability study's grid: K_max from 8 to K_MAX_LIMIT, with both sides of
#: k = 9749, the first k where numpy's float64 k**4 differs from Python's
_STABILITY_EPS = (1e-6, 1e-3, 1e-2, 0.1, 0.49)
_STABILITY_K = [int(k) for k in np.unique(np.concatenate([
    np.geomspace(8, 2**20, 60).round().astype(int), [9, 10, 9749, 9750, 9751, 2**20 - 1]]))]


def _stability():
    """Sweep rows, both max_stable_dt values and stability_slope, per eps."""
    out = []
    for eps in _STABILITY_EPS:
        out += [v for row in dynamics.stability_sweep(eps, _STABILITY_K) for v in row]
        out += [dynamics.max_stable_dt(eps, k, empirical=e)
                for k in _STABILITY_K for e in (False, True)]
        out.append(dynamics.stability_slope(eps, _STABILITY_K))
    return out


#: criterion 07's eight studies: its eps grids and K_max, one seed
_DELTA_H1_GRID = tuple(np.geomspace(1e-1, 10**-2.5, 6))
_DELTA_H2_GRID = tuple(np.geomspace(10**-2.5, 1e-4, 6))
_CONVERGENCE_07 = [(setting, method, reg, grid, k_max)
                   for setting in ("laplace", "stokes")
                   for method, reg, grid, k_max in (
                       ("sbt_truncated", "H1", None, 20_000),
                       ("sbt_truncated", "H2", None, 20_000),
                       ("delta_reg", "H1", _DELTA_H1_GRID, 20_000),
                       ("delta_reg", "H2", _DELTA_H2_GRID, 60_000))]


def _convergence_07():
    """errors and slope of each criterion-07 study at seed 11."""
    out = []
    for setting, method, reg, grid, k_max in _CONVERGENCE_07:
        rep = xp.convergence_study(setting, method, reg, eps_grid=grid, seed=11, k_max=k_max)
        out += [*rep.errors, rep.slope]
    return out


#: make_test_field's profiles on one and three components at each (K_max, seed)
_FIELD_PROFILES = ("h1_rough", "h2_rough")
_FIELD_SIZES = ((8, 0), (64, 5), (20000, 11), (60000, 47))


def _test_fields():
    """Every field's coefficients, concatenated and read as float64 pairs, so the
    digest covers the sign of each zero."""
    fields = [operators.make_test_field(profile, k_max, seed, n)
              for profile in _FIELD_PROFILES for n in (1, 3) for k_max, seed in _FIELD_SIZES]
    return np.concatenate([field.coeffs.ravel() for field in fields]).view(float)


#: name -> the values on one grid
GRIDS = {
    "ratio_A": lambda: bessel.ratio_A(_RATIO_Z),
    "ratio_B": lambda: bessel.ratio_B(_RATIO_Z),
    "ratio_A_scalar": lambda: [bessel.ratio_A(float(z)) for z in _RATIO_Z[::500]],
    "ratio_B_scalar": lambda: [bessel.ratio_B(float(z)) for z in _RATIO_Z[::500]],
    "ratio_bounds": lambda: np.concatenate(bessel.check_ratio_bounds(_BOUNDS_Z)),
    **{f"optimal_delta_{s}": (lambda s=s: [xp.optimal_delta(s, r) for r in _OPTIMAL_RATIOS])
       for s in spectra._SETTINGS},
    **{f"root_lhs_{s}": (lambda s=s: [xp._root_lhs(s, d) for d in _delta_grid(s)])
       for s in spectra._SETTINGS},
    **{f"cdelta_{s}": (lambda s=s: xp.cdelta_profile(s, _delta_grid(s), 0.3, 1.7))
       for s in spectra._SETTINGS},
    "g2_float": lambda: [spectra.g2_polynomial(z) for z in np.linspace(1.5, 400.0, 500)],
    "g3_float": lambda: [spectra.g3_polynomial(z) for z in np.linspace(1.0, 400.0, 500)],
    "g2_exact": lambda: [spectra.g2_polynomial(z) for z in _G2_EXACT],
    "g3_exact": lambda: [spectra.g3_polynomial(z) for z in _G3_EXACT],
    "oracle": lambda: bessel.oracle_bessel_k((0, 1, 2), np.geomspace(1e-6, 90.0, 200)),
    "traction_sweep": lambda: [v for d, m in _TRACTION_MODES
                               for v in profiles.traction_vs_closed_form(d, m)],
    **{f"eigenvalue_{method}_{direction}": (lambda f=f: _scalar_eigenvalues(f))
       for (method, direction), f in _SCALAR_FAMILIES.items()},
    "incompressibility_06": _incompressibility_06,
    "stability": _stability,
    "convergence_07": _convergence_07,
    "test_fields": _test_fields,
}

#: name -> sha256 of the grid's values, recorded at e2788c0, before the K1/K0
#: ratio, the delta formulas and the Appendix C envelopes had one code path each
GRID_DIGESTS = {
    "ratio_A": "d4a64453e647b35d90b39f107844849a9e1be788c01b58260dd1fd6db95d2151",
    "ratio_B": "252c60429a3a425102567e8751ea244b6ee084a799ebf3b6d265b01756b6ca35",
    "ratio_A_scalar": "c77f6392ed853b7d5780da92216eee07cb67934930e7635f89c46d7f4bc565b0",
    "ratio_B_scalar": "819208e4a3549edeb7c9554a082cdceb07db1a06c1d7fd7b8742142a89bf2c39",
    "ratio_bounds": "b324d9b1857768e41796995de819918fee2fd54fc7ef6c9bf4b9f06ee692cd60",
    "optimal_delta_laplace": "ea5f60698cbc5fe6ce11b4ed1a6b4bad3acce19392cbb4d1de497edbb6dbe065",
    "optimal_delta_stokes": "cda650f6cd90c4e0a118c63205920d5f401c9f831eb2daa594e81c1602c4e3e9",
    "root_lhs_laplace": "27f45adaf2befc717f0db26a3ebb0ee35dac24aa0c874049c672c24cb9d52e6c",
    "root_lhs_stokes": "fe937cc3ebdb5d447416e8604ec0dfb3b23759b16b4ea7157e5b2e00286c5fa4",
    "cdelta_laplace": "23ffc8841a939de0e4b80fe15585739ee62d02a18a203abe0a1e69103f357b96",
    "cdelta_stokes": "4de4a95a50bc5a72b4f3547a8326416be6b6bbbb7579f70b8e0487edbec967dd",
    "g2_float": "d89d8d4d5dd3229ee7129c2bd5981255227f42cbe101e3d8388d1562654e26c0",
    "g3_float": "c5c4bf36ffd5b62173497b482e1683f48f2b985f17b8c7183bf03ce2e091cca8",
    "g2_exact": "c455a00299967d5958c3c3e42074883f117d26e70468608eeb3c2383e0861d80",
    "g3_exact": "673d149f230469a9d4d3f55a918c393dc697f98e1d458b340c53503625ef8198",
    # recorded at 0019fa8, before the oracle's chunk buffers and lower edges
    "oracle": "bacdac6e665ee77467441093485a78934ca65d8362da895503b0d69b686b490d",
    # re-recorded when the traction route took exact boundary derivatives; recorded at
    # 28bab26, it read 6b4aebda305695c3f4f00bb092b98e6a591381f0d0f8ff07b49b4d27ca25802a to 82b29db
    "traction_sweep": "6511107fa8d49ae2d38f4cb81da177947dfb1aff89dfcc71b66e63ad77d11e5f",
    "eigenvalue_pde_longitudinal": "e7210e267dbf4ac6f7146a285d567d382a65b64a0d9be5b8aa8316f64b060950",
    "eigenvalue_pde_tangential": "245a319b38c04ea9eb4a2adf09424891a3f05c5f059e8777fa3f202bd2fc9ae9",
    "eigenvalue_pde_normal": "765fd86a2724b7e0215174df93208f3616d0fa9cf48cb6e01ebcb365d9744122",
    "eigenvalue_sbt_longitudinal": "dfc499b4be8bc3f43b8b2d0c771508ac065b4764c4875c2610db16715949845a",
    "eigenvalue_sbt_tangential": "6f22e274e021d56a2ad62c17612d304b2999cc2364f84a6f50f991abb277393a",
    "eigenvalue_sbt_normal": "7558f0a93ad25b8d94e79c736bc9bc27eec42fb4613f727d5fa3f9073793abe3",
    "eigenvalue_sbt_truncated_longitudinal":
        "7c015ab7f6f6d2b9d35ec3e9da34703364f588496f96c058da682a2bfcfbfed5",
    "eigenvalue_sbt_truncated_tangential":
        "c5b8c68c14e82690ab42ec771aa297ca6799ca604a6ca9b2400f7b934080c3a0",
    "eigenvalue_sbt_truncated_normal":
        "0e58eafbf36ee1bcb7270409c160fa2a53caa56fae6add95a430320f789c8c82",
    "eigenvalue_delta_reg_longitudinal":
        "9758bb5aca483ba15ff480525dd5b40fea96678f651c9c3e9362cedd38ad4920",
    "eigenvalue_delta_reg_tangential":
        "69e636ceb9cf6e3bdc612ec28d5950f45bedd13b5ce116e7ac818660419c58ad",
    "eigenvalue_delta_reg_normal": "6ca625036d862c7e02b2c168f5a34cfffda791030378efccdc8cc061944e938f",
    # re-recorded when the residuals took exact derivatives (max 1.68e-8 -> 1.15e-14); it
    # read f7d099b5fb1b37c34f168a2ecaa4000af7aa433eb68dbf3f7aaa62936ae2872a to f80c207
    "incompressibility_06": "6dd1812f131cb4e8ee89d71497f397e00be2ceee332ea450ad5c95706caa4507",
    # recorded at 344ca72, before the stability code took both steps from one rate
    "stability": "61627b348b2ca7ede91af64745a949e73889e25f1a845560618d4daa2029cd5e",
    # recorded at b2973d3, before the studies' operators and norms stopped making
    # full-size temporaries and the K1/K0 route stopped dividing by a K0 of ones
    "convergence_07": "c9fc4c30b04c8897a41379aed09b76b91997d5f89b428a5041075e274da6bc0b",
    # recorded at fcfb269 over the h1/h2 fields only, when the smooth and single_mode
    # profiles were retired; it read 53244ce6bb2fa2479ac0f2221700a8dc97bc83ee639dab184e8540564f7fbcf4
    # over all four profiles from 933f8ba to fcfb269
    "test_fields": "03cd310f0bce47ec7a092c42517c33b5fbf134997208274f47f2968f51425bf1",
}


@pytest.mark.parametrize("name", GRIDS)
def test_grid_bits(name):
    values = GRIDS[name]()
    if name.endswith("_exact"):
        assert all(type(v) is Fraction for v in values)
    elif name.startswith("g"):
        assert all(type(v) is float for v in values)
    assert _digest(values) == GRID_DIGESTS[name]
