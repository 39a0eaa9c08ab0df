import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slenderspec
from slenderspec import checks, dynamics, experiments, profiles, spectra, tables
from slenderspec.cli import main
from slenderspec.spectra import EigenFamily, Mode, eigenvalues
from slenderspec.tables import SQRT_E


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_csv_contract(capsys):
    code, out = run(capsys, "spectrum", "--setting", "laplace",
                    "--direction", "longitudinal", "--eps", "0.01", "--k", "1..5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "setting,direction,method,delta,eps,k,lambda"
    # three methods x five wavenumbers
    assert len(lines) == 1 + 3 * 5
    row = lines[1].split(",")
    assert row[0] == "laplace" and row[1] == "longitudinal" and row[2] == "pde"
    assert row[3] == ""  # delta blank for non-regularized methods
    float(row[6])
    delta_rows = [l for l in lines[1:] if l.split(",")[2] == "delta_reg"]
    assert len(delta_rows) == 5 and delta_rows[0].split(",")[3] != ""


def test_spectrum_method_selection(capsys):
    code, out = run(capsys, "spectrum", "--setting", "stokes", "--direction",
                    "normal", "--eps", "0.1", "--k", "1,3", "--methods", "pde,sbt")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 2 * 2


def test_spectrum_deterministic(capsys):
    args = ("spectrum", "--setting", "stokes", "--direction", "tangential",
            "--eps", "0.02", "--k", "1..20")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_verify_suite_passes(capsys):
    code, out = run(capsys, "verify", "oracle")
    assert code == 0
    assert "[PASS] suite oracle" in out


def test_delta_opt(capsys):
    code, out = run(capsys, "delta-opt", "--setting", "stokes", "--ratio", "2.0")
    assert code == 0
    val = float(out.strip())
    assert 1.65 < val < 3.0


def test_dynamics_sweep(capsys):
    code, out = run(capsys, "dynamics", "--eps", "0.01", "--sweep", "8,16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps,K_max,ds,dt_max_analytic,dt_max_empirical"
    assert len(lines) == 3


def test_dynamics_energy_mode(capsys):
    code, out = run(capsys, "dynamics", "--eps", "0.01", "--energy-mode", "4",
                    "--k-max", "8", "--steps", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,t,energy"
    assert len(lines) == 12
    energies = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(b <= a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("mode", ["100", "-65", "0"])
def test_dynamics_energy_mode_outside_k_max_exit_2(capsys, mode):
    code = main(["dynamics", "--eps", "0.01", "--energy-mode", mode, "--k-max", "64"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mode k must satisfy 1 <= |k| <= k_max = 64\n"


@pytest.mark.parametrize("argv, message", [
    (["converge", "--setting", "laplace", "--method", "sbt_truncated", "--k-max", "0"],
     "k_max does not resolve the 1/eps truncation scale"),
    (["dynamics", "--eps", "0.01", "--energy-mode", "3", "--k-max", "8", "--steps", "2",
      "--dt", "0"], "--dt must be finite and positive"),
    (["dynamics", "--eps", "0.01", "--energy-mode", "3", "--k-max", "8", "--steps", "-1"],
     "--steps must be >= 0"),
    (["profile", "--direction", "normal", "--eps", "0.05", "--k", "3", "--points", "0"],
     "--points must be >= 1"),
    # too large: an overflowing dt or delta z gave warnings and nan/inf rows, a huge K_max
    # a traceback
    *[(["dynamics", "--eps", "0.01", "--energy-mode", "3", "--k-max", "8", "--steps", "2",
        "--dt=1e308", "--scheme", scheme],
       "dt = 1e+308 is too large: dt * max|nu| or t + dt overflows")
      for scheme in ("explicit_euler", "implicit_exact")],
    (["converge", "--setting", "laplace", "--method", "sbt_truncated", "--k-max", "1048577"],
     "k_max = 1048577 exceeds K_MAX_LIMIT = 1048576"),
    (["dynamics", "--eps", "0.01", "--energy-mode", "3", "--k-max", "1048577", "--steps", "0"],
     "k_max = 1048577 exceeds K_MAX_LIMIT = 1048576"),
    (["spectrum", "--setting", "laplace", "--direction", "longitudinal", "--eps", "0.1",
      "--k", "10000000000", "--methods", "delta_reg", "--delta", "1e300"],
     "delta * z = 1e+300 * 3.14159e+09 overflows a double"),
    # an unstable explicit step drove |Y| past 1e154, and energy() printed inf
    (["dynamics", "--eps", "0.01", "--energy-mode", "3", "--k-max", "8", "--steps", "2",
      "--dt=1e100", "--scheme", "explicit_euler"], "the energy at t = 2e+100 overflows a double"),
    # below the lower edge of z, K1 ~ 1/z or K2 ~ 2/z^2 overflowed: pde printed -4 pi
    # (stokes) or inf (laplace), and the normal profile rows of nan
    *[(["spectrum", "--setting", setting, "--direction", direction, "--eps", "1e-310",
        "--k", "1..2"], "b_function requires finite z >= 2.225e-308; K1 ~ 1/z overflows below")
      for setting, direction in (("stokes", "tangential"), ("laplace", "longitudinal"))],
    (["profile", "--direction", "normal", "--eps", "1e-200", "--k", "1"],
     "K2 requires finite z >= 1.492e-154; it overflows a double below"),
    # past the upper edge of z the continued fraction's 2 (1 + z), or B_n's z * z,
    # overflowed and the row printed nan
    (["spectrum", "--setting", "laplace", "--direction", "longitudinal", "--eps", "0.4",
      "--k", str(10**308), "--methods", "pde"],
     "K_nu requires z < 2**1023 ~ 8.988e+307; 2 (1 + z) overflows"),
    (["spectrum", "--setting", "stokes", "--direction", "normal", "--eps", "0.01",
      "--k", str(10**160), "--methods", "pde"],
     "B_n requires z <= 2**511 ~ 6.704e+153; z * z overflows past it"),
    # eps bounds: geomspace warned and the grid was "not strictly decreasing", and
    # a subnormal eps-min gave "cannot convert float infinity to integer"
    *[(["converge", "--setting", "laplace", "--method", "sbt_truncated", bound],
       "fiber radius must lie in (0, 1/2)")
      for bound in ("--eps-min=-1e-3", "--eps-max=inf", "--eps-min=nan")],
    (["converge", "--setting", "laplace", "--method", "sbt_truncated", "--eps-min=1e-320"],
     "eps = 9.99989e-321 needs k_max > K_MAX_LIMIT = 1048576"),
    # a |k| that no float holds raised "int too large to convert to float"
    (["spectrum", "--setting", "stokes", "--direction", "normal", "--eps", "0.1",
      "--k", str(10**400), "--methods", "pde"],
     "z = pi eps |k| cannot be formed: |k| is past the double range"),
    # k**4 in nu overflowed numpy's power: a RuntimeWarning, else a row of inf and 0
    (["dynamics", "--eps", "0.125", "--sweep", str(10**100)],
     "nu requires |k| < 2**256 ~ 1.158e+77; k**4 overflows past it"),
    # with a subnormal eps the scaled tangential constants overflowed silently in Python's
    # complex arithmetic, and numpy's multiply warned on their inf * 0
    (["profile", "--direction", "tangential", "--eps", "5e-324", "--k", str(2**63),
      "--points", "1"], "the tangential profile constants overflow a double at "
                        "eps = 4.941e-324, k = 9223372036854775808"),
    # numpy's own "Number of samples, -1, must be non-negative."
    (["converge", "--setting", "laplace", "--method", "sbt_truncated", "--eps-points=-1"],
     "--eps-points must be >= 0"),
    (["dynamics", "--eps", "0.01", "--sweep", "7,8"], "k_max must be >= 8"),
])
def test_degenerate_count_or_step_exit_2(capsys, argv, message):
    # zero or negative sizes used to fall back to defaults or print a bare header
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_PAST_CAP = 1048577  # operators.K_MAX_LIMIT + 1
_CAP_ERROR = f"= {_PAST_CAP} exceeds K_MAX_LIMIT = 1048576"


@pytest.mark.parametrize("argv,name", [
    pytest.param(["spectrum", "--setting", "laplace", "--direction", "longitudinal",
                  "--eps", "0.01", "--k", f"1..{_PAST_CAP}"],
                 f"the length of k range '1..{_PAST_CAP}'", id="spectrum-k-range"),
    pytest.param(["spectrum", "--setting", "laplace", "--direction", "longitudinal",
                  "--eps", "0.01", "--k", ",".join(["1"] * _PAST_CAP)],
                 "the length of the k list", id="spectrum-k-list"),
    pytest.param(["dynamics", "--eps", "0.01", "--sweep", f"8..{_PAST_CAP + 7}"],
                 f"the length of k range '8..{_PAST_CAP + 7}'", id="dynamics-sweep"),
    pytest.param(["dynamics", "--eps", "0.01", "--energy-mode", "3", "--k-max", "8",
                  "--steps", str(_PAST_CAP)], "--steps", id="dynamics-steps"),
    pytest.param(["profile", "--direction", "normal", "--eps", "0.05", "--k", "3",
                  "--points", str(_PAST_CAP)], "--points", id="profile-points"),
    pytest.param(["converge", "--setting", "laplace", "--method", "sbt_truncated",
                  "--eps-points", str(_PAST_CAP)], "--eps-points", id="converge-eps-points"),
])
def test_count_past_the_cap_exit_2_before_allocating(capsys, argv, name):
    # each count used to size a list, an array or a loop with no bound
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} {_CAP_ERROR}\n"
    assert peak < 4_000_000


@pytest.mark.parametrize("dt", ["nan", "inf", "-inf"])
def test_dynamics_non_finite_dt_exit_2(capsys, dt):
    # nan passed the old `dt <= 0` test and printed rows of nan energies
    assert main(["dynamics", "--eps", "0.01", "--energy-mode", "3", "--k-max", "8",
                 "--steps", "2", f"--dt={dt}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --dt must be finite and positive\n"


@pytest.mark.parametrize("r_mult", ["nan", "inf"])
def test_profile_non_finite_r_mult_exit_2(capsys, r_mult):
    # a nan radius used to reach the Bessel kernel: "K_nu requires finite z > 0";
    # an infinite one made np.linspace warn before any check ran
    assert main(["profile", "--direction", "normal", "--eps", "0.05", "--k", "3",
                 f"--r-mult={r_mult}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --r-mult must be finite\n"


def test_smallest_step_and_point_counts_are_valid(capsys):
    code, out = run(capsys, "dynamics", "--eps", "0.01", "--energy-mode", "3",
                    "--k-max", "8", "--steps", "0")
    assert code == 0 and len(out.strip().split("\n")) == 2
    code, out = run(capsys, "profile", "--direction", "normal", "--eps", "0.05",
                    "--k", "3", "--points", "1")
    assert code == 0 and len(out.strip().split("\n")) == 2


def test_profile_csv(capsys):
    code, out = run(capsys, "profile", "--direction", "tangential",
                    "--eps", "0.05", "--k", "2", "--points", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,U_r_re,U_r_im,U_z_re,U_z_im,p_re,p_im"
    assert len(lines) == 11


@pytest.mark.parametrize("direction, u_column", [("laplace_scalar", 1), ("tangential", 3)])
def test_profile_below_z_min_k2_without_k2(capsys, direction, u_column):
    # only the normal direction reads K2, so only it stops at Z_MIN_K2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(capsys, "profile", "--direction", direction, "--eps", "1e-200",
                        "--k", "1", "--points", "3")
    assert code == 0
    assert float(out.split("\n")[1].split(",")[u_column]) == 1.0


def test_profile_past_underflow_exit_2(capsys):
    # z = pi * 0.4 * 570 = 716.3, past bessel.UNDERFLOW_Z
    code = main(["profile", "--direction", "normal", "--eps", "0.4", "--k", "570"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: K underflow at z = pi*eps*|k| = 716.283\n"


def test_profile_radius_past_the_kernel_range_exit_2(capsys):
    # pi |k| r = 1.57e310 overflowed in numpy's multiply: a RuntimeWarning (a traceback
    # and exit 1 with warnings as errors), else exit 2 naming K2's lower edge
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["profile", "--direction", "normal", "--eps", "0.05", "--k", "1000",
                     "--r-mult", "1e308"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: profiles need z = pi |k| r < 2**1023 ~ 8.988e+307; "
                            "the largest radius gives z = inf\n")


def test_converge_json(capsys):
    code, out = run(capsys, "converge", "--setting", "laplace", "--method",
                    "sbt_truncated", "--eps-max", "0.0316", "--eps-min", "0.01",
                    "--eps-points", "4", "--k-max", "2000")
    assert code == 0
    assert '"slope"' in out


def test_report_serialization(capsys):
    # the JSON keys in their order and the CSV layout of one 4-point study
    argv = ["converge", "--setting", "laplace", "--method", "sbt_truncated", "--k-max", "2000",
            "--eps-max", repr(10**-1.5), "--eps-min", "0.01", "--eps-points", "4"]
    code, out = run(capsys, *argv)
    assert code == 0 and out.endswith("}\n")
    data = json.loads(out)
    assert list(data) == ["setting", "method", "regularity", "eps", "errors", "slope",
                          "residual", "seed"]
    assert len(data["eps"]) == len(data["errors"]) == 4
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "setting,method,regularity,seed,eps,error,slope,residual"
    assert len(lines) == 1 + 4


def test_usage_error_exit_2(capsys):
    assert main(["spectrum", "--setting", "laplace"]) == 2
    assert main(["nonsense"]) == 2


def test_domain_error_exit_2(capsys):
    # delta below its threshold is a usage-level failure, not a crash
    code = main(["spectrum", "--setting", "stokes", "--direction", "tangential",
                 "--eps", "0.01", "--methods", "delta_reg", "--delta", "1.0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--setting", "stokes", "--direction", "tangential", "--eps", "0.01",
     "--k", "1..3", "--methods", "delta_reg"],
    ["converge", "--setting", "stokes", "--method", "delta_reg", "--eps-min", "0.01"],
])
@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_non_finite_delta_exit_2(capsys, argv, delta):
    # EigenFamily rejects the value before any Bessel call, with its own message
    assert main(argv + [f"--delta={delta}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: delta_reg in the stokes setting needs delta > 1.6487\n"


@pytest.mark.parametrize("krange", ["5..1", "2..1"])
def test_empty_k_range_exit_2(capsys, krange):
    # a reversed range selects nothing: a usage error, not an empty table
    code = main(["spectrum", "--setting", "stokes", "--direction", "tangential",
                 "--eps", "0.01", "--k", krange])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k range {krange!r} selects no wavenumber\n"


@pytest.mark.parametrize("krange, ks", [("3", [3]), ("1,4,9", [1, 4, 9]), ("2..2", [2])])
def test_single_and_listed_k_ranges(capsys, krange, ks):
    code, out = run(capsys, "spectrum", "--setting", "stokes", "--direction", "tangential",
                    "--eps", "0.01", "--k", krange, "--methods", "pde")
    assert code == 0
    assert [int(row.split(",")[5]) for row in out.strip().split("\n")[1:]] == ks


_CLI_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "cli_reference"
_README_CALLS = json.loads((_CLI_REFERENCE / "manifest.json").read_text())["calls"]


@pytest.mark.parametrize("name", sorted(_README_CALLS))
def test_readme_cli_outputs_are_pinned(capsys, name):
    # the README promises byte-identical output; the references are only read
    code = main(_README_CALLS[name][1:])
    assert code == 0
    assert capsys.readouterr().out.encode() == (_CLI_REFERENCE / f"{name}.out").read_bytes()


@pytest.mark.parametrize("eps", ["0.9", "-0.1"])
def test_spectrum_eps_outside_domain_exit_2(capsys, eps):
    code = main(["spectrum", "--setting", "laplace", "--direction", "longitudinal",
                 "--eps", eps, "--methods", "pde"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fiber radius must lie in (0, 1/2)\n"


@pytest.mark.parametrize("eps", ["0.7", "-1", "nan"])
def test_dynamics_energy_eps_outside_domain_exit_2(capsys, eps):
    # with --steps 0 and an explicit --dt nothing reaches nu, which printed an energy row
    code = main(["dynamics", "--eps", eps, "--energy-mode", "3", "--k-max", "8",
                 "--steps", "0", "--dt", "0.1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fiber radius must lie in (0, 1/2)\n"


def _fresh(script, **env):
    """stdout of ``script`` in a fresh interpreter that imports slenderspec from this checkout."""
    src = os.path.dirname(os.path.dirname(slenderspec.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, **env), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('slenderspec')))"
_CLI_ONLY = ["slenderspec", "slenderspec.cli", "slenderspec.tables"]


def test_cli_never_imports_scipy():
    _fresh("import contextlib, io, sys\n"
           "import slenderspec.cli as cli\n"
           "assert 'scipy' not in sys.modules\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert cli.main(['verify', 'all']) == 0\n"
           "assert 'scipy' not in sys.modules\n")


@pytest.mark.parametrize("statement, loaded", [
    ("import slenderspec", ["slenderspec"]),
    ("import slenderspec.cli", ["slenderspec", "slenderspec.cli"]),
    ("from slenderspec.cli import main; assert main(['--help']) == 0", _CLI_ONLY),
    ("from slenderspec.cli import main; assert main([]) == 2", _CLI_ONLY),
    ("from slenderspec.cli import main; assert main(['nonsense']) == 2", _CLI_ONLY),
    *((f"from slenderspec.cli import main; assert main([{command!r}, '--help']) == 0", _CLI_ONLY)
      for command in ("spectrum", "verify", "converge", "delta-opt", "dynamics", "profile")),
])
def test_help_and_top_level_usage_errors_load_no_numpy(statement, loaded):
    script = ("import contextlib, io, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()):\n"
              f"    {statement}\n{_LOADED}")
    assert _fresh(script) == f"{loaded}\n"


def test_spectrum_loads_neither_checks_nor_profiles():
    script = ("import sys; from slenderspec.cli import main; main(['spectrum', '--setting', "
              "'laplace', '--direction', 'longitudinal', '--eps', '0.01', '--k', '1..3'])\n"
              + _LOADED)
    loaded = _fresh(script).splitlines()[-1]
    assert "'numpy'" in loaded and "checks" not in loaded and "profiles" not in loaded


_README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--setting", "laplace", "--direction", "longitudinal", "--eps", "0.01",
     "--k", "1..3"],
    ["profile", "--direction", "normal", "--eps", "0.05", "--k", "3", "--points", "3"],
], ids=["spectrum", "profile"])
def test_a_run_loads_what_the_readme_import_table_says(argv):
    # both loaded operators for its count cap alone, which now lives in spectra
    row = re.search(rf"^\| `{argv[0]}` \| (.*) \|$", _README.read_text(), re.M).group(1)
    also = [f"slenderspec.{m}" for m in re.findall(r"`(\w+)`", row)]
    script = ("import contextlib, io, sys\nfrom slenderspec.cli import main\n"
              f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0\n"
              + _LOADED)
    base = ["numpy", "slenderspec", "slenderspec.bessel", "slenderspec.cli", "slenderspec.spectra",
            "slenderspec.tables"]
    assert _fresh(script) == f"{sorted(base + also)}\n"


_HELP = Path(__file__).resolve().parent / "cli_help"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="recorded under Python 3.11; argparse's layout moves between versions")
@pytest.mark.parametrize("command", ["", "spectrum", "verify", "converge", "delta-opt",
                                     "dynamics", "profile"])
def test_help_text_is_unchanged(command):
    # recorded from a parser that added every subcommand's arguments at once, as build_parser
    # does again
    argv = [command, "--help"] if command else ["--help"]
    script = f"import sys; from slenderspec.cli import main; sys.exit(main({argv!r}))"
    out = _fresh(script, COLUMNS="80")
    assert out == (_HELP / f"{command or 'slenderspec'}.txt").read_text()


def test_the_parser_and_the_library_read_one_table_module():
    assert spectra._DIRECTIONS is tables._DIRECTIONS and spectra._SETTINGS is tables._SETTINGS
    assert profiles.DIRECTIONS == ("laplace_scalar", "tangential", "normal")
    assert profiles._PROFILES["normal"].columns == ("U_r", "U_theta", "U_z", "p")
    assert list(checks.SUITES) == ["bessel", "oracle", "inequalities", "appendixC",
                                   "differences", "dynamics"]
    assert checks.SUITES["appendixC"] is checks.verify_appendix_c


def test_output_file_and_outdir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "spec.csv"
    code, out = run(capsys, "spectrum", "--setting", "laplace", "--direction",
                    "longitudinal", "--eps", "0.01", "--k", "1..3",
                    "--output", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("setting,direction,method")

    monkeypatch.setenv("SLENDERSPEC_OUTDIR", str(tmp_path))
    code, _ = run(capsys, "spectrum", "--setting", "laplace", "--direction",
                  "longitudinal", "--eps", "0.01", "--k", "1..3",
                  "--output", "bare.csv")
    assert code == 0
    assert (tmp_path / "bare.csv").read_text() == text


def test_unwritable_output_exit_2(tmp_path, capsys):
    code = main(["spectrum", "--setting", "laplace", "--direction", "longitudinal",
                 "--eps", "0.01", "--k", "1..3",
                 "--output", str(tmp_path / "missing" / "spec.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("setting = laplace\ndirection = longitudinal\neps = 0.01\nk = 1..4\n")
    code, out = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3 * 4
    # explicit flags win over the config file
    code, out = run(capsys, "spectrum", "--config", str(cfg), "--k", "1..2")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3 * 2


def test_config_equals_form(tmp_path, capsys):
    # --config=FILE ignored the file and failed on the missing --eps
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.01\nsweep = 8,16\n")
    code, out = run(capsys, "dynamics", "--config", str(cfg))
    assert code == 0 and len(out.strip().split("\n")) == 3
    assert run(capsys, "dynamics", f"--config={cfg}") == (0, out)


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not key value\n")
    assert main(["spectrum", "--config", str(bad)]) == 2
    assert main(["spectrum", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["spectrum", "--config"]) == 2


@pytest.mark.parametrize("argv, key, command", [
    (["verify", "all"], "eps", "verify"),
    (["converge", "--setting", "laplace", "--method", "sbt_truncated"], "direction", "converge"),
])
def test_config_key_the_subcommand_does_not_take_exit_2(tmp_path, capsys, argv, key, command):
    # a file shared between subcommands is not supported; "verify all" used to
    # fail with argparse's "argument suite: invalid choice: '0.01'"
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(f"{key} = 0.01\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {key!r} is not an option of {command!r}\n"


def _table(out):
    header, *rows = out.strip().split("\n")
    return header.split(","), [row.split(",") for row in rows]


def _same_bits(cells, values):
    # hex() tells -0.0 from 0.0, and reads every bit of the double
    return [float(c).hex() for c in cells] == [float(v).hex() for v in values]


@pytest.mark.parametrize("setting, direction", [
    ("laplace", "longitudinal"), ("stokes", "tangential"), ("stokes", "normal")])
def test_spectrum_cells_read_back_to_the_library_bits(capsys, setting, direction):
    # the README's determinism promise, checked against the library on this host
    # rather than against a digest recorded on another
    ks = [1, 2, 3, 7, 20, 31]
    methods = ("pde", "sbt", "sbt_truncated", "delta_reg")
    code, out = run(capsys, "spectrum", "--setting", setting, "--direction", direction,
                    "--eps", "0.013", "--k", "1,2,3,7,20,31", "--methods", ",".join(methods),
                    "--delta", "2.5")
    assert code == 0
    _, rows = _table(out)
    assert len(rows) == len(methods) * len(ks)
    for i, method in enumerate(methods):
        delta = 2.5 if method == "delta_reg" else None
        block = rows[i * len(ks):(i + 1) * len(ks)]
        assert {tuple(r[:3]) for r in block} == {(setting, direction, method)}
        assert [r[3] for r in block] == ["2.5" if delta else ""] * len(ks)
        assert [int(r[5]) for r in block] == ks
        lam = eigenvalues(EigenFamily(setting, direction, method, delta=delta), 0.013,
                          np.array(ks))
        assert _same_bits([r[6] for r in block], lam)
        assert _same_bits([r[4] for r in block], [0.013] * len(ks))


@pytest.mark.parametrize("direction, eps, k, r_mult", [
    ("laplace_scalar", 0.05, 3, 7.5), ("tangential", 0.05, 3, 7.5), ("normal", 0.05, 3, 7.5),
    # K underflows to 0.0 at the outer radii, where three cells print as -0
    ("normal", 0.4, -500, 1.25)])
def test_profile_cells_read_back_to_the_library_bits(capsys, direction, eps, k, r_mult):
    code, out = run(capsys, "profile", "--direction", direction, "--eps", str(eps),
                    f"--k={k}", "--r-mult", str(r_mult), "--points", "9")
    assert code == 0
    header, rows = _table(out)
    r = np.linspace(eps, eps * r_mult, 9)
    prof = profiles.evaluate_profile(profiles.solve_mode(direction, Mode(k, eps)), r)
    assert _same_bits([row[0] for row in rows], r)
    for j, name in enumerate(header[1:], start=1):
        column, part = name.rsplit("_", 1)
        values = getattr(prof[column], "real" if part == "re" else "imag")
        assert _same_bits([row[j] for row in rows], values)


def test_dynamics_cells_read_back_to_the_library_bits(capsys):
    code, out = run(capsys, "dynamics", "--eps", "0.02", "--sweep", "8,13,64")
    assert code == 0
    _, rows = _table(out)
    sweep = dynamics.stability_sweep(0.02, [8, 13, 64])
    assert [int(row[1]) for row in rows] == [8, 13, 64]
    for j in (0, 2, 3, 4):
        assert _same_bits([row[j] for row in rows], [entry[j] for entry in sweep])

    code, out = run(capsys, "dynamics", "--eps", "0.02", "--energy-mode", "5",
                    "--k-max", "16", "--steps", "6", "--scheme", "explicit_euler")
    assert code == 0
    _, rows = _table(out)
    state = dynamics.single_mode_state(0.02, 16, 5)
    dt = 0.5 * dynamics.max_stable_dt(0.02, 16)
    times, energies = [], []
    for i in range(7):
        if i:
            state = dynamics.step(state, dt, "explicit_euler")
        times.append(state.t)
        energies.append(dynamics.energy(state))
    assert [int(row[0]) for row in rows] == list(range(7))
    assert _same_bits([row[1] for row in rows], times)
    assert _same_bits([row[2] for row in rows], energies)


def test_converge_cells_read_back_to_the_library_bits(capsys):
    code, out = run(capsys, "converge", "--setting", "stokes", "--method", "delta_reg",
                    "--eps-max", "0.05", "--eps-min", "0.01", "--eps-points", "5",
                    "--seed", "23", "--delta", "2.25", "--format", "csv")
    assert code == 0
    _, rows = _table(out)
    report = experiments.convergence_study(
        "stokes", "delta_reg", "H1", eps_grid=np.geomspace(0.05, 0.01, 5), seed=23,
        delta=2.25)
    assert {tuple(row[:4]) for row in rows} == {("stokes", "delta_reg(2.25)", "H1", "23")}
    assert _same_bits([row[4] for row in rows], report.eps_grid)
    assert _same_bits([row[5] for row in rows], report.errors)
    assert _same_bits([row[6] for row in rows], [report.slope] * 5)
    assert _same_bits([row[7] for row in rows], [report.residual] * 5)


# ---------------------------------------------------------------------------
# the CLI contract, fuzzed: every argv exits 0 or 2, never with a traceback, a
# RuntimeWarning or a non-finite number, prints the same bytes twice, and prints
# nothing to stdout when --output is given
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 2.0**-1022, 1e-200, 1e308,
    -1.0, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, math.nextafter(0.5, 0.0), 1.0,
    math.nextafter(1.0, 2.0), SQRT_E, math.nextafter(SQRT_E, 0.0), math.nextafter(SQRT_E, 2.0),
    2.0, 10.0]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-1.0, 50.0)).map(repr)
_eps = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(1e-4, 0.49)).map(repr)
_maybe_float = st.one_of(_floats, st.sampled_from(["", "abc", "1e", "0x10"]))
_wavenumber = st.one_of(st.integers(-70, 70), st.sampled_from(
    [2**31, 2**63, 10**20, 10**154, 10**160, 10**308, 10**309, 10**400]))
# sizes past the cap only where the count is rejected before anything is allocated
_count = st.one_of(st.integers(-3, 64), st.sampled_from([_PAST_CAP, 10**30]))
_krange = st.one_of(
    st.builds(lambda lo, n: f"{lo}..{lo + n}", _wavenumber, st.integers(-3, 63)),
    st.builds(lambda lo, hi: f"{lo}..{hi}", _wavenumber, _wavenumber),
    st.lists(_wavenumber, min_size=1, max_size=64).map(lambda ks: ",".join(map(str, ks))),
    st.sampled_from(["", "..", "1..", "..5", "1...3", "1..2..3", "1,,2", "a", "1.5", "3..1"]))
_setting = st.sampled_from(["laplace", "stokes", "oseen"])
_direction = st.sampled_from(["longitudinal", "tangential", "normal", "radial"])


def _flags(**options):
    return [f"--{name.replace('_', '-')}={value}" for name, value in options.items()
            if value is not None]


@st.composite
def _spectrum_argv(draw):
    methods = draw(st.lists(st.sampled_from(["pde", "sbt", "sbt_truncated", "delta_reg", "x"]),
                            min_size=1, max_size=4))
    return ["spectrum"] + _flags(
        setting=draw(_setting), direction=draw(_direction), eps=draw(_eps), k=draw(_krange),
        methods=",".join(methods), delta=draw(st.none() | _maybe_float))


@st.composite
def _profile_argv(draw):
    return ["profile"] + _flags(
        direction=draw(st.sampled_from(["laplace_scalar", "tangential", "normal", "radial"])),
        eps=draw(_eps), k=draw(_wavenumber), r_mult=draw(st.none() | _maybe_float),
        points=draw(_count))


@st.composite
def _dynamics_argv(draw):
    if draw(st.booleans()):
        return ["dynamics"] + _flags(eps=draw(_eps), sweep=draw(st.none() | _krange))
    return ["dynamics"] + _flags(
        eps=draw(_eps), energy_mode=draw(_wavenumber), k_max=draw(_count),
        steps=draw(_count), dt=draw(st.none() | _maybe_float),
        scheme=draw(st.none() | st.sampled_from(["explicit_euler", "implicit_exact"])))


@st.composite
def _converge_argv(draw):
    eps_min, k_max = draw(_eps), draw(st.none() | _count)
    if k_max is None and 6.1e-7 < float(eps_min) < 0.0115:
        k_max = draw(st.integers(8, 64))  # the default K_max would pass 64
    return ["converge"] + _flags(
        setting=draw(_setting), method=draw(st.sampled_from(["sbt_truncated", "delta_reg"])),
        regularity=draw(st.sampled_from(["H1", "H2"])), eps_max=draw(st.none() | _eps),
        eps_min=eps_min, eps_points=draw(st.none() | _count), seed=draw(st.integers(-2, 2**64)),
        delta=draw(st.none() | _maybe_float), k_max=k_max,
        format=draw(st.sampled_from(["json", "csv"])))


_delta_opt_argv = st.builds(lambda setting, ratio: ["delta-opt"] + _flags(
    setting=setting, ratio=ratio), _setting, _maybe_float)
_verify_argv = st.builds(lambda suite: ["verify", suite], st.sampled_from(["appendixC", "nosuch"]))
#: config lines besides the moved flags: a comment and a blank line (skipped), an unknown
#: key and a line without '=' (refused)
_config_noise = st.sampled_from(["# a comment", "", "colour = red", "eps 0.01"])

# In-domain grammars, one per subcommand, each meant to exit 0: small eps and wavenumbers keep
# z = pi eps |k| below every sbt pole, and converge keeps a grid of 4 or more points that its
# K_max resolves.  The bessel suite (a third of a second) is left to `verify all` elsewhere.
_ok_spectrum = st.builds(
    lambda d, eps, lo, n, methods, delta: ["spectrum"] + _flags(
        setting=tables._DIRECTIONS[d].setting, direction=d, eps=eps, k=f"{lo}..{lo + n}",
        methods=",".join(methods), delta=delta),
    st.sampled_from(sorted(tables._DIRECTIONS)), st.floats(1e-3, 0.01).map(repr),
    st.integers(1, 5), st.integers(0, 10),
    st.lists(st.sampled_from(["pde", "sbt", "delta_reg"]), min_size=1, max_size=3, unique=True),
    st.none() | st.floats(2.0, 5.0).map(repr))
_ok_verify = st.builds(lambda suite: ["verify", suite],
                       st.sampled_from([n for n in tables.SUITE_NAMES if n != "bessel"]))
_ok_converge = st.builds(
    lambda setting, method, regularity, points, k_max, fmt: ["converge"] + _flags(
        setting=setting, method=method, regularity=regularity, eps_max="0.1", eps_min="0.02",
        eps_points=points, k_max=k_max, format=fmt),
    st.sampled_from(sorted(tables._SETTINGS)), st.sampled_from(["sbt_truncated", "delta_reg"]),
    st.sampled_from(["H1", "H2"]), st.integers(4, 6), st.integers(32, 64),
    st.sampled_from(["json", "csv"]))
_ok_delta_opt = st.builds(lambda setting, ratio: ["delta-opt"] + _flags(
    setting=setting, ratio=ratio), st.sampled_from(sorted(tables._SETTINGS)),
    st.floats(0.01, 50.0).map(repr))
_ok_dynamics = st.one_of(
    st.builds(lambda eps, ks: ["dynamics"] + _flags(eps=eps, sweep=",".join(map(str, ks))),
              st.floats(1e-3, 0.3).map(repr),
              st.lists(st.integers(8, 128), min_size=1, max_size=5)),
    st.builds(lambda eps, k_max, k, steps, scheme: ["dynamics"] + _flags(
        eps=eps, energy_mode=min(k, k_max), k_max=k_max, steps=steps, scheme=scheme),
        st.floats(1e-3, 0.3).map(repr), st.integers(8, 64), st.integers(1, 64),
        st.integers(0, 32), st.sampled_from(["explicit_euler", "implicit_exact"])))
_ok_profile = st.builds(
    lambda d, eps, k, r_mult, points: ["profile"] + _flags(
        direction=d, eps=eps, k=k, r_mult=r_mult, points=points),
    st.sampled_from(tables.PROFILE_DIRECTIONS), st.floats(0.01, 0.3).map(repr),
    st.integers(1, 20), st.none() | st.floats(1.5, 20.0).map(repr), st.integers(1, 64))
#: (edge grammar, in-domain grammar) of each subcommand
_GRAMMARS = {
    "spectrum": (_spectrum_argv(), _ok_spectrum), "profile": (_profile_argv(), _ok_profile),
    "dynamics": (_dynamics_argv(), _ok_dynamics), "converge": (_converge_argv(), _ok_converge),
    "delta-opt": (_delta_opt_argv, _ok_delta_opt), "verify": (_verify_argv, _ok_verify)}


@st.composite
def _argv(draw, command, in_domain):
    """(argv, config lines or None, whether --output is given) for ``command``, from its
    in-domain grammar (with a valid --output and config form) or from its edge grammar.  In
    argv, {out} stands for SLENDERSPEC_OUTDIR's directory and {config} for the file of the
    config lines, into which some of the drawn flags move as key = value lines."""
    argv = list(draw(_GRAMMARS[command][in_domain]))
    # a bare name goes under SLENDERSPEC_OUTDIR; a directory path cannot be opened
    outputs, forms = [None, "table.out"], [None, "--config FILE", "--config=FILE"]
    if not in_domain:
        outputs, forms = outputs + ["{out}"], forms + ["missing", "no file"]
    if (output := draw(st.sampled_from(outputs))) is not None:
        argv.append(f"--output={output}")
    form = draw(st.sampled_from(forms))
    if form is None:
        return argv, None, output is not None
    moved = [a for a in argv[1:] if a.startswith("--") and draw(st.booleans())]
    noise = st.sampled_from(["# a comment", ""]) if in_domain else _config_noise
    lines = [a[2:].replace("=", " = ", 1) for a in moved] + draw(st.lists(noise, max_size=2))
    argv = [a for a in argv if a not in moved]
    config = {"--config FILE": ["--config", "{config}"], "--config=FILE": ["--config={config}"],
              "missing": ["--config", "{out}/missing.cfg"], "no file": ["--config"]}[form]
    at = len(argv) if form == "no file" else draw(st.integers(0, len(argv)))
    return argv[:at] + config + argv[at:], lines, output is not None


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


#: examples per subcommand from its edge grammar and from its in-domain one, so that the
#: success path is 2/7 of the run; and the exits 0 each subcommand must reach
_EDGE_EXAMPLES, _IN_DOMAIN_EXAMPLES, _SUCCESS_FLOOR = 30, 12, 10


def test_cli_contract_fuzz():
    successes = dict.fromkeys(_GRAMMARS, 0)
    for command, in_domain in itertools.product(_GRAMMARS, (False, True)):
        @settings(max_examples=_IN_DOMAIN_EXAMPLES if in_domain else _EDGE_EXAMPLES,
                  derandomize=True, deadline=None)
        @given(_argv(command, in_domain))
        def fuzz(drawn):
            argv, config, output = drawn
            with tempfile.TemporaryDirectory() as tmp, \
                    mock.patch.dict(os.environ, {"SLENDERSPEC_OUTDIR": tmp}):
                cfg, table = Path(tmp, "args.cfg"), Path(tmp, "table.out")
                if config is not None:
                    cfg.write_text("".join(f"{line}\n" for line in config))
                argv = [a.replace("{out}", tmp).replace("{config}", str(cfg)) for a in argv]
                code, out, err = first = _call(argv)
                written = table.read_text() if table.exists() else None
                assert code in (0, 2)
                assert "Traceback" not in err
                if code == 0:
                    assert not re.search(r"(?i)\b(nan|inf)", out if written is None else written)
                if code or output:
                    assert out == ""
                assert _call(argv) == first
                assert (table.read_text() if table.exists() else None) == written
            successes[command] += code == 0

        fuzz()
    # the success path of every subcommand is drawn, not only its error path
    assert min(successes.values()) >= _SUCCESS_FLOOR, successes
