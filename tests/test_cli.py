import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import slenderspec
from slenderspec.cli import main


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


def test_cli_never_imports_scipy():
    script = (
        "import contextlib, io, sys\n"
        "import slenderspec.cli as cli\n"
        "assert 'scipy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'all']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(slenderspec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300)


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
