"""The three benchmark workloads, as operations with a correctness check each.

An operation is one convergence study, one check call or one CLI call.
Setting a workload up returns a function that hands out the operations of
the next pass; the runner executes them in a closed loop (one client: the
next operation starts when the previous one has finished).  Every input is
derived from the workload seed.

converge  the criterion-07 set: 8 convergence studies per pass, array-heavy.
          Errors depend only on |fhat_k|, so every pass recomputes the same
          spectra; this is the workload where kernel speed and spectrum
          reuse show.
checks    every health check except the convergence study: the six
          ``verify_*`` suites, criteria 06/08/09/10/12 and a seeded traction
          sweep over the documented domain.  Many small scalar calls; the
          only workload that exercises ``profiles``.
cli       the six README command-line examples, one subprocess per call,
          compared byte for byte with a reference recorded at the seed
          commit.  Interpreter start-up and imports show here.

A failed operation (it raised, or its output failed the check) is counted,
never raised out of the run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_REFERENCE = Path(__file__).resolve().parent / "cli_reference"

#: convergence slopes must land within this distance of the target rate
SLOPE_WINDOW = 0.15
#: traction route vs closed form, relative (acceptance criterion 06)
TRACTION_GAP = 1e-6
#: the documented domain: z = pi eps |k| up to here, eps in (0, 1/2)
SWEEP_Z_MAX = 700.0
SWEEP_EPS_MIN = 1e-6
SWEEP_PER_DIRECTION = 100

#: the six README "Command line" examples, by subcommand
CLI_CALLS = (
    ("spectrum", ["spectrum", "--setting", "stokes", "--direction", "tangential",
                  "--eps", "0.01", "--k", "1..50"]),
    ("verify", ["verify", "all"]),
    ("converge", ["converge", "--setting", "laplace", "--method", "sbt_truncated",
                  "--format", "csv"]),
    ("delta-opt", ["delta-opt", "--setting", "stokes", "--ratio", "0.1"]),
    ("dynamics", ["dynamics", "--eps", "0.01", "--sweep", "8,16,32,64,128"]),
    ("profile", ["profile", "--direction", "normal", "--eps", "0.05", "--k", "3"]),
)

#: the suites of the checks workload, called by function name; op name suffix
CHECK_SUITES = (
    ("bessel", "verify_bessel"),
    ("oracle", "verify_oracle"),
    ("inequalities", "verify_inequalities"),
    ("appendixC", "verify_appendix_c"),
    ("differences", "verify_difference_bounds"),
    ("dynamics", "verify_dynamics"),
)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` produces an output, ``check`` judges it.

    ``known_defect`` marks an input inside a documented defect of the seed
    program; its failures are counted like any other but are not reported
    as a wrong result of the benchmark run.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    known_defect: bool = False


@dataclass(frozen=True)
class Sample:
    name: str
    seconds: float
    ok: bool
    error: str | None
    known_defect: bool


def run_op(op):
    """Time ``op.call`` and check its output; exceptions become failures."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # counted as a failed operation, never re-raised
        return Sample(op.name, time.perf_counter() - t0, False,
                      f"{type(exc).__name__}: {exc}", op.known_defect)
    seconds = time.perf_counter() - t0
    try:
        ok = bool(op.check(out))
    except Exception as exc:
        return Sample(op.name, seconds, False, f"check raised {type(exc).__name__}: {exc}",
                      op.known_defect)
    return Sample(op.name, seconds, ok, None if ok else "output failed its check",
                  op.known_defect)


def warm_up(call):
    """Run ``call`` once before timing; its output is checked by the timed passes."""
    run_op(Op("warm-up", call, lambda _: True))


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def slope_check(target):
    """Correctness of one convergence study: slope within the window."""
    def check(report):
        return math.isfinite(report.slope) and abs(report.slope - target) <= SLOPE_WINDOW
    return check


def converge_configs():
    """(setting, method, regularity, eps_grid, k_max, target) of criterion 07."""
    import numpy as np

    # each configuration runs in the eps-regime where its rate is asymptotic,
    # exactly as acceptance criterion 07 does
    delta_h1_grid = tuple(np.geomspace(1e-1, 10**-2.5, 6))
    delta_h2_grid = tuple(np.geomspace(10**-2.5, 1e-4, 6))
    configs = []
    for setting in ("laplace", "stokes"):
        configs.append((setting, "sbt_truncated", "H1", None, 20_000, 1.0))
        configs.append((setting, "sbt_truncated", "H2", None, 20_000, 2.0))
        configs.append((setting, "delta_reg", "H1", delta_h1_grid, 20_000, 1.0))
        configs.append((setting, "delta_reg", "H2", delta_h2_grid, 60_000, 2.0))
    return configs


def converge_workload(seed):
    import numpy as np
    from slenderspec import experiments

    configs = converge_configs()
    rng = np.random.default_rng(seed)

    def study(setting, method, regularity, grid, k_max, field_seed):
        # looked up at call time so a traced run sees the wrapped function
        return lambda: experiments.convergence_study(
            setting, method, regularity, eps_grid=grid, seed=field_seed, k_max=k_max)

    def next_pass():
        field_seeds = rng.integers(0, 2**31 - 1, size=len(configs))
        return [Op(f"converge.{s}.{m}.{r}", study(s, m, r, g, k, int(fs)), slope_check(t))
                for (s, m, r, g, k, t), fs in zip(configs, field_seeds)]

    warm_up(lambda: experiments.convergence_study(
        "laplace", "sbt_truncated", "H1", eps_grid=(1e-1, 5e-2, 2e-2, 1e-2), k_max=80))
    return next_pass


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def boundary_underflow(direction, z):
    """True where the traction route's boundary K-products leave the normal range.

    ``profiles.solve_mode`` forms raw products of two (tangential) or three
    (normal) K values at z.  Once such a product is below the smallest
    normal double it loses precision and then reaches 0, and the traction
    eigenvalue is wrong or raises ZeroDivisionError.  This is the seed's
    documented defect; K_nu(z) ~ sqrt(pi/(2z)) e^{-z} gives the threshold.
    """
    factors = {"laplace_scalar": 1, "tangential": 2, "normal": 3}[direction]
    log_k = -z + 0.5 * math.log(math.pi / (2.0 * z))
    return factors * log_k < math.log(sys.float_info.min)


def domain_sweep(rng, per_direction=SWEEP_PER_DIRECTION):
    """Seeded (direction, Mode) pairs across z in (0, 700], eps in (0, 1/2).

    z is stratified (one draw per equal-width band, per direction) so the
    share of inputs past any z threshold barely depends on the seed; eps is
    log-uniform and the sign of k random.
    """
    from slenderspec.profiles import DIRECTIONS
    from slenderspec.spectra import Mode

    out = []
    band = SWEEP_Z_MAX / per_direction
    for direction in DIRECTIONS:
        for i in range(per_direction):
            z_target = (i + rng.uniform()) * band
            eps = math.exp(rng.uniform(math.log(SWEEP_EPS_MIN), math.log(0.5)))
            k = min(max(1, round(z_target / (math.pi * eps))),
                    math.floor(SWEEP_Z_MAX / (math.pi * eps)))
            out.append((direction, Mode(int(k * rng.choice((-1, 1))), eps)))
    return out


def _criterion_06(direction, eps, k):
    import numpy as np
    from slenderspec import profiles
    from slenderspec.spectra import Mode

    def call():
        mode = Mode(k, eps)
        _, _, gap = profiles.traction_vs_closed_form(direction, mode)
        div = 0.0
        if direction != "laplace_scalar":
            sol = profiles.solve_mode(direction, mode)
            r = np.linspace(eps, min(8.0 * eps, 0.45), 12)
            div = float(np.max(profiles.incompressibility_residual(sol, r)))
        return gap, div
    return call


def _criterion_08():
    import numpy as np
    from slenderspec import experiments

    worst = 0.0
    for setting in ("laplace", "stokes"):
        _, vals = experiments.wellposedness_constant(
            setting, eps_grid=tuple(np.geomspace(1e-1, 1e-3, 6)))
        worst = max(worst, max(vals) / min(vals))
    return worst


def _criterion_09():
    import numpy as np
    from slenderspec import experiments

    for setting, ratios, lo, hi in (
        ("stokes", np.geomspace(0.05, 10.0, 11), 1.72, 2.5),
        ("laplace", np.geomspace(0.1, 10.0, 11), 1.1, 2.1),
    ):
        ds = [experiments.optimal_delta(setting, r) for r in ratios]
        if not all(lo - 0.01 <= d <= hi + 0.01 for d in ds):
            return False
    return True


def _criterion_10():
    import numpy as np
    from numpy.polynomial import legendre
    from slenderspec import spectra

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
    return worst_s, worst_p, per_err


def _criterion_12():
    import numpy as np
    from slenderspec import dynamics

    ks = np.arange(2, 10_001)
    neg_ok = all(np.all(dynamics.nu(e, ks) < 0) for e in (1e-1, 1e-2, 1e-3))
    gaps = []
    for eps, k_max in ((1e-2, 32), (1e-1, 512)):
        a = dynamics.max_stable_dt(eps, k_max)
        e = dynamics.max_stable_dt(eps, k_max, empirical=True)
        gaps.append(abs(e - a) / a)
    s4 = dynamics.stability_slope(1e-3, [8, 16, 32, 64, 128])
    s3 = dynamics.stability_slope(1e-1, [512, 1024, 2048, 4096])
    return dynamics.nu(1e-3, 1), neg_ok, max(gaps), s4, s3


def _sweep_op(direction, mode):
    from slenderspec import profiles

    return Op(f"sweep.traction.{direction}",
              lambda: profiles.traction_vs_closed_form(direction, mode)[2],
              lambda gap: gap <= TRACTION_GAP,
              known_defect=boundary_underflow(direction, mode.z))


def checks_workload(seed):
    import numpy as np
    from slenderspec import checks, profiles

    def suite(fn_name):
        return lambda: getattr(checks, fn_name)()

    ops = [Op(f"checks.{label}", suite(fn_name), lambda result: result.ok)
           for label, fn_name in CHECK_SUITES]
    ops += [Op("criterion06.traction", _criterion_06(d, eps, k),
               lambda out: out[0] <= TRACTION_GAP and out[1] <= TRACTION_GAP)
            for d in profiles.DIRECTIONS for eps in (0.1, 0.01) for k in range(1, 21)]
    ops += [
        Op("criterion08.wellposedness", _criterion_08, lambda worst: worst < 2.0),
        Op("criterion09.optimal_delta", _criterion_09, bool),
        Op("criterion10.singular_integrals", _criterion_10,
           lambda out: out[0] < 0.01 and out[1] < 0.01 and out[2] < 1e-8),
        Op("criterion12.dynamics", _criterion_12,
           lambda out: (out[0] == 0.0 and out[1] and out[2] < 0.1
                        and abs(out[3] - 4.0) <= 0.3 and abs(out[4] - 3.0) <= 0.3)),
    ]
    rng = np.random.default_rng(seed)
    ops += [_sweep_op(d, m) for d, m in domain_sweep(rng)]
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]

    warm_up(lambda: profiles.traction_vs_closed_form("normal", profiles.Mode(3, 0.05)))
    return lambda: ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_env():
    """Environment of a CLI subprocess: the checkout's src first, no OUTDIR."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("SLENDERSPEC_OUTDIR", None)
    return env


def run_cli(argv, timeout=170.0):
    """One ``python -m slenderspec.cli`` call: (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "slenderspec.cli", *argv],
                          cwd=ROOT, env=cli_env(), capture_output=True, timeout=timeout)
    return proc.returncode, proc.stdout


def cli_check(reference):
    """Correctness of one CLI call: exit code 0 and byte-identical stdout."""
    def check(out):
        code, stdout = out
        return code == 0 and stdout == reference
    return check


def load_cli_references():
    return {name: (CLI_REFERENCE / f"{name}.out").read_bytes() for name, _ in CLI_CALLS}


def cli_workload(seed):
    import random

    refs = load_cli_references()
    rng = random.Random(seed)
    ops = [Op(f"cli.{name}", (lambda a=argv: run_cli(a)), cli_check(refs[name]))
           for name, argv in CLI_CALLS]

    warm_up(lambda: run_cli(["--help"]))
    return lambda: rng.sample(ops, len(ops))


WORKLOADS = {
    "converge": converge_workload,
    "checks": checks_workload,
    "cli": cli_workload,
}
