"""Command-line surface: spectrum tables, verification, studies, sweeps.

Exit codes: 0 success, 1 a verification failed, 2 usage error.  All
output is deterministic (fixed seeds, fixed formatting) so repeated runs
diff clean.  A key=value config file can pre-populate any flag, and the
SLENDERSPEC_OUTDIR environment variable supplies a default directory for
--output paths given as bare filenames.
"""

from __future__ import annotations

import argparse
import os
import sys


class UsageError(Exception):
    pass


def __getattr__(name):  # perfbench/tracing.py wraps cli.eigenvalues, until ROADMAP item 6
    if name != "eigenvalues":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .spectra import eigenvalues
    return eigenvalues


def _parse_krange(text):
    """'1..50' or '3' or '1,4,9' -> nonempty list of at most K_MAX_LIMIT ints."""
    from .spectra import K_MAX_LIMIT, _count

    if ".." in text:
        lo, hi = (int(p) for p in text.split(".."))
        _count(max(hi - lo + 1, 0), f"the length of k range {text!r}", 0, K_MAX_LIMIT)
        ks = list(range(lo, hi + 1))
    else:
        _count(text.count(",") + 1, "the length of the k list", 1, K_MAX_LIMIT)
        ks = [int(p) for p in text.split(",")]
    if not ks:
        raise ValueError(f"k range {text!r} selects no wavenumber")
    return ks


def _csv(header, rows):
    """A CSV table: floats to 17 significant digits, which read back bit for bit;
    ints and strings as they are."""
    cells = ((format(x, ".17g") if isinstance(x, float) else str(x) for x in row) for row in rows)
    return "\n".join([header, *map(",".join, cells)]) + "\n"


def _emit(text, path):
    """Write ``text`` to stdout, or to ``path``, a bare filename under SLENDERSPEC_OUTDIR."""
    if path is None:
        sys.stdout.write(text)
        return
    outdir = os.environ.get("SLENDERSPEC_OUTDIR")
    if outdir and not os.path.dirname(path):
        path = os.path.join(outdir, path)
    with open(path, "w") as fh:
        fh.write(text)


def _apply_config_defaults(argv):
    """The parser, and argv with --config key=value files expanded into leading defaults.
    Each key must name an option of argv's subcommand, so a file serves one subcommand."""
    # --config=FILE means --config FILE, as --opt=value does for every other flag
    argv = [p for a in argv for p in (a.split("=", 1) if a.startswith("--config=") else [a])]
    i = argv.index("--config") if "--config" in argv else len(argv)
    if i == len(argv) - 1:
        raise UsageError("--config needs a file path")
    rest = argv[:i] + argv[i + 2:]
    parser = build_parser()
    if i == len(argv):
        return parser, rest
    # the subcommand is the first argument once --config FILE is taken out
    command = rest[1] if len(rest) > 1 else None
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(command)  # None: argparse reports the command
    extra = []
    with open(argv[i + 1]) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if sub is not None and f"--{key}" not in sub._option_string_actions:
                raise UsageError(f"config key {key!r} is not an option of {command!r}")
            extra.extend([f"--{key}", value])
    # flags from the command line come last and win over config values;
    # insert right after the subcommand so argparse routes them correctly
    return parser, rest[:2] + extra + rest[2:]


def cmd_spectrum(args):
    import numpy as np
    from .spectra import EigenFamily, eigenvalues

    ks, setting, direction = _parse_krange(args.k), args.setting, args.direction
    rows = []
    for method in args.methods.split(","):
        delta = args.delta if method == "delta_reg" else None
        lam = eigenvalues(EigenFamily(setting, direction, method, delta=delta), args.eps,
                          np.array(ks))
        rows.extend((setting, direction, method, "" if delta is None else delta, args.eps, k, v)
                    for k, v in zip(ks, np.atleast_1d(lam)))
    return _csv("setting,direction,method,delta,eps,k,lambda", rows), 0


def cmd_verify(args):
    from . import checks

    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    results = [checks.SUITES[name]() for name in names]
    out = []
    for r in results:
        out.append(f"[{'PASS' if r.ok else 'FAIL'}] suite {r.name}")
        out.extend(f"  {'ok  ' if ok else 'FAIL'} {check}: {detail:.6e}"
                   for check, (ok, detail) in r.checks.items())
    return "\n".join(out) + "\n", 0 if all(r.ok for r in results) else 1


def cmd_converge(args):
    import json
    import numpy as np
    from . import experiments, spectra

    spectra._check_eps(args.eps_max)
    spectra._check_eps(args.eps_min)
    points = spectra._count(args.eps_points, "--eps-points", 0, spectra.K_MAX_LIMIT)
    eps_grid = np.geomspace(args.eps_max, args.eps_min, points)
    rep = experiments.convergence_study(
        args.setting, args.method, args.regularity, eps_grid=eps_grid,
        seed=args.seed, delta=args.delta, k_max=args.k_max)
    if args.format == "json":
        return json.dumps({
            "setting": rep.setting, "method": rep.method, "regularity": rep.regularity,
            "eps": list(rep.eps_grid), "errors": list(rep.errors), "slope": rep.slope,
            "residual": rep.residual, "seed": rep.seed}) + "\n", 0
    return _csv("setting,method,regularity,seed,eps,error,slope,residual",
                [(rep.setting, rep.method, rep.regularity, rep.seed, e, err, rep.slope,
                  rep.residual) for e, err in zip(rep.eps_grid, rep.errors)]), 0


def cmd_delta_opt(args):
    from . import experiments

    return f"{experiments.optimal_delta(args.setting, args.ratio):.10f}\n", 0


def cmd_dynamics(args):
    import numpy as np
    from . import dynamics, spectra

    if args.energy_mode is not None:
        steps = spectra._count(args.steps, "--steps", 0, spectra.K_MAX_LIMIT)
        if args.dt is not None and not 0.0 < args.dt < np.inf:
            raise ValueError("--dt must be finite and positive")
        state = dynamics.single_mode_state(args.eps, args.k_max, args.energy_mode)
        dt = 0.5 * dynamics.max_stable_dt(args.eps, args.k_max) if args.dt is None else args.dt
        rows = []
        for i in range(steps + 1):
            if i:
                state = dynamics.step(state, dt, args.scheme)
            rows.append((i, state.t, dynamics.energy(state)))
        return _csv("step,t,energy", rows), 0
    return _csv("eps,K_max,ds,dt_max_analytic,dt_max_empirical",
                dynamics.stability_sweep(args.eps, _parse_krange(args.sweep))), 0


def cmd_profile(args):
    import numpy as np
    from . import profiles, spectra

    points = spectra._count(args.points, "--points", 1, spectra.K_MAX_LIMIT)
    if not np.isfinite(args.r_mult):
        raise ValueError("--r-mult must be finite")
    mode = spectra.Mode(args.k, args.eps)
    sol = profiles.solve_mode(args.direction, mode)
    r = np.linspace(args.eps, args.eps * args.r_mult, points)
    prof = profiles.evaluate_profile(sol, r)
    cols = profiles._PROFILES[args.direction].columns
    parts = [part for c in cols for part in (prof[c].real, prof[c].imag)]
    return _csv("r," + ",".join(f"{c}_re,{c}_im" for c in cols), zip(r, *parts)), 0


def build_parser():
    """Every subcommand with all its arguments, the choice lists from the numpy-free ``tables``."""
    from .tables import _DIRECTIONS, _SETTINGS, PROFILE_DIRECTIONS, SUITE_NAMES

    p = argparse.ArgumentParser(
        prog="slenderspec",
        description="Spectra of the slender-fiber inverse problem: tables, "
                    "verification suites, convergence and stability studies.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalue tables as CSV")
    sp.add_argument("--setting", choices=list(_SETTINGS), required=True)
    sp.add_argument("--direction", choices=list(_DIRECTIONS), required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--k", default="1..50", help="k range, e.g. 1..50 or 3 or 1,4,9")
    sp.add_argument("--methods", default="pde,sbt,delta_reg")
    sp.add_argument("--delta", type=float, default=2.0)
    sp.set_defaults(func=cmd_spectrum)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    vp.set_defaults(func=cmd_verify)

    cp = sub.add_parser("converge", help="convergence-rate study")
    cp.add_argument("--setting", choices=list(_SETTINGS), required=True)
    cp.add_argument("--method", choices=["sbt_truncated", "delta_reg"], required=True)
    cp.add_argument("--regularity", choices=["H1", "H2"], default="H1")
    cp.add_argument("--eps-max", type=float, default=10**-1.5)
    cp.add_argument("--eps-min", type=float, default=1e-3)
    cp.add_argument("--eps-points", type=int, default=6)
    cp.add_argument("--seed", type=int, default=11)
    cp.add_argument("--delta", type=float, default=2.0)
    cp.add_argument("--k-max", type=int, default=None)
    cp.add_argument("--format", choices=["json", "csv"], default="json")
    cp.set_defaults(func=cmd_converge)

    dp = sub.add_parser("delta-opt", help="optimal regularization parameter")
    dp.add_argument("--setting", choices=list(_SETTINGS), required=True)
    dp.add_argument("--ratio", type=float, required=True)
    dp.set_defaults(func=cmd_delta_opt)

    yp = sub.add_parser("dynamics", help="stability sweep or per-step energy CSV")
    yp.add_argument("--eps", type=float, required=True)
    yp.add_argument("--sweep", default="8,16,32,64,128",
                    help="K_max values for the stability sweep")
    yp.add_argument("--energy-mode", type=int, default=None,
                    help="emit per-step energy of this single mode instead")
    yp.add_argument("--k-max", type=int, default=64)
    yp.add_argument("--steps", type=int, default=200)
    yp.add_argument("--dt", type=float, default=None)
    yp.add_argument("--scheme", choices=["explicit_euler", "implicit_exact"],
                    default="implicit_exact")
    yp.set_defaults(func=cmd_dynamics)

    pp = sub.add_parser("profile", help="radial velocity/pressure profiles as CSV")
    pp.add_argument("--direction", choices=list(PROFILE_DIRECTIONS), required=True)
    pp.add_argument("--eps", type=float, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--r-mult", type=float, default=10.0)
    pp.add_argument("--points", type=int, default=100)
    pp.set_defaults(func=cmd_profile)
    for subparser in sub.choices.values():
        subparser.add_argument("--output")
    return p


def main(argv=None):
    argv = list(sys.argv if argv is None else ["slenderspec"] + list(argv))
    try:
        parser, argv = _apply_config_defaults(argv)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text, code = args.func(args)
        _emit(text, args.output)
        return code
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
