"""Run one slenderspec benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``converge``, ``checks``, ``cli``.  Each
runs in this process as a closed loop with one client.  Whole passes over
the workload's operations repeat until ``--seconds`` have elapsed (at least
one pass); every operation's output is checked.

``--trace 0`` reports the end-to-end metrics:

    wall_s       median time of one full, checked pass
    op_p50_ms    median latency of one operation
    op_tail_ms   per pass, the latency at the highest percentile with >= 10
                 operations beyond it (the slowest operation when a pass has
                 10 or fewer); median over passes.  Taken per pass so that it
                 does not depend on how many passes fit in ``--seconds``
    ok_ratio     operations that passed their check / operations attempted
                 (1 - fail_ratio; the complement is bounded because it is never 0)
    setup_s      median over several set-ups of import + input generation +
                 warm-up, measured before the first timed operation
    peak_rss_mb  peak resident memory of the workload process (for ``cli``,
                 the largest CLI subprocess)

``--trace 1`` runs one untraced pass, then the same pass with every
slenderspec binding site wrapped (``tracing.py``), and reports the
per-layer metrics plus ``trace.overhead_ratio`` (traced / untraced pass
time).  For ``cli`` the spans come from the six calls made through
``slenderspec.cli.main`` in this process, after one pass of subprocess calls
and fresh-interpreter timings.  Spans are written to ``.bench_out/`` when the
run ends.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation
whose input lies inside the seed's documented traction defect (see
``workloads.boundary_underflow``) is an expected failure: when it raises or
fails its check it is counted in ``fail_ratio`` and lowers ``ok_ratio``, but
not in ``failed``.  ``failed`` counts every other operation that raised or
failed its check, and ``correct`` is true only when ``failed`` is 0.  The
full record, with host and environment, goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
#: set-ups per run (this process plus fresh probe processes); setup_s is their median
SETUP_SAMPLES = 5
#: fresh-interpreter samples behind cli.interp_s and cli.import_s
START_SAMPLES = 3

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_ratio": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def _use_checkout_src():
    """Import slenderspec from this checkout's src/, or exit 1 without a result."""
    package = ROOT / "src" / "slenderspec" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a slenderspec checkout")
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.find_spec("slenderspec")
    if Path(spec.origin).resolve() != package.resolve():
        sys.exit(f"error: slenderspec resolves to {spec.origin}, not {package}")


def tail(durations):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies; the maximum is given.
    """
    xs = sorted(durations)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _probe_setup(args):
    """setup_s of a fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(next_pass, seconds, tracer=None):
    """Closed loop: whole passes until ``seconds`` elapse; [(samples, wall), ...]."""
    passes = []
    t_start = time.perf_counter()
    while True:
        samples = []
        t0 = time.perf_counter()
        for op in next_pass():
            if tracer is None:
                samples.append(workloads.run_op(op))
            else:
                tracer.op_id += 1
                samples.append(tracer.span("op." + op.name, workloads.run_op, op))
        passes.append((samples, time.perf_counter() - t0))
        if time.perf_counter() - t_start >= seconds:
            return passes


def flatten(passes):
    return [s for samples, _ in passes for s in samples]


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def _blas_threads():
    try:
        import ctypes
        import glob

        import numpy

        libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                      "numpy.libs", "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record(seed):
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload_seed": seed,
    }


def end_to_end(passes, setups, peak_rss_mb):
    samples = flatten(passes)
    durations = [s.seconds for s in samples]
    failed = sum(not s.ok for s in samples)
    expected = sum(not s.ok and s.known_defect for s in samples)
    walls = [wall for _, wall in passes]
    tails = [tail([s.seconds for s in pass_samples]) for pass_samples, _ in passes]
    tail_pct = tails[0][1]
    per_pass = len(passes[0][0])
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_tail_ms": 1e3 * statistics.median(t for t, _ in tails),
        "ok_ratio": (len(samples) - failed) / len(samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"wall_s       {values['wall_s']:.4f} s    (median of {len(walls)} passes)",
        f"op_p50_ms    {values['op_p50_ms']:.4f} ms   (n = {len(durations)} operations)",
        f"op_tail_ms   {values['op_tail_ms']:.4f} ms   (p{tail_pct:.2f} of {per_pass} "
        f"operations per pass, median of {len(walls)} passes)",
        f"fail_ratio   {failed / len(samples):.6f}      ({failed} of {len(samples)} operations, "
        f"{expected} of them inside the documented traction defect)",
        f"ok_ratio     {values['ok_ratio']:.6f}",
        f"setup_s      {values['setup_s']:.4f} s    (median of {len(setups)} set-ups)",
        f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
    ]
    return values, lines, {"op_tail_percentile": tail_pct, "passes": len(walls),
                           "setup_samples": setups}


def result_line(samples, metrics):
    """The closing JSON object; failures inside the known defect are not ``failed``."""
    failed = sum(not s.ok and not s.known_defect for s in samples)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def failure_summary(samples):
    """{op name: {error: count}} of the failed operations."""
    out = {}
    for s in samples:
        if not s.ok:
            kind = (s.error or "").split(":", 1)[0]
            tag = f"{kind} (known defect)" if s.known_defect else kind
            out.setdefault(s.name, {}).setdefault(tag, 0)
            out[s.name][tag] += 1
    return out


def _op_medians(samples, prefix):
    by_name = {}
    for s in samples:
        if s.name.startswith(prefix):
            by_name.setdefault(s.name[len(prefix):], []).append(s.seconds)
    return {name: statistics.median(v) for name, v in by_name.items()}


def _fresh_start_times():
    """Medians of a bare interpreter and of a fresh ``import slenderspec.cli``."""
    env = workloads.cli_env()
    interp, imports = [], []
    for _ in range(START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, timeout=60)
        interp.append(time.perf_counter() - t0)
        code = ("import time; t = time.perf_counter(); import slenderspec.cli; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout.strip()))
    return statistics.median(interp), statistics.median(imports)


def _cli_in_process():
    """The cli calls through ``slenderspec.cli.main`` in this process (for spans)."""
    import contextlib
    import io

    from slenderspec import cli

    refs = workloads.load_cli_references()

    def call(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue().encode()
        return run

    ops = [workloads.Op(f"cli_in_process.{name}", call(argv), workloads.cli_check(refs[name]))
           for name, argv in workloads.CLI_CALLS]
    return lambda: ops


def traced_run(tracing, next_pass, name):
    """One untraced pass, then one traced pass; (samples, per-layer values, tracer)."""
    untraced = run_passes(next_pass, 0)
    samples = flatten(untraced)
    layer = {}
    if name == "cli":
        layer.update({f"cli.{k}.wall_s": v for k, v in _op_medians(samples, "cli.").items()})
        layer["cli.interp_s"], layer["cli.import_s"] = _fresh_start_times()
        next_pass = _cli_in_process()
        untraced = run_passes(next_pass, 0)
        samples += flatten(untraced)
    if name == "checks":
        layer.update({f"checks.{k}.wall_s": v
                      for k, v in _op_medians(samples, "checks.").items()})
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = run_passes(next_pass, 0, tracer=tracer)
    finally:
        tracing.uninstall(saved)
    samples += flatten(traced)
    layer.update(tracing.span_metrics(tracer))
    layer["trace.overhead_ratio"] = traced[0][1] / untraced[0][1]
    return samples, layer, tracer


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=["converge", "checks", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    _use_checkout_src()
    next_pass = workloads.WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - T_START  # includes this process's imports
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        from perfbench import tracing

        samples, layer, tracer = traced_run(tracing, next_pass, args.workload)
        metrics = {}
        lines = ["per-layer metrics (points, coeffs and ns_per_point are computed "
                 "from argument sizes, not measured inside the kernels):"]
        for metric, unit, _ in tracing.LAYER_METRICS:
            value = layer.get(metric, 0)
            metrics[metric] = {"value": value, "unit": unit}
            lines.append(f"  {metric:40s} {value:.6g} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_path)
        record["spans_file"] = spans_path.name
        record["span_count"] = len(tracer.start)
    else:
        setups = [own_setup] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        passes = run_passes(next_pass, args.seconds)
        samples = flatten(passes)
        values, lines, extra = end_to_end(passes, setups,
                                          _peak_rss_mb(children=args.workload == "cli"))
        record.update(extra)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    record.update({
        "host": host_record(args.seed),
        "failures": failure_summary(samples),
        "samples": [[s.name, s.seconds, s.ok] for s in samples],
    })
    result = result_line(samples, metrics)
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(record["host"]))
    for line in lines:
        print(line)
    for op_name, errors in record["failures"].items():
        print(f"failed {op_name}: {errors}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
