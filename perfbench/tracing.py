"""Spans around calls into each slenderspec layer, recorded from outside.

The modules import public functions by name, so a function is wrapped where
it is bound in the module that calls it (``sites``).  Each wrapped call
records a span: name, start, end, parent span and operation id.  Spans stay
in memory and are written when the run ends.  A layer's self time is its
spans' duration minus the time covered by their child spans.

``points``, ``coeffs`` and ``ns_per_point`` are computed from argument
sizes at the call boundary, not measured inside the kernels.

Only a traced run installs wrappers; ``install`` returns what ``uninstall``
needs to put every original object back.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# span names shared by several binding sites
BESSEL_K = "bessel.bessel_k"
RATIO = "bessel.ratio"


class UniqueK:
    """Distinct (family, eps, |k|) triples over all eigenvalue points."""

    _SMALL = 64

    def __init__(self):
        self.points = 0
        self._small = defaultdict(set)
        self._bitmaps = {}

    def add(self, family, eps, k):
        k = np.abs(np.atleast_1d(np.asarray(k))).astype(np.int64)
        self.points += k.size
        key = (family, float(eps))
        if k.size <= self._SMALL:
            self._small[key].update(k.tolist())
            return
        bitmap = self._bitmaps.get(key)
        top = int(k.max()) + 1
        if bitmap is None or bitmap.size < top:
            grown = np.zeros(top, dtype=bool)
            if bitmap is not None:
                grown[:bitmap.size] = bitmap
            bitmap = self._bitmaps[key] = grown
        bitmap[k] = True

    def distinct(self):
        total = 0
        for key in set(self._small) | set(self._bitmaps):
            bitmap = self._bitmaps.get(key)
            small = self._small.get(key, ())
            if bitmap is None:
                total += len(small)
            else:
                total += int(bitmap.sum()) + sum(
                    1 for k in small if k >= bitmap.size or not bitmap[k])
        return total


class Tracer:
    """In-memory span store plus per-name counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child_time = array("d")
        self.failed = Counter()
        self.counts = Counter()
        self.unique_k = UniqueK()
        self.op_id = -1
        self._stack = []

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.child_time.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child_time[parent] += t - self.start[idx]

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            self.close(idx)

    def totals(self):
        """{name: (calls, total seconds, self seconds)}."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur - np.frombuffer(self.child_time)
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            out[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
        return out

    def write(self, path):
        """Write every span as compressed arrays (names indexed by ``name_id``)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32))


# ---------------------------------------------------------------------------
# argument-size counters
# ---------------------------------------------------------------------------

def _count_z(prefix, z, tracer, cutoff):
    if isinstance(z, float | int):
        tracer.counts[prefix + ".points"] += 1
        tracer.counts[prefix + ".scalar_calls"] += 1
        tracer.counts[prefix + ".cf_points"] += z > cutoff
        return
    z = np.asarray(z)
    tracer.counts[prefix + ".points"] += z.size
    tracer.counts[prefix + ".scalar_calls"] += z.size == 1
    tracer.counts[prefix + ".cf_points"] += int(np.count_nonzero(z > cutoff))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bessel_counter(cutoff):
    def count(tracer, args, kwargs):
        _count_z(BESSEL_K, _arg(args, kwargs, 1, "z"), tracer, cutoff)
    return count


def _ratio_counter(cutoff):
    def count(tracer, args, kwargs):
        _count_z(RATIO, _arg(args, kwargs, 0, "z"), tracer, cutoff)
    return count


def _oracle_counter(tracer, args, kwargs):
    tracer.counts["bessel.oracle.points"] += np.size(_arg(args, kwargs, 1, "z"))


def _eigenvalues_counter(tracer, args, kwargs):
    tracer.unique_k.add(_arg(args, kwargs, 0, "family"), _arg(args, kwargs, 1, "eps"),
                        _arg(args, kwargs, 2, "k"))


def _apply_operator_counter(tracer, args, kwargs):
    field = _arg(args, kwargs, 1, "field")
    tracer.counts["operators.apply_operator.coeffs"] += field.coeffs.size


def _nu_counter(tracer, args, kwargs):
    tracer.counts["dynamics.nu.points"] += np.size(_arg(args, kwargs, 1, "k"))


def sites():
    """(module, attribute, span name, counter) for every binding site wrapped."""
    from slenderspec import bessel

    cutoff = bessel.SERIES_CUTOFF
    bessel_count = _bessel_counter(cutoff)
    ratio_count = _ratio_counter(cutoff)
    return (
        # bound where the callers import them by name
        ("slenderspec.experiments", "apply_operator", "operators.apply_operator",
         _apply_operator_counter),
        ("slenderspec.experiments", "make_test_field", "operators.make_test_field", None),
        ("slenderspec.experiments", "sobolev_norm", "operators.sobolev_norm", None),
        ("slenderspec.operators", "eigenvalues", "spectra.eigenvalues", _eigenvalues_counter),
        ("slenderspec.dynamics", "eigenvalues", "spectra.eigenvalues", _eigenvalues_counter),
        ("slenderspec.cli", "eigenvalues", "spectra.eigenvalues", _eigenvalues_counter),
        ("slenderspec.spectra", "ratio_A", RATIO, ratio_count),
        ("slenderspec.spectra", "ratio_B", RATIO, ratio_count),
        ("slenderspec.spectra", "bessel_k", BESSEL_K, bessel_count),
        ("slenderspec.profiles", "bessel_k", BESSEL_K, bessel_count),
        ("slenderspec.profiles", "bessel_k_detail", "bessel.bessel_k_detail", None),
        # module attributes, which ``checks`` and in-module callers look up
        ("slenderspec.bessel", "bessel_k", BESSEL_K, bessel_count),
        ("slenderspec.bessel", "oracle_bessel_k", "bessel.oracle", _oracle_counter),
        ("slenderspec.spectra", "eigenvalues", "spectra.eigenvalues", _eigenvalues_counter),
        ("slenderspec.spectra", "b_function", "spectra.b_function", None),
        ("slenderspec.spectra", "eigen_difference_margin", "spectra.eigen_difference_margin",
         None),
        ("slenderspec.spectra", "gronwall_constants", "spectra.gronwall_constants", None),
        ("slenderspec.dynamics", "nu", "dynamics.nu", _nu_counter),
        ("slenderspec.dynamics", "max_stable_dt", "dynamics.max_stable_dt", None),
        ("slenderspec.experiments", "convergence_study", "experiments.convergence_study", None),
        ("slenderspec.experiments", "optimal_delta", "experiments.optimal_delta", None),
        ("slenderspec.profiles", "traction_vs_closed_form", "profiles.traction", None),
        ("slenderspec.profiles", "solve_mode", "profiles.solve_mode", None),
    )


def _wrap(tracer, name, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(tracer, args, kwargs)
        return tracer.span(name, fn, *args, **kwargs)
    return wrapper


def install(tracer):
    """Wrap every site; returns the (module, attribute, original) list."""
    saved = []
    for mod_name, attr, name, counter in sites():
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, name, original, counter))
    return saved


def uninstall(saved):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("bessel.bessel_k.calls", "count", "lower"),
    ("bessel.bessel_k.points", "arg_points", "lower"),
    ("bessel.bessel_k.self_s", "s", "lower"),
    ("bessel.ratio.calls", "count", "lower"),
    ("bessel.ratio.points", "arg_points", "lower"),
    ("bessel.ratio.self_s", "s", "lower"),
    ("bessel.oracle.points", "arg_points", "lower"),
    ("bessel.oracle.self_s", "s", "lower"),
    ("bessel.ns_per_point", "ns/arg_point", "lower"),
    ("bessel.cf_share", "ratio", "lower"),
    ("bessel.scalar_call_share", "ratio", "lower"),
    ("spectra.eigenvalues.calls", "count", "lower"),
    ("spectra.eigenvalues.points", "arg_points", "lower"),
    ("spectra.eigenvalues.self_s", "s", "lower"),
    ("spectra.b_function.calls", "count", "lower"),
    ("spectra.b_function.self_s", "s", "lower"),
    ("spectra.unique_ratio", "ratio", "higher"),
    ("spectra.eigen_difference_margin.calls", "count", "lower"),
    ("spectra.gronwall_constants.calls", "count", "lower"),
    ("operators.apply_operator.calls", "count", "lower"),
    ("operators.apply_operator.coeffs", "arg_coeffs", "lower"),
    ("operators.apply_operator.self_s", "s", "lower"),
    ("operators.make_test_field.self_s", "s", "lower"),
    ("experiments.convergence_study.calls", "count", "lower"),
    ("experiments.convergence_study.self_s", "s", "lower"),
    ("experiments.optimal_delta.self_s", "s", "lower"),
    ("profiles.traction.calls", "count", "lower"),
    ("profiles.traction.self_s", "s", "lower"),
    ("profiles.traction.failed", "count", "lower"),
    ("profiles.solve_mode.calls", "count", "lower"),
    ("dynamics.nu.points", "arg_points", "lower"),
    ("dynamics.max_stable_dt.calls", "count", "lower"),
    ("dynamics.max_stable_dt.self_s", "s", "lower"),
    ("checks.bessel.wall_s", "s", "lower"),
    ("checks.oracle.wall_s", "s", "lower"),
    ("checks.inequalities.wall_s", "s", "lower"),
    ("checks.appendixC.wall_s", "s", "lower"),
    ("checks.differences.wall_s", "s", "lower"),
    ("checks.dynamics.wall_s", "s", "lower"),
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.spectrum.wall_s", "s", "lower"),
    ("cli.verify.wall_s", "s", "lower"),
    ("cli.converge.wall_s", "s", "lower"),
    ("cli.delta-opt.wall_s", "s", "lower"),
    ("cli.dynamics.wall_s", "s", "lower"),
    ("cli.profile.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def span_metrics(tracer):
    """Per-layer values the spans and counters give, by metric name."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    out = {}
    for name in ("bessel.bessel_k", "bessel.ratio", "spectra.eigenvalues",
                 "spectra.b_function", "operators.apply_operator",
                 "experiments.convergence_study", "profiles.traction",
                 "dynamics.max_stable_dt"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for name in ("spectra.eigen_difference_margin", "spectra.gronwall_constants",
                 "profiles.solve_mode"):
        out[name + ".calls"] = calls(name)
    for name in ("operators.make_test_field", "experiments.optimal_delta", "bessel.oracle"):
        out[name + ".self_s"] = self_s(name)
    for name in ("bessel.bessel_k.points", "bessel.ratio.points", "bessel.oracle.points",
                 "operators.apply_operator.coeffs", "dynamics.nu.points"):
        out[name] = int(counts[name])
    out["spectra.eigenvalues.points"] = tracer.unique_k.points
    out["profiles.traction.failed"] = tracer.failed["profiles.traction"]

    kernel_points = counts[BESSEL_K + ".points"] + counts[RATIO + ".points"]
    kernel_calls = calls(BESSEL_K) + calls(RATIO)
    kernel_self = self_s(BESSEL_K) + self_s(RATIO)
    out["bessel.ns_per_point"] = 1e9 * kernel_self / kernel_points if kernel_points else 0.0
    out["bessel.cf_share"] = ((counts[BESSEL_K + ".cf_points"] + counts[RATIO + ".cf_points"])
                              / kernel_points if kernel_points else 0.0)
    out["bessel.scalar_call_share"] = (
        (counts[BESSEL_K + ".scalar_calls"] + counts[RATIO + ".scalar_calls"]) / kernel_calls
        if kernel_calls else 0.0)
    points = tracer.unique_k.points
    out["spectra.unique_ratio"] = tracer.unique_k.distinct() / points if points else 0.0
    return out
