"""
Per-layer metrics from the spans the traced launcher records.

A span is a dict with keys ``id``, ``parent``, ``name`` ("layer.function"),
``start``, ``end``, ``thread``, ``n`` (problem size taken from the first
argument, 0 when it has none), ``size`` (element count of the first array
argument, 0 when it is not an array) and ``error``.  One invocation of the
CLI gives one list of spans; a pass of a workload gives one list per
invocation.

Definitions used throughout:

* busy time of a layer or function: the summed duration of its outermost
  spans, i.e. spans with no ancestor in the same layer (or of the same
  function).  Spans running concurrently in pool threads add up, so busy
  time is thread-seconds.
* self time of a span: its duration minus the part of its interval covered
  by the union of its children's intervals.  Children that overlap because
  they ran in different threads are counted once.
* ``n_exp``: least-squares slope of log(median seconds) against log(N) over
  the distinct sizes N > 0 a function was called with; 0.0 with fewer than
  two sizes.
"""

import math
import statistics

MB = 1 << 20

LAYERS = (
    "cli",
    "matcore",
    "grvv",
    "su2rep",
    "harmonics",
    "superalg",
    "equivalence",
    "geometry",
    "spectra",
)

# bytes of the dense operator each spectrum call builds, from its size N
DENSE_BYTES = {
    "spectra.fuzzy_laplacian_spectrum": lambda n: 16 * n**4,
    "spectra.scalar_kinetic_spectrum": lambda n: 144 * n**4,
}

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [
        (f"{layer}.{field}", unit, "lower")
        for layer in LAYERS
        for field, unit in (
            ("calls", "count"),
            ("busy_s", "s"),
            ("self_s", "s"),
            ("errors", "count"),
        )
    ]
    + [
        ("harmonics.build_basis.calls", "count", "lower"),
        ("harmonics.build_basis.busy_s", "s", "lower"),
        ("harmonics.build_basis.n_exp", "exponent", "lower"),
        ("harmonics.build_basis.reuse", "ratio", "higher"),
        ("harmonics.decompose_bifundamental.busy_s", "s", "lower"),
        ("harmonics.decompose_bifundamental.n_exp", "exponent", "lower"),
        ("spectra.fuzzy_laplacian_spectrum.busy_s", "s", "lower"),
        ("spectra.fuzzy_laplacian_spectrum.n_exp", "exponent", "lower"),
        ("spectra.scalar_kinetic_spectrum.busy_s", "s", "lower"),
        ("spectra.mode_convergence.busy_s", "s", "lower"),
        ("spectra.dense_mb", "MB-computed", "lower"),
        ("superalg.calibrate.busy_s", "s", "lower"),
        ("superalg.build.calls", "count", "lower"),
        ("superalg.hit_ratio", "ratio", "higher"),
        ("su2rep.bilinears.calls", "count", "lower"),
        ("su2rep.bilinears.busy_s", "s", "lower"),
        ("grvv.ground_state.calls", "count", "lower"),
        ("grvv.ground_state.reuse", "ratio", "higher"),
        ("grvv.gauge_dress.busy_s", "s", "lower"),
        ("equivalence.canonicalize.busy_s", "s", "lower"),
        ("equivalence.canonicalize.n_exp", "exponent", "lower"),
        ("equivalence.round_trip.busy_s", "s", "lower"),
        ("geometry.identification_check.busy_s", "s", "lower"),
        ("geometry.grid_report.busy_s", "s", "lower"),
        ("geometry.killing_spinor.calls", "count", "lower"),
        ("geometry.killing_spinor.points_per_s", "1/s", "higher"),
        ("matcore.matrix_to_json.busy_s", "s", "lower"),
        ("matcore.matrix_to_json.mb_per_s", "MB/s", "higher"),
        ("matcore.matrix_from_json.busy_s", "s", "lower"),
        ("matcore.random_unitary.busy_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.overlap", "ratio", "higher"),
        ("trace_overhead_s", "s", "lower"),
    ]
)


def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """{span id: self time} for one invocation's spans."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - union_length(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def outermost(spans, key):
    """Spans with no ancestor sharing ``key(span)``."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        k = key(s)
        p = by_id.get(s["parent"])
        while p is not None and key(p) != k:
            p = by_id.get(p["parent"])
        if p is None:
            out.append(s)
    return out


def fit_exponent(samples):
    """Slope of log(median t) on log(N) over (N, seconds) samples with N > 0."""
    by_n = {}
    for n, t in samples:
        if n > 0 and t > 0:
            by_n.setdefault(n, []).append(t)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(ts)) for ts in by_n.values()]
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _duration(s):
    return s["end"] - s["start"]


def pass_metrics(invocations, import_s):
    """Per-layer metrics of one traced pass.

    ``invocations`` is a list of span lists, one per CLI invocation;
    ``import_s`` the list of per-invocation import times of ``fuzzball.cli``.
    """
    calls = {}
    errors = {}
    busy = {}
    self_s = {}
    fn_busy = {}
    fn_calls = {}
    fn_samples = {}
    fn_sizes = {}
    fn_size_sum = {}
    overlap_busy = overlap_union = 0.0
    for spans in invocations:
        selfs = self_times(spans)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            layer = layer_of(s["name"])
            calls[layer] = calls.get(layer, 0) + 1
            errors[layer] = errors.get(layer, 0) + int(s["error"])
            self_s[layer] = self_s.get(layer, 0.0) + selfs[s["id"]]
            fn_calls[s["name"]] = fn_calls.get(s["name"], 0) + 1
            fn_sizes.setdefault(s["name"], set()).add(s["n"])
        for s in outermost(spans, lambda s: layer_of(s["name"])):
            layer = layer_of(s["name"])
            busy[layer] = busy.get(layer, 0.0) + _duration(s)
        for s in outermost(spans, lambda s: s["name"]):
            fn_busy[s["name"]] = fn_busy.get(s["name"], 0.0) + _duration(s)
            fn_samples.setdefault(s["name"], []).append((s["n"], _duration(s)))
            fn_size_sum[s["name"]] = fn_size_sum.get(s["name"], 0) + s["size"]
        # concurrency below the CLI: busy time of the work it hands out over
        # the wall time that work covers
        handed = [
            (s["start"], s["end"])
            for s in spans
            if layer_of(s["name"]) != "cli"
            and s["parent"] in by_id
            and layer_of(by_id[s["parent"]]["name"]) == "cli"
        ]
        overlap_busy += sum(e - b for b, e in handed)
        overlap_union += union_length(handed)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.errors"] = errors.get(layer, 0)

    def fb(name):
        return fn_busy.get(name, 0.0)

    def fc(name):
        return fn_calls.get(name, 0)

    def exp(name):
        return fit_exponent(fn_samples.get(name, ()))

    def reuse(name):
        return ratio(len(fn_sizes.get(name, ())), fc(name))

    dense = sum(
        DENSE_BYTES[name](n)
        for name in DENSE_BYTES
        for n, _ in fn_samples.get(name, ())
    )
    out.update(
        {
            "harmonics.build_basis.calls": fc("harmonics.build_basis"),
            "harmonics.build_basis.busy_s": fb("harmonics.build_basis"),
            "harmonics.build_basis.n_exp": exp("harmonics.build_basis"),
            "harmonics.build_basis.reuse": reuse("harmonics.build_basis"),
            "harmonics.decompose_bifundamental.busy_s": fb("harmonics.decompose_bifundamental"),
            "harmonics.decompose_bifundamental.n_exp": exp("harmonics.decompose_bifundamental"),
            "spectra.fuzzy_laplacian_spectrum.busy_s": fb("spectra.fuzzy_laplacian_spectrum"),
            "spectra.fuzzy_laplacian_spectrum.n_exp": exp("spectra.fuzzy_laplacian_spectrum"),
            "spectra.scalar_kinetic_spectrum.busy_s": fb("spectra.scalar_kinetic_spectrum"),
            "spectra.mode_convergence.busy_s": fb("spectra.mode_convergence"),
            "spectra.dense_mb": dense / MB,
            "superalg.calibrate.busy_s": fb("superalg.calibrate"),
            "superalg.build.calls": fc("superalg.build"),
            "superalg.hit_ratio": ratio(fc("superalg.calibrate"), fc("superalg.build")),
            "su2rep.bilinears.calls": fc("su2rep.bilinears"),
            "su2rep.bilinears.busy_s": fb("su2rep.bilinears"),
            "grvv.ground_state.calls": fc("grvv.ground_state"),
            "grvv.ground_state.reuse": reuse("grvv.ground_state"),
            "grvv.gauge_dress.busy_s": fb("grvv.gauge_dress"),
            "equivalence.canonicalize.busy_s": fb("equivalence.canonicalize"),
            "equivalence.canonicalize.n_exp": exp("equivalence.canonicalize"),
            "equivalence.round_trip.busy_s": fb("equivalence.round_trip"),
            "geometry.identification_check.busy_s": fb("geometry.identification_check"),
            "geometry.grid_report.busy_s": fb("geometry.grid_report"),
            "geometry.killing_spinor.calls": fc("geometry.killing_spinor"),
            "geometry.killing_spinor.points_per_s": ratio(
                fn_size_sum.get("geometry.killing_spinor", 0), fb("geometry.killing_spinor")
            ),
            "matcore.matrix_to_json.busy_s": fb("matcore.matrix_to_json"),
            # complex128 payload bytes of the matrices serialised
            "matcore.matrix_to_json.mb_per_s": ratio(
                16 * fn_size_sum.get("matcore.matrix_to_json", 0) / MB,
                fb("matcore.matrix_to_json"),
            ),
            "matcore.matrix_from_json.busy_s": fb("matcore.matrix_from_json"),
            "matcore.random_unitary.busy_s": fb("matcore.random_unitary"),
            "cli.import_s": statistics.median(import_s) if import_s else 0.0,
            "cli.overlap": ratio(overlap_busy, overlap_union),
        }
    )
    return out
