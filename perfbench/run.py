"""
Benchmark of the ``fuzzball`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the CLI runs from ``src/`` as
``python -m fuzzball``.  The loop is closed with one client: one CLI process
at a time, with the caller's environment apart from ``FUZZBALL_THREADS``,
which is removed, so the CLI's own defaults (thread pool, BLAS threads) are
what gets measured.

``--trace 0`` samples set-up time (``fuzzball --help``) several times, then
repeats passes over the workload's command list until ``--seconds`` is
spent, and reports medians over passes.  ``--trace 1`` alternates untraced
passes with passes run under ``perfbench/launch.py`` and reports per-layer
metrics plus the tracing overhead.  Every output is checked after each pass,
outside the timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment block, goes to ``perfbench/results/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
STAGES = ("verify", "gen", "spectrum", "converge", "decompose")
# reported in the final line with --trace 0 (present on every workload)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("FUZZBALL_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, work, env, stdout_path, stderr_path):
    """Run one process to completion; return (wall s, exit code, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / layers.MB


def _read(path):
    with open(path, errors="replace") as fh:
        return fh.read()


class Runner:
    def __init__(self, workload, seed, work):
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.known = workloads.known_failures(workload)
        self.attempted = 0
        self.failed = []  # check ids, one entry per failed check per pass
        self.check_notes = []

    def cli(self, args, label, spans=None):
        out = os.path.join(self.work, f"{label}.out")
        err = os.path.join(self.work, f"{label}.err")
        if spans is None:
            cmd = [sys.executable, "-m", "fuzzball", *args]
        else:
            cmd = [sys.executable, LAUNCH, spans, *args]
        wall, rc, rss = run_child(cmd, self.work, self.env, out, err)
        return wall, rc, rss, out, err

    def prepare(self):
        _, rc, _, _, err = self.cli(["--help"], "warmup")
        if rc != 0:
            raise BenchError(f"fuzzball --help exited {rc}: {_read(err)[-500:]}")
        if self.workload.inputs:
            def run_cli(args):
                _, rc, _, _, err = self.cli(args, "inputs")
                if rc != 0:
                    raise BenchError(f"input generation {args} exited {rc}: {_read(err)[-500:]}")

            self.workload.inputs(self.seed, self.work, run_cli)

    def setup_samples(self):
        samples = []
        for _ in range(SETUP_SAMPLES):
            wall, rc, _, _, err = self.cli(["--help"], "setup")
            if rc != 0:
                raise BenchError(f"fuzzball --help exited {rc}: {_read(err)[-500:]}")
            samples.append(wall)
        return samples

    def one_pass(self, traced=False):
        """Run the command list once; return per-pass measurements."""
        steps = self.workload.steps(self.seed, self.work)
        record = {"wall_s": 0.0, "peak_rss_mb": 0.0, "output_bytes": 0, "steps": []}
        record.update({f"{s}_s": 0.0 for s in STAGES})
        spans = []
        for step in steps:
            for path in step.outputs:
                if os.path.exists(path):
                    os.remove(path)
            span_path = os.path.join(self.work, f"{step.label}.spans.json") if traced else None
            wall, rc, rss, out, err = self.cli(step.args, step.label, span_path)
            record["wall_s"] += wall
            record[f"{step.subcommand}_s"] += wall
            record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
            nbytes = os.path.getsize(out) + sum(
                os.path.getsize(p) for p in step.outputs if os.path.exists(p)
            )
            record["output_bytes"] += nbytes
            record["steps"].append(
                {"label": step.label, "argv": step.args, "wall_s": wall, "exit": rc,
                 "peak_rss_mb": rss, "output_bytes": nbytes}
            )
            if traced:
                spans.append(span_path)
            self.check(step, rc, out, err)
        return record, spans

    def check(self, step, rc, out, err):
        stderr = _read(err)
        if step.rows is not None:
            try:
                with open(out) as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                report = None
            attempted, failed = workloads.count_verify(step.rows, report, rc, stderr)
        else:
            attempted, failed = workloads.count_command(rc, stderr)
        if step.check is not None:
            try:
                results = step.check(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                results = [("output", False, f"{type(exc).__name__}: {exc}")]
            attempted += len(results)
            for name, ok, detail in results:
                if not ok:
                    failed.append(name)
                    self.check_notes.append(f"{step.label}:{name}: {detail}")
        self.attempted += attempted
        self.failed += [f"{step.label}:{f}" for f in failed]

    @property
    def unexpected(self):
        return sorted({f for f in self.failed if f not in self.known})

    @property
    def correct(self):
        return not self.unexpected


def summarize(samples):
    """Median, the highest percentile with ten samples above it (if any), n."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "max": max(samples)}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return out


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        ref = _read(head).strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = os.path.join(ROOT, ".git", name)
            if os.path.exists(path):
                return _read(path).strip()
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "FUZZBALL_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "argv": sys.argv,
    }


def another_pass_fits(start, pass_start, seconds):
    """True if one more pass as long as the last (checks included) still ends
    within ``seconds`` of ``start``, so a run never overshoots by a pass."""
    now = time.perf_counter()
    return (now - start) + (now - pass_start) <= seconds


def measure(runner, seconds):
    """--trace 0: set-up samples, then passes (with their checks) for
    ``seconds``; at least one."""
    setup = runner.setup_samples()
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        record, _ = runner.one_pass()
        passes.append(record)
        if not another_pass_fits(start, t0, seconds):
            break
    series = {"setup_s": setup}
    for key in ("wall_s", "peak_rss_mb") + tuple(f"{s}_s" for s in STAGES):
        series[key] = [p[key] for p in passes]
    series["output_mb"] = [p["output_bytes"] / layers.MB for p in passes]
    stats = {k: summarize(v) for k, v in series.items() if any(v)}
    metrics = {
        name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END
    }
    return metrics, stats, passes


def traced_measure(runner, seconds):
    """--trace 1: alternate untraced and traced passes."""
    per_pass = []
    overheads = []
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain, _ = runner.one_pass()
        traced, span_paths = runner.one_pass(traced=True)
        passes += [plain, traced]
        invocations, import_s = [], []
        for path in span_paths:
            try:
                with open(path) as fh:
                    obj = json.load(fh)
            except (OSError, ValueError):
                continue  # the invocation died before writing spans
            invocations.append(obj["spans"])
            import_s.append(obj["import_s"])
        m = layers.pass_metrics(invocations, import_s)
        per_pass.append(m)
        overheads.append(traced["wall_s"] - plain["wall_s"])
        if not another_pass_fits(start, t0, seconds):
            break
    metrics = {}
    for name, unit, _ in layers.METRICS:
        if name == "trace_overhead_s":
            value = statistics.median(overheads)
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    stats = {"trace_overhead_s": summarize(overheads),
             "untraced_wall_s": summarize([p["wall_s"] for p in passes[0::2]]),
             "traced_wall_s": summarize([p["wall_s"] for p in passes[1::2]])}
    return metrics, stats, passes


def run_workload(name, args):
    work = os.path.join(HERE, "work", f"{name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(name, args.seed, work)
        runner.prepare()
        if args.trace:
            metrics, stats, passes = traced_measure(runner, args.seconds)
        else:
            metrics, stats, passes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failed)
    result = {
        "workload": name,
        "trace": args.trace,
        "env": environment(args),
        "stats": stats,
        "metrics": metrics,
        "checks": {
            "attempted": runner.attempted,
            "failed": failed,
            "fail_ratio": failed / runner.attempted,
            "known_failures_hit": sorted(set(runner.failed) & set(runner.known)),
            "unexpected_failures": runner.unexpected,
            "notes": runner.check_notes,
        },
        "passes": passes,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print_summary(result, path)
    return runner, metrics


def print_summary(result, path):
    units = dict(END_TO_END)
    units.update({f"{s}_s": "s" for s in STAGES})
    units.update({"untraced_wall_s": "s", "traced_wall_s": "s", "trace_overhead_s": "s"})
    print(f"== {result['workload']} (trace {result['trace']}) -> {path}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for key, st in result["stats"].items():
        tail = " ".join(f"{k} {v:.4f}" for k, v in st.items() if k.startswith("p"))
        tail = tail or "no tail percentile (n < 20)"
        print(f"  {key:<18} median {st['median']:.4f} {units.get(key, '')}"
              f"  n={st['n']} max {st['max']:.4f}  {tail}")
    c = result["checks"]
    print(f"  fail_ratio         {c['fail_ratio']:.4f} ratio"
          f"  ({c['failed']} failed of {c['attempted']} checks)")
    print(f"  known failures hit: {', '.join(c['known_failures_hit']) or 'none'}")
    if c["unexpected_failures"]:
        print(f"  UNEXPECTED failures: {', '.join(c['unexpected_failures'])}")
    for note in c["notes"]:
        print(f"  note: {note}")
    if result["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fuzzball", "cli.py")):
        print(f"error: no fuzzball sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            runner, m = run_workload(name, args)
            correct &= runner.correct
            attempted += runner.attempted
            failed += len(runner.failed)
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
