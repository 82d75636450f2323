"""Tests of the benchmark's own arithmetic: self time under overlapping
threads, the scaling-exponent fit, manifest counting and span recording."""

import json
import math
import os
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import launch  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, name, start, end, thread=1, n=0, size=0, error=False):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "thread": thread, "n": n, "size": size, "error": error}


def test_union_length_merges_overlaps_and_clips():
    assert layers.union_length([]) == 0.0
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert layers.union_length([(0, 10)], 2, 4) == 2.0
    assert layers.union_length([(0, 1), (1, 2)]) == 2.0


def test_self_time_counts_overlapping_thread_children_once():
    # a CLI span hands two kernels to pool threads; they overlap in [2, 4]
    spans = [
        span(1, None, "cli.cmd_verify", 0.0, 10.0, thread=1),
        span(2, 1, "su2rep.bilinears", 1.0, 4.0, thread=2),
        span(3, 1, "superalg.calibrate", 2.0, 6.0, thread=3),
        span(4, 3, "superalg.build", 2.5, 3.5, thread=3),
    ]
    selfs = layers.self_times(spans)
    assert math.isclose(selfs[1], 10.0 - 5.0)  # union [1, 6], not 3 + 4
    assert math.isclose(selfs[3], 4.0 - 1.0)
    assert math.isclose(selfs[2], 3.0)
    m = layers.pass_metrics([spans], [0.4])
    assert math.isclose(m["cli.self_s"], 5.0)
    assert math.isclose(m["superalg.busy_s"], 4.0)  # build is nested in calibrate
    assert math.isclose(m["superalg.self_s"], 3.0 + 1.0)
    assert math.isclose(m["cli.overlap"], (3.0 + 4.0) / 5.0)
    assert m["superalg.hit_ratio"] == 1.0
    assert m["cli.import_s"] == 0.4


def test_self_times_sum_to_root_duration():
    spans = [
        span(1, None, "cli.main", 0.0, 8.0),
        span(2, 1, "cli.cmd_gen", 1.0, 7.0),
        span(3, 2, "grvv.ground_state", 1.5, 2.0),
        span(4, 2, "matcore.matrix_to_json", 3.0, 6.5, size=64),
    ]
    assert math.isclose(sum(layers.self_times(spans).values()), 8.0)
    m = layers.pass_metrics([spans], [])
    assert m["cli.busy_s"] == 8.0  # cmd_gen is nested in main
    assert math.isclose(m["matcore.matrix_to_json.mb_per_s"], 16 * 64 / layers.MB / 3.5)


def test_fit_exponent_recovers_power_law():
    samples = [(n, 2e-7 * n**3) for n in (8, 16, 32, 64)]
    samples += [(n, 2.2e-7 * n**3) for n in (8, 16, 32, 64)]
    assert math.isclose(layers.fit_exponent(samples), 3.0, abs_tol=1e-9)
    noisy = [(n, 1e-6 * n**5 * (1.1 if n % 3 else 0.9)) for n in (4, 8, 12, 16)]
    assert abs(layers.fit_exponent(noisy) - 5.0) < 0.3


def test_fit_exponent_needs_two_sizes():
    assert layers.fit_exponent([]) == 0.0
    assert layers.fit_exponent([(16, 1.0), (16, 2.0)]) == 0.0
    assert layers.fit_exponent([(0, 1.0), (16, 2.0)]) == 0.0


def test_every_metric_is_reported_when_nothing_ran():
    m = layers.pass_metrics([], [])
    names = {name for name, _, _ in layers.METRICS} - {"trace_overhead_s"}
    assert names == set(m)
    assert all(v == 0 for v in m.values())


def test_per_layer_metrics_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in layers.METRICS
    ]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def _report(rows):
    return {"results": [{"suite": s, "name": n, "n": k, "pass": ok} for s, n, k, ok in rows]}


def test_manifest_counts_missing_and_failed_rows():
    rows = workloads.expected_rows("u2", [4, 8])
    assert rows == [("u2", "u2_structure", 4), ("u2", "u2_structure_dressed", 4),
                    ("u2", "u2_structure", 8), ("u2", "u2_structure_dressed", 8)]
    report = _report([("u2", "u2_structure", 4, True), ("u2", "u2_structure_dressed", 4, True),
                      ("u2", "u2_structure", 8, True), ("u2", "u2_structure_dressed", 8, False)])
    assert workloads.count_verify(rows, report, 1, "") == (5, ["u2/u2_structure_dressed/8"])
    del report["results"][0]
    attempted, failed = workloads.count_verify(rows, report, 1, "")
    assert attempted == 5 and failed == ["u2/u2_structure/4", "u2/u2_structure_dressed/8"]


def test_manifest_counts_vacuous_and_crashed_reports():
    rows = workloads.expected_rows("harmonics", [32])
    assert len(rows) == 4
    vacuous = {"results": [], "passed": True}
    attempted, failed = workloads.count_verify(rows, vacuous, 0, "")
    assert attempted == 5 and failed[0] == "exit" and len(failed) == 5
    attempted, failed = workloads.count_verify(rows, None, 2, "error: capped")
    assert attempted == 5 and len(failed) == 5
    ok = _report([r + (True,) for r in rows])
    assert workloads.count_verify(rows, ok, 0, "Traceback (most recent call last)")[1] == ["exit"]
    assert workloads.count_verify(rows, ok, 0, "") == (5, [])
    assert workloads.count_command(0, "") == (1, [])
    assert workloads.count_command(2, "error") == (1, ["exit"])


def test_manifest_of_all_suites():
    rows = workloads.expected_rows("all", [2, 3])
    assert len(rows) == 2 * 16 + 13
    assert ("geometry", "identification_dx", 3) in rows
    assert ("geometry", "clifford_so9", 0) in rows
    assert not [r for r in workloads.expected_rows("superalgebra", [1, 2]) if r[2] == 1]


def test_known_failures_name_checks_of_existing_steps():
    for name, wl in workloads.WORKLOADS.items():
        steps = {s.label: s for s in wl.steps(0, "work")}
        for check in workloads.known_failures(name):
            label, _, rest = check.partition(":")
            assert label in steps
            if rest != "exit":
                suite, row, n = rest.split("/")
                assert (suite, row, int(n)) in steps[label].rows


def test_recorder_links_pool_spans_to_submitter():
    mod = types.ModuleType("fake")

    def kernel(n):
        time.sleep(0.05)
        return n

    def submitter(ns):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.kernel, ns))

    for fn in (kernel, submitter):
        fn.__module__ = "fake"
        setattr(mod, fn.__name__, fn)
    rec = launch.Recorder()
    original = ThreadPoolExecutor.submit
    try:
        launch.propagate_context_to_pools()
        assert rec.install({"fake": mod}) == 2
        t = threading.Thread(target=mod.submitter, args=([3, 5],))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    finally:
        ThreadPoolExecutor.submit = original
    (sub,) = [s for s in rec.spans if s["name"] == "fake.submitter"]
    kernels = [s for s in rec.spans if s["name"] == "fake.kernel"]
    assert sorted(k["n"] for k in kernels) == [3, 5]
    assert all(k["parent"] == sub["id"] for k in kernels)
    assert len({k["thread"] for k in kernels} | {sub["thread"]}) == 3
    # the two sleeps overlap, so the submitter's self time is well below the
    # wall time the kernels add up to
    busy = sum(k["end"] - k["start"] for k in kernels)
    covered = layers.union_length([(k["start"], k["end"]) for k in kernels])
    assert covered < busy - 0.02
    selfs = layers.self_times(rec.spans)
    assert math.isclose(selfs[sub["id"]], sub["end"] - sub["start"] - covered)
