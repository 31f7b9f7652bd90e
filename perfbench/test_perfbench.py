"""Tests of the benchmark's own helpers plus a tiny-size smoke run of
each workload. Run with ``python -m pytest perfbench -q`` from the
checkout root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench.measure import (
    LookupBook,
    Span,
    Tracer,
    cpu_delta,
    highest_percentile,
    per_query_medians,
    percentile,
    read_proc_stat,
    self_time,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("n,p", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (5, 50.0),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, p):
    assert highest_percentile(n) == p


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    xs = list(rng.exponential(size=137))
    for p in (50, 90, 99):
        assert percentile(xs, p) == pytest.approx(float(np.percentile(xs, p)), rel=1e-12)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentiles_rank_queries_by_median_repeat():
    # a one-off spike on a cheap query does not make it the slowest
    by_query = {"a": [1.0, 9.0, 1.2], "b": [2.0, 2.1, 1.9], "c": [3.0], "d": []}
    meds = per_query_medians(by_query)
    assert meds == [1.2, 2.0, 3.0]
    assert percentile(meds, 99) == pytest.approx(2.98)
    assert per_query_medians(by_query, min_repeats=3) == [1.2, 2.0]


def test_round_plan_times_each_query_once_per_round():
    from perfbench.workloads import REPLAY_ROUNDS, round_plan

    pool = ["q0", "q1", "q2", "q3"]
    plan = round_plan(5, pool, ("bm25", "tfidf"), n_sql=1)
    assert plan == round_plan(5, pool, ("bm25", "tfidf"), n_sql=1)
    first_round = plan[: 2 * len(pool) + 1]
    assert sorted(q for k, q, _ in first_round if k == "bm25") == pool
    assert [q for k, q, _ in plan if k == "sql"] == ["q0"] * REPLAY_ROUNDS
    assert {r for _, _, r in plan} == {0}


def test_tail_plan_runs_each_query_once_per_searcher():
    from perfbench.workloads import QUERY_PATTERN, TAIL_CHUNK, TAIL_REPEATS, tail_plan

    qs = [f"t{i}" for i in range(2 * TAIL_CHUNK + 7)]
    plan = tail_plan(9, qs)
    assert plan == tail_plan(9, qs)
    assert len(plan) == len(qs) * TAIL_REPEATS
    for j, q in enumerate(qs):
        at = [i for i, (_, qq, _) in enumerate(plan) if qq == q]
        assert [plan[i][2] for i in at] == list(range(TAIL_REPEATS))
        assert {plan[i][0] for i in at} == {QUERY_PATTERN[j % len(QUERY_PATTERN)]}
        # all repeats of a query fall inside its chunk's passes
        c = j // TAIL_CHUNK
        assert all(c * TAIL_CHUNK * TAIL_REPEATS <= i < (c + 1) * TAIL_CHUNK * TAIL_REPEATS
                   for i in at)


def _span(name, start, end, parent=None, cpu=0.0):
    return Span(name=name, start=start, end=end, parent=parent, cpu0=0.0, cpu1=cpu)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, cpu=8.0),
        _span("a", 1.0, 4.0, parent=0, cpu=3.0),
        _span("a.inner", 2.0, 3.0, parent=1, cpu=1.0),
        _span("b", 5.0, 7.0, parent=0, cpu=1.5),
    ]
    spans[0].kids = [1, 3]
    spans[1].kids = [2]
    assert self_time(spans, 0) == pytest.approx(5.0)
    assert self_time(spans, 1) == pytest.approx(2.0)
    assert self_time(spans, 2) == pytest.approx(1.0)
    assert self_time(spans, 0, "cpu") == pytest.approx(3.5)


def test_tracer_nests_and_groups_requests():
    tr = Tracer()
    tr.request = 7
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    tr.request = None
    assert tr.spans[inner].parent == outer and tr.spans[outer].kids == [inner]
    assert {s.request for s in tr.spans} == {7}
    assert self_time(tr.spans, outer) <= tr.spans[outer].wall
    with pytest.raises(RuntimeError):
        a = tr.open("a")
        tr.open("b")
        tr.close(a)


def _stat(path, user, nice, system, idle, iowait, irq, softirq, steal):
    path.write_text(
        f"cpu  {user} {nice} {system} {idle} {iowait} {irq} {softirq} {steal} 0 0\n"
        "cpu0 1 2 3 4 5 6 7 8 0 0\n"
    )
    return read_proc_stat(str(path))


def test_cpu_delta_from_proc_stat(tmp_path):
    s0 = _stat(tmp_path / "a", 100, 10, 50, 1000, 20, 5, 5, 30)
    s1 = _stat(tmp_path / "b", 300, 10, 90, 1200, 30, 7, 13, 80)
    d = cpu_delta(s0, s1)
    assert d.busy == 200 + 0 + 40 + 2 + 8
    assert d.idle == 200 + 10
    assert d.steal == 50
    assert d.busy_s() == pytest.approx(2.5)
    assert d.share(d.steal) == pytest.approx(50 / 510)
    with pytest.raises(ValueError):
        cpu_delta(s1, s0)
    bad = tmp_path / "bad"
    bad.write_text("intr 1 2 3\n")
    with pytest.raises(ValueError):
        read_proc_stat(str(bad))


def test_lookup_book_counts_first_sight_as_miss():
    book = LookupBook()
    calls = [["a", "b"], ["b", "c"], ["a"], []]
    misses = [book.record(c) for c in calls]
    assert misses == [2, 1, 0, 0]
    # the miss fraction query_layers reports: misses over terms looked up
    assert sum(misses) / sum(len(c) for c in calls) == pytest.approx(0.6)


def test_benchmark_json_matches_reported_metrics():
    from perfbench.workloads import E2E, LAYER, WORKLOADS

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload,trace", [("query_head", 0), ("query_tail", 1), ("ingest", 1)])
def test_smoke_run(workload, trace):
    from perfbench.workloads import E2E, LAYER

    p = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--smoke"])
    assert p.returncode == 0, p.stderr[-2000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, p.stderr[-2000:]
    assert set(out["metrics"]) == set(LAYER if trace else E2E)
    if trace:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        assert m["query.lookup_miss_frac"] == (1.0 if workload == "query_tail" else 0.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "query_head", "--seed", "1", "--seconds", "1", "--trace", "0"],
             cwd=str(tmp_path), timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
