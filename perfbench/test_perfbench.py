"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/

The repeat test runs every workload's job three times (about a minute and a
half on a 2-core host).
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

bda = run.import_bda()

COUNT_UNITS = {"count", "calls/iter", "B/iter", "B"}
DEFAULT_SEEDS = {"counterexample": 0, "hyperclean": 1, "small": 0}


def test_benchmark_json_lists_what_the_code_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s",
                                                       "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in LAYER_METRICS]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_numerics(name):
    """Every count metric repeats exactly across two traced jobs, and the
    traced jobs write the same trace CSVs as an untraced one."""
    workload = WORKLOADS[name]
    work = os.path.join(run.OUT_ROOT, f"test-{name}-{os.getpid()}")
    try:
        state = workload.setup(bda, DEFAULT_SEEDS[name],
                               os.path.join(work, "setup"))
        _, checks, reference = run.run_job(bda, workload, state,
                                           os.path.join(work, "plain"))
        assert checks.failures == []
        counts = []
        for rep in range(2):
            tracer = Tracer()
            _, checks, hashes = run.run_job(bda, workload, state,
                                            os.path.join(work, f"traced{rep}"),
                                            tracer)
            assert checks.failures == []
            assert hashes == reference
            layers = layer_metrics(tracer.spans,
                                   {os.path.basename(p) for p in reference})
            counts.append({m: layers[m] for m, unit, _, _ in LAYER_METRICS
                           if unit in COUNT_UNITS})
        assert counts[0] == counts[1]
        assert counts[0]["inner.steps"] > 0
        assert counts[0]["harness.bytes_written"] > 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _oracle_calls(mode: str, K: int) -> dict:
    tracer = Tracer()
    problem = tracer.instrument_problem(bda.make_counterexample(5))
    sched = bda.AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                    alpha_rule="harmonic")
    bda.hypergrad_reverse(problem, np.full(5, 0.3), K, sched, mode=mode)
    calls = {}
    for span in tracer.spans:
        calls[span[1]] = calls.get(span[1], 0) + 1
    return calls


@pytest.mark.parametrize("mode", ["bda", "plain"])
def test_hypergradient_oracle_calls_grow_linearly_in_K(mode):
    """Per-hypergradient oracle counts are affine in K: the increase from K
    to 2K equals half the increase from 2K to 4K (the O(K) cost)."""
    K = 10
    at = {k: _oracle_calls(mode, k) for k in (K, 2 * K, 4 * K)}
    names = sorted(set().union(*at.values()))
    print(f"\n{mode}: oracle calls per hypergradient at K={K}, {2 * K}, {4 * K}")
    for name in names:
        c1, c2, c4 = (at[k].get(name, 0) for k in (K, 2 * K, 4 * K))
        print(f"  {name}: {c1}, {c2}, {c4}")
        assert c4 - c2 == 2 * (c2 - c1), name
    grows = [n for n in names if at[2 * K].get(n, 0) > at[K].get(n, 0)]
    assert "problems.grad_y_f" in grows
    assert "problems.hess_yy_f" in grows


def test_missing_sources_exit_nonzero_without_result():
    bare = os.path.join(run.OUT_ROOT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
