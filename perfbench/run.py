"""Benchmark of the ``bda`` suites, run in-process from a source checkout.

    python3 perfbench/run.py --workload counterexample|hyperclean|small \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  With ``--trace 0`` it repeats the
workload's job with tracing off until ``--seconds`` are used and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced jobs
and prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and spans go to
``.perfbench_out/`` under the root.  Exits 2 without a result when the
package sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 9
ENV_FACTS = ("BDA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

QUALITY_UNITS = {"fail_frac": "ratio", "bda_err_x": "1",
                 "bda_iters_to_tol": "iter", "rhg_oracle_dev": "1",
                 "bda_f1": "1", "bda_val_acc": "1"}


def import_bda():
    """Import ``bda`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bda", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import bda
    if os.path.dirname(os.path.dirname(os.path.abspath(bda.__file__))) != SRC:
        print(f"perfbench: imported bda from {bda.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return bda


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time the import of ``bda`` plus the workload set-up."""
    start = time.perf_counter()
    bda = import_bda()
    from workloads import WORKLOADS
    work_dir = os.path.join(OUT_ROOT, f"probe-{workload}-{os.getpid()}")
    try:
        WORKLOADS[workload].setup(bda, seed, work_dir)
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def calibrate() -> float:
    """Milliseconds of a fixed loop of interpreter and small-array work
    (median of five), so a slow host shows next to the numbers."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 100 * 100).reshape(100, 100)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0.0
        for i in range(100_000):
            total += i * 0.5
        for _ in range(200):
            a = np.tanh(a @ a.T * 1e-2)
        samples.append(1e3 * (time.perf_counter() - start))
    return statistics.median(samples)


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(bda, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {name: os.environ.get(name) for name in ENV_FACTS},
        "pool_workers": bda.harness._max_workers(),
        "seed": seed,
        "commit": git_commit(),
    }


def run_job(bda, workload, state, out_dir: str, tracer=None):
    """One job; returns (wall seconds, Checks, hashes of the deterministic CSVs)."""
    from workloads import Capture, Checks, check_traces, deterministic_csv_hashes
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with Capture(bda.harness) as capture:
        if tracer is not None:
            tracer.install(bda)
        start = time.perf_counter()
        try:
            result = workload.job(bda, state, out_dir)
        except Exception as err:  # a failed job is data: count it and go on
            wall = time.perf_counter() - start
            checks = Checks()
            checks.op(f"job raised {type(err).__name__}: {err}", False)
            check_traces(checks, out_dir)
            return wall, checks, deterministic_csv_hashes(out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
    try:
        checks = workload.check(bda, state, result, capture.records, out_dir)
    except Exception as err:
        checks = Checks()
        checks.op(f"check raised {type(err).__name__}: {err}", False)
    return wall, checks, deterministic_csv_hashes(out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    bda = import_bda()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return measure(bda, workload, args, tag, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(bda, workload, args, tag: str, work_dir: str) -> int:
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    facts = machine_facts(bda, args.seed)
    calib_before = calibrate()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    state = workload.setup(bda, args.seed, os.path.join(work_dir, "setup"))

    attempted = failed = 0
    failures: list[str] = []
    quality: dict[str, float] = {}
    reference = None

    def account(checks, hashes, label):
        nonlocal attempted, failed, reference
        attempted += checks.attempted + 1
        failed += len(checks.failures)
        failures.extend(checks.failures)
        quality.update(checks.quality)
        # criterion 11: every job of this seed writes byte-identical traces
        if reference is None:
            reference = hashes
        elif hashes != reference:
            failed += 1
            failures.append(f"{label}: trace CSVs differ from the first job")

    walls, traced_walls, layers = [], [], []
    tracer = None
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, checks, hashes = run_job(bda, workload, state,
                                       os.path.join(work_dir, "untraced"))
        walls.append(wall)
        account(checks, hashes, "untraced job")
        expected = statistics.median(walls)
        if args.trace:
            tracer = Tracer()
            wall, checks, hashes = run_job(bda, workload, state,
                                           os.path.join(work_dir, "traced"),
                                           tracer)
            traced_walls.append(wall)
            account(checks, hashes, "traced job")
            layers.append(layer_metrics(tracer.spans,
                                        {os.path.basename(p) for p in reference}))
            expected += statistics.median(traced_walls)
        if time.perf_counter() + expected > deadline:
            break
    calib_after = calibrate()

    if args.trace:
        metrics = {name: (statistics.median(run[name] for run in layers), unit)
                   for name, unit, _, _ in LAYER_METRICS if name in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0,
            "ratio")
        metrics["machine.calib_ms"] = ((calib_before + calib_after) / 2.0, "ms")
        tracer.write(os.path.join(OUT_ROOT, f"spans-{tag}.csv.gz"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {**facts, "calib_ms_before": calib_before,
                    "calib_ms_after": calib_after},
        "jobs": len(walls) + len(traced_walls),
        "walls_s": walls, "traced_walls_s": traced_walls,
        "setup_probes_s": setup_times,
        "quality": quality,
        "fail_frac": failed / attempted,
        "failures": failures,
    }
    with open(os.path.join(OUT_ROOT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in [("fail_frac", report["fail_frac"]),
                        *report["quality"].items()]:
        print(f"{args.workload} {name} = {value:.6g} "
              f"{QUALITY_UNITS.get(name, '1')}")
    for failure in failures:
        print(f"{args.workload} FAILED {failure}")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
