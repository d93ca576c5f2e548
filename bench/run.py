#!/usr/bin/env python3
"""slsopt benchmark: three workloads driven through the package's CLI functions.

Run from the root of a checkout; the package is imported from ./src:

    python3 bench/run.py --workload ls_sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # each workload in a fresh process
    python3 bench/run.py --write-benchmark-json  # BENCHMARK.json from bench/metrics.json

--trace 0 measures the end-to-end metrics. --trace 1 repeats every call with
the layer tracer on and reports the per-layer metrics; the untraced twin of
each call gives the tracing overhead. Every output is checked; failed checks
are counted, never fatal. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The full report, with provenance
and per-call data, and the spans of a traced run go to .bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# Set-up probes per run, half before and half after the measured calls, so
# that the median spans the run rather than one moment of the host.
SETUP_PROBES = 8

with open(os.path.join(HERE, "metrics.json")) as _fh:
    SPEC = json.load(_fh)


def import_slsopt() -> dict:
    """Import the package from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "slsopt", "__init__.py")):
        raise SystemExit(f"error: no slsopt package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import slsopt
    from slsopt import cli, config, diagnostics, directions, errors, linesearch, optimizer, problems, traceio

    found = os.path.realpath(os.path.dirname(slsopt.__file__))
    if found != os.path.realpath(os.path.join(SRC, "slsopt")):
        raise SystemExit(f"error: imported slsopt from {found}, not from {SRC}")
    return {
        "cli": cli,
        "config": config,
        "diagnostics": diagnostics,
        "directions": directions,
        "errors": errors,
        "linesearch": linesearch,
        "optimizer": optimizer,
        "problems": problems,
        "traceio": traceio,
    }


# -- provenance -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": "unknown (not a git checkout)", "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"git_sha": f"unknown ({exc})", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(dirty)}


def _openblas() -> dict:
    """OpenBLAS build string and thread count, read from the loaded library."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                build = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and build is not None:
                    threads.restype = ctypes.c_int
                    build.restype = ctypes.c_char_p
                    return {"openblas": build().decode(), "blas_threads": threads()}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"openblas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}


def provenance(seed: int) -> dict:
    import numpy as np

    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    return {
        **_git(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache_L2": caches.get("L2", ""),
        "cache_L3": caches.get("L3", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_openblas(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def calibrate() -> float:
    """Seconds for a fixed pure-numpy loop; recorded to spot slow host phases."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 2048)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(5000):
        b = a * 1.000001 + 0.5
        acc += float(b @ a)
    return time.perf_counter() - t0


def setup_times(workload, count: int) -> list[float]:
    """Process start to "ready" for fresh processes that only set up."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, *workload.setup_probe()]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(t1 - t0)
    return times


# -- measurement ------------------------------------------------------------


def measure(workload, seconds: float, tracer):
    """Closed loop of calls until the budget is spent.

    The first ``exact_calls`` calls always run, so the exact counts never
    depend on the budget. With a tracer, each call is repeated traced.
    """
    plain, traced, snapshot = [], [], None
    t_start = time.perf_counter()
    for i, spec in enumerate(workload.specs()):
        if i >= workload.exact_calls and time.perf_counter() - t_start >= seconds:
            break
        plain.append(workload.execute(spec))
        if tracer is None:
            continue
        tracer.enabled = True
        traced.append(workload.execute(spec))
        tracer.enabled = False
        if plain[-1].digest != traced[-1].digest and not traced[-1].failed:
            traced[-1].failed = 1
            traced[-1].errors.append(f"call {i}: traced outputs differ from untraced outputs")
        if i == workload.exact_calls - 1:
            snapshot = {
                "calls": {name: c for name, (c, _, _) in tracer.layer_totals().items()},
                "counts": dict(tracer.counts),
                "trials_hist": {str(k): v for k, v in sorted(tracer.trial_hist.items())},
            }
    return plain, traced, snapshot


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def tail(values):
    """Highest percentile with at least 10 values beyond it: (value, pct, n)."""
    n = len(values)
    if n < 11:
        return None
    idx = n - 11
    return sorted(values)[idx], 100.0 * (idx + 1) / n, n


def exact_summary(workload, outcomes) -> dict:
    """Counts from the first exact_calls calls; they depend on the seed only."""
    first = outcomes[: workload.exact_calls]
    runs = [c for o in first for c in o.counts]
    summary = {"fingerprint": _digest([o.counts for o in first])}
    iters = [r["iterations"] for r in runs if "iterations" in r]
    if iters:
        trials = sum(int(k) * v for r in runs for k, v in r["trials_hist"].items())
        summary["iters_per_run_p50"] = statistics.median(iters)
        summary["trials_per_iter"] = trials / sum(iters)
        summary["final_gap_log10_p50"] = statistics.median(g for o in first for g in o.final_gaps)
    return summary


def end_to_end(workload, outcomes, setup) -> tuple[dict, list]:
    """Contract metrics and the human table rows (name, value, unit, note)."""
    run_times = [t for o in outcomes for t in o.run_times]
    units = sum(o.units for o in outcomes)
    wall = sum(o.wall for o in outcomes)
    cpu = sum(o.cpu for o in outcomes)
    # One run of each direction kind: the sum of the per-kind median run
    # times. Kinds differ in run time by 2x, so a median over all runs would
    # jump between them with the mix of seeds.
    per_kind = [[t for o in outcomes[k :: workload.cycle] for t in o.run_times] for k in range(workload.cycle)]
    # Zeros only when every call failed; the run then reports correct: false.
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": units / wall,
        "call_p50_s": sum(statistics.median(t) for t in per_kind) if all(per_kind) else 0.0,
        "cpu_us_per_unit": 1e6 * cpu / units if units else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    is_sweep = workload.name == "ls_sweep"
    rate_name = "points_per_s" if workload.unit == "points" else "iters_per_s"
    call_name = "time_to_tol" if is_sweep else "call"
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    rows = [
        ("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} fresh processes"),
        (rate_name, metrics["work_per_s"], "1/s", f"work_per_s; {units} {workload.unit} in {wall:.2f} s"),
        ("call_p50_s", metrics["call_p50_s"], "s",
         f"sum over {workload.cycle} kinds of the per-kind median" if workload.cycle > 1
         else f"median of {len(run_times)} calls"),
    ]
    if workload.cycle > 1:
        name = "time_to_tol_p50_s" if is_sweep else "call_p50_all_kinds_s"
        median = statistics.median(run_times) if run_times else None
        rows.append((name, median, "s", f"median over all kinds; {len(run_times)} samples"))
    t = tail(run_times)
    if t is None:
        rows.append((f"{call_name}_tail_s", None, "s", f"undefined: {len(run_times)} samples, needs 11"))
    else:
        rows.append((f"{call_name}_tail_s", t[0], "s", f"p{t[1]:.1f} of {t[2]} samples"))
    exact = exact_summary(workload, outcomes)
    if "iters_per_run_p50" in exact:
        note = f"exact; first {workload.exact_calls} calls"
        if is_sweep:
            rows.append(("iters_to_tol_p50", exact["iters_per_run_p50"], "count", note))
        rows.append(("trials_per_iter", exact["trials_per_iter"], "count", note))
        if not is_sweep:
            rows.append(("final_gap_log10_p50", exact["final_gap_log10_p50"], "log10", note))
    rows += [
        ("cpu_s", cpu, "s", f"all threads over {len(outcomes)} calls; cpu/wall {cpu / wall:.3f}"),
        ("cpu_us_per_unit", metrics["cpu_us_per_unit"], "us", f"per {workload.unit[:-1]}"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
        ("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted}"),
    ]
    return metrics, rows


def per_layer(workload, plain, traced, tracer) -> dict:
    totals = tracer.layer_totals()

    def layer(name):
        return totals.get(name, (0, 0.0, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    counts, hist = tracer.counts, tracer.trial_hist
    searches = sum(hist.values())
    trials = sum(k * v for k, v in hist.items())
    directions_calls = layer("directions.safeguarded_direction")[0]
    run_self = layer("optimizer.run")[2]
    exact = exact_summary(workload, plain)
    special = {
        "problems.trial_bytes_computed": workload.trial_bytes(),
        "linesearch.backtrack.self_us_per_call": 1e6 * ratio(layer("linesearch.backtrack")[2], searches),
        "linesearch.trials_per_iter": ratio(trials, counts["iterations"]),
        "linesearch.trials_max": max(hist, default=0),
        "linesearch.jstar_plus_1": workload.jstar_plus_1(),
        "linesearch.accept_ratio": ratio(searches, trials),
        "linesearch.rounding_level_breaks": sum(len(o.rounding_breaks) for o in plain),
        "directions.restart_frac": ratio(counts["restarts"], directions_calls),
        "directions.restart_frac_norm": ratio(counts["restarts_norm"], directions_calls),
        "directions.restart_frac_descent": ratio(counts["restarts_descent"], directions_calls),
        "directions.restart_frac_both": ratio(counts["restarts_both"], directions_calls),
        "optimizer.self_us_per_iter": 1e6 * ratio(run_self, counts["iterations"]),
        "optimizer.iters_per_run_p50": exact.get("iters_per_run_p50", 0),
        "optimizer.final_gap_log10_p50": exact.get("final_gap_log10_p50", 0.0),
        "traceio.write_trace.us_per_row": 1e6 * ratio(layer("traceio.write_trace")[1], counts["rows_written"]),
        "traceio.bytes_written": ratio(counts["bytes_written"], layer("traceio.write_trace")[0]),
        "diagnostics.exact_moments.self_ms_per_call": 1e3
        * ratio(layer("diagnostics.exact_moments")[2], layer("diagnostics.exact_moments")[0]),
        "trace_overhead_frac": statistics.median(t.wall / p.wall for p, t in zip(plain, traced)) - 1.0,
    }
    metrics = {}
    for entry in SPEC["per_layer"]:
        name = entry["name"]
        if name in special:
            metrics[name] = special[name]
            continue
        layer_name, _, stat = name.rpartition(".")
        calls, total, self_t = layer(layer_name)
        if stat == "calls":
            metrics[name] = calls
        elif stat == "us_per_call":
            metrics[name] = 1e6 * ratio(total, calls)
        elif stat == "self_s":
            metrics[name] = ratio(self_t, calls)
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    mods = import_slsopt()
    from tracer import Tracer, install
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp_", dir=OUT)
    tracer = None
    try:
        prov = provenance(seed)
        calib_before = calibrate()
        workload = WORKLOADS[name](mods, seed, tmp)
        setup = setup_times(workload, SETUP_PROBES // 2)
        if trace:
            tracer = Tracer()
            install(tracer, mods)
        plain, traced, snapshot = measure(workload, seconds, tracer)
        setup += setup_times(workload, SETUP_PROBES - SETUP_PROBES // 2)
        calib_after = calibrate()
    finally:
        if tracer is not None:
            tracer.unpatch_all()
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    exact = exact_summary(workload, plain)
    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": prov,
        "calibration_s": {"before": calib_before, "after": calib_after},
        "setup_s": setup,
        "exact": exact,
        "calls": [
            {k: getattr(o, k) for k in ("wall", "cpu", "units", "run_times", "attempted", "failed")}
            for o in outcomes
        ],
        "errors": [e for o in outcomes for e in o.errors],
        "rounding_breaks": [e for o in plain for e in o.rounding_breaks],
    }

    print(f"workload {name}  seed {seed}  trace {int(trace)}  calls {len(plain)}")
    print(
        f"provenance: sha {prov['git_sha']} dirty {prov['git_dirty']}; nproc {prov['nproc']}; "
        f"{prov['cpu_model']}; L2 {prov['cache_L2']} L3 {prov['cache_L3']}; python {prov['python']}; "
        f"numpy {prov['numpy']}; {prov['openblas']}; blas threads {prov['blas_threads']}"
    )
    print(f"calibration: {calib_before:.4f} s before, {calib_after:.4f} s after")
    print(f"fingerprint: {exact['fingerprint']}")
    units = {e["name"]: e["unit"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    if trace:
        metrics = per_layer(workload, plain, traced, tracer)
        report["counter_fingerprint"] = _digest(snapshot)
        report["counter_snapshot"] = snapshot
        print(f"counter fingerprint: {report['counter_fingerprint']}")
        for key, value in metrics.items():
            print(f"  {key:<46} {value:>16.6g} {units[key]}")
        spans = os.path.join(OUT, f"spans_{name}.npz")
        tracer.write(spans)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans, ROOT)}")
    else:
        metrics, rows = end_to_end(workload, plain, setup)
        report["table"] = rows
        for key, value, unit, note in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {key:<22} {shown:>14} {unit:<6} {note}")
    for err in report["errors"][:10]:
        print(f"check failed: {err}")
    breaks = report["rounding_breaks"]
    if breaks:
        print(
            f"known defect: {len(breaks)} searches at a rounding-level residual broke the step floor "
            f"or backtrack ceiling (counted, not failed); first: {breaks[0]}"
        )
    report["metrics"] = metrics
    path = os.path.join(OUT, f"report_{name}_seed{seed}_trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_benchmark_json():
    bench = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": SPEC["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in SPEC["workloads"]],
        "end_to_end": [
            {k: e[k] for k in ("name", "unit", "better", "bound")} for e in SPEC["end_to_end"]
        ],
        "per_layer": [{k: e[k] for k in ("name", "unit", "better")} for e in SPEC["per_layer"]],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
