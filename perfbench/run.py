"""Sweep benchmark: four SCBA/Kubo workloads driven through the CLI.

    python3 perfbench/run.py --workload b0_window --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 27 --trace 0

A run times set-up in fresh interpreters (prepare.py), then runs the
workload's sweep configs through ``diracvisc.cli.main(["sweep", ...])`` in
this process, pass after pass, for --seconds, and checks every CSV written
(checks.py). Set-up and sweep times are scaled to a reference host speed
by calibration rounds timed between them (calibrate.py). --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics (tracer.py).
The last line of standard output is one JSON object; a results file with a
machine and library manifest goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import monotonic, perf_counter

import checks
import tracer as tr
from calibrate import Calibration
from prepare import ROOT, load_package
from workloads import WORKLOADS, row_count, seeded_configs, write_configs

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 3

def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to configs written."""
    script = Path(__file__).resolve().parent / "prepare.py"
    start = monotonic()
    done = subprocess.run([sys.executable, str(script), workload, str(seed),
                           str(workdir)], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1]) - start


def run_pass(main, sweeps: dict, workdir: Path,
             after_each=None) -> list[tuple]:
    """Run every sweep once through the CLI: [(name, wall s, exit code)].
    after_each, if given, is called untimed after every sweep."""
    out = []
    for name, cfg_path in sweeps.items():
        csv = workdir / f"{name}.csv"
        csv.unlink(missing_ok=True)
        argv = ["sweep", "--config", str(cfg_path), "--output", str(csv)]
        with redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash fails the sweep's rows, not the run
                traceback.print_exc()
                code = None
            wall = perf_counter() - start
        out.append((name, wall, code))
        if after_each is not None:
            after_each()
    return out


def check_pass(results, configs: dict, workdir: Path,
               reference: dict | None) -> dict:
    """Check the CSVs one pass wrote; rows, failures and bytes written."""
    rows = failed = size = 0
    problems = []
    for name, _, code in results:
        cfg = configs[name]
        expected = row_count(cfg)
        csv = workdir / f"{name}.csv"
        if code != 0 or not csv.is_file():
            failed += expected
            problems.append(f"{name}: exit code {code}")
            continue
        text = csv.read_text()
        size += len(text.encode())
        rows += len(checks.read_csv(text)[1])
        ref = None
        if reference is not None:
            ref = reference["sweeps"].get(name, {"columns": [], "rows": []})
        bad, why = checks.check_rows(text, cfg["quantity"], expected, ref)
        failed += bad
        problems += [f"{name}: {w}" for w in why]
    return {"rows": rows, "failed": failed, "bytes_out": size,
            "problems": problems}


def git_commit() -> str | None:
    """HEAD commit of the checkout; None outside a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(seed: int, configs: dict, package: dict) -> dict:
    import numpy
    import scipy
    threads = getattr(package["sweep"], "_thread_count", lambda n: n)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "seed": seed,
            "workers": {n: threads(c["threads"]) for n, c in configs.items()},
            "rows": {n: row_count(c) for n, c in configs.items()},
            "configs": configs}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            package: dict, workdir: Path, cal: Calibration) -> dict:
    configs = seeded_configs(workload, seed)
    sweeps = {name: workdir / f"{name}.json" for name in configs}
    reference = checks.load_reference(workload, seed)
    main = package["cli"].main
    passes, tracers = [], []
    start = perf_counter()
    cal.round()
    while True:
        # traced runs go untraced, traced, traced, then alternate
        i = len(passes)
        traced = trace and i > 0 and (i <= 2 or i % 2 == 0)
        before = len(cal.rounds) - 1  # the round just before this pass
        if traced:
            tracer = tr.Tracer()
            with tr.instrument(tracer, package):
                results = run_pass(tracer.wrap("cli.main", main), sweeps,
                                   workdir, cal.round)
        else:
            results = run_pass(main, sweeps, workdir, cal.round)
        wall = sum(r[1] for r in results)
        # each sweep scaled by the rounds just before and after it
        slowness = [cal.slowness(before + k, before + k + 1,
                                 WORKLOADS[workload].kernels)
                    for k in range(len(results))]
        checked = check_pass(results, configs, workdir, reference)
        record = {"traced": traced, "wall_s": wall,
                  "sweep_wall_s": [r[1] for r in results],
                  "slowness": slowness,
                  "scaled_wall_s": sum(r[1] / x for r, x in
                                       zip(results, slowness)),
                  **checked, "points_per_s": checked["rows"] / wall}
        if traced:
            metrics, layer_s, tail_pct = tr.layer_metrics(
                tracer, checked["bytes_out"])
            record.update(layer_metrics=metrics, layer_s=layer_s,
                          row_ms_tail_percentile=tail_pct,
                          site_calls=tracer.site_calls)
            record["problems"] += tracer.check(WORKLOADS[workload].sites)
            tracers.append((len(passes), tracer))
        passes.append(record)
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    if trace:
        with (workdir / "spans.jsonl").open("w") as fh:
            for index, tracer in tracers:
                tr.dump_spans(fh, index, tracer, start)
    return {"configs": configs, "reference_seed": reference is not None,
            "passes": passes}


def trace_summary(passes: list[dict]) -> tuple[dict, dict, list[str]]:
    """Median per-layer metrics over traced passes, layer shares, and
    count-repeat failures."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    problems = []
    first, second = traced[0]["layer_metrics"], traced[1]["layer_metrics"]
    for name, value in first.items():
        if tr.is_count(name) and second[name] != value:
            problems.append(f"count {name} differs between traced passes: "
                            f"{value} vs {second[name]}")
    metrics = {name: value if tr.is_count(name) else
               statistics.median(p["layer_metrics"][name] for p in traced)
               for name, value in first.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced))
    shares = {layer: statistics.median(p["layer_s"][layer] / p["wall_s"]
                                       for p in traced)
              for layer in tr.LAYERS}
    return metrics, shares, problems


def run_one(args) -> int:
    try:
        package = load_package()
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    write_configs(args.workload, args.seed, workdir)
    setup_raw, setup = [], []
    with Calibration() as cal:
        if not args.trace:
            cal.round()
            for _ in range(SETUP_REPEATS):
                setup_raw.append(time_setup(args.workload, args.seed,
                                            workdir))
                cal.round()
                setup.append(setup_raw[-1] / cal.slowness(-2, -1))
        run = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), package, workdir, cal)
    passes = run["passes"]
    attempted = sum(row_count(c) for c in run["configs"].values()) * len(passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({w for p in passes for w in p["problems"]})
    untraced = [p for p in passes if not p["traced"]]
    rows = sum(p["rows"] for p in untraced)
    end_to_end = {
        # all measured time counts
        "points_per_s": rows / sum(p["scaled_wall_s"] for p in untraced),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    shares = None
    if args.trace:
        values, shares, trace_problems = trace_summary(passes)
        problems += trace_problems
    else:
        values = end_to_end
    # report exactly the metrics, with their units, that BENCHMARK.json names
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    correct = failed == 0 and not problems
    for msg in problems:
        print(f"check: {msg}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    OUT_DIR.mkdir(exist_ok=True)
    results_file = OUT_DIR / (f"results-{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    results_file.write_text(json.dumps({
        "workload": args.workload, "why": WORKLOADS[args.workload].why,
        "recorded_shares": WORKLOADS[args.workload].shares,
        "manifest": manifest(args.seed, run["configs"], package),
        "reference_checked": run["reference_seed"],
        "fail_share": failed / attempted, "end_to_end": end_to_end,
        "unscaled": {"points_per_s":
                     rows / sum(p["wall_s"] for p in untraced),
                     "setup_s": (statistics.median(setup_raw)
                                 if setup_raw else None)},
        "setup_samples_s": setup, "setup_raw_samples_s": setup_raw,
        "calibration_rounds": cal.rounds, "layer_shares": shares,
        "problems": problems, "result": result,
        "passes": [{k: v for k, v in p.items() if k != "problems"}
                   for p in passes]}, indent=1))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{attempted // len(passes)} rows, fail_share "
          f"{failed / attempted:.3g}; details in {results_file.name}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} "
              f"fail_share={result['failed'] / result['attempted']:.3g}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:44s} {v['value']:>16.6g} {v['unit']}")
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
