"""Record the reference outputs that benchmark runs are checked against.

    python3 perfbench/record.py --seeds 0 1 2 3 4 5 6 7 8 9 10

runs every workload's sweeps once per seed through the CLI and writes
perfbench/reference/<workload>.seed<n>.json.gz (numeric columns only).
Re-record only in a change that deliberately alters results and says so,
never in one that claims a speed-up.
"""
from __future__ import annotations

import argparse
import gzip
import json
import sys

import checks
from prepare import load_package
from run import OUT_DIR, run_pass
from workloads import WORKLOADS, row_count, seeded_configs, write_configs


def record(workload: str, seed: int, main) -> dict:
    workdir = OUT_DIR / f"record-{workload}-seed{seed}"
    sweeps = write_configs(workload, seed, workdir)
    configs = seeded_configs(workload, seed)
    out = {}
    for name, _, code in run_pass(main, sweeps, workdir):
        if code != 0:
            raise RuntimeError(f"{workload}/{name}: exit code {code}")
        text = (workdir / f"{name}.csv").read_text()
        bad, why = checks.check_rows(text, configs[name]["quantity"],
                                     row_count(configs[name]), None)
        if bad:
            raise RuntimeError(f"{workload}/{name}: {why}")
        columns, rows = checks.read_csv(text)
        out[name] = {"columns": columns,
                     "rows": checks.numeric_rows(columns, rows)}
    return {"workload": workload, "seed": seed, "sweeps": out}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = p.parse_args(argv)
    main_fn = load_package()["cli"].main
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in args.seeds:
            ref = record(workload, seed, main_fn)
            path = checks.reference_path(workload, seed)
            text = json.dumps(ref, separators=(",", ":")) + "\n"
            path.write_bytes(gzip.compress(text.encode(), mtime=0))
            print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
