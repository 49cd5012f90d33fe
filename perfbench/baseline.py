"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --trace 0 --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
reports for every metric its values, median, quartiles and spread: the
distance between the first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them. A spread at or above
a third of the metric's bound in BENCHMARK.json is flagged. With
``--merge``, an existing summary file keeps its other sections.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--merge", action="store_true")
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    section = {}
    environment = None
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            record, final = json.loads(lines[-2]), json.loads(lines[-1])
            environment = {key: record[key] for key in
                           ("git_commit", "versions", "nproc", "affinity_cpus", "blas_threads")}
            if not final["correct"]:
                print(f"{workload} seed {seed}: {final['failed']} failed ops "
                      f"{record['failures']}", file=sys.stderr)
            for name, metric in final["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            values.setdefault("failed_frac", []).append(final["failed"] / final["attempted"])
            tail = record.get("metrics", {}).get("op_tail_s")
            if tail is not None:
                values.setdefault("op_tail_s", []).append(tail["value"])
        section[workload] = {"seeds": args.seeds, "metrics": {}}
        for name, series in values.items():
            summary = _summary(series)
            section[workload]["metrics"][name] = summary
            spread = summary["spread"]
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and spread is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
            if args.trace == 0 or name.endswith(("_s", ".s", "overhead_frac")):
                shown = "n/a" if spread is None else f"{spread:.4f}"
                print(f"{workload:17s} {name:38s} median={summary['median']:.6g} "
                      f"spread={shown} {flag}")
    key = "traced" if args.trace else "end_to_end"
    if args.out:
        document = {}
        if args.merge and args.out.exists():
            document = json.loads(args.out.read_text(encoding="utf-8"))
        document["environment"] = environment
        document["run_seconds"] = spec["run_seconds"]
        document[key] = section
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
