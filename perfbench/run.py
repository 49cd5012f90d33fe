"""photonlift benchmark: one seeded workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload dense_lift --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the run times each op with no wrappers installed and
reports the end-to-end metrics named in BENCHMARK.json. Their times are
scaled to a fixed machine speed by a reference kernel timed beside the
work (perfbench/speed.py), because the speed of a shared host drifts; the
raw times are kept in the record. With ``--trace 1``
it first times a prefix of the same op list untraced, then runs the whole
list with per-layer wrappers (perfbench/tracing.py) and reports the
per-layer metrics, including the tracing overhead. Every op's output is
checked after the timed phase, and a failed check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the full record: seed, cells, op count, versions, BLAS threads, every
metric with its unit, and the metrics that are absent.

``--smoke`` runs every workload at tiny sizes in both modes, checks that
each metric name is emitted or listed as absent, and feeds one corrupted
output per workload to confirm that it is counted as failed.

``--seconds`` sets the op list, not a deadline: each workload runs the
whole cycles over its cells that last about that long at the seed commit
(workloads.py), so a faster commit runs the same ops in less time.

The package is imported from ``src/`` next to this directory; nothing is
installed. BLAS runs single-threaded (set below, before numpy loads), and
CLI children inherit that setting and run one at a time.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 7
# A tail time needs this many samples beyond it.
TAIL_BEYOND = 10
# Reference kernel that scales set-up time (see speed.py).
SETUP_KERNEL = "arith"
# Reference-kernel runs a set-up probe times before and after its set-up.
PROBE_KERNEL_REPEATS = 5
# Op time between two samples of the reference kernel.
CALIBRATE_EVERY_S = 0.1
# Share of a traced run's cycles first timed untraced, for the overhead.
REFERENCE_SHARE = 0.25

WORKLOADS = ("dense_lift", "small_sweep", "permanent_xcheck", "cli_files")

# The end-to-end metrics every untraced run reports, or lists as absent.
UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_workloads():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def _probe(args):
    """One fresh-process set-up: import, input generation, first-call work.

    Prints the raw set-up time and the time scaled by the reference kernel,
    which this process times just before and just after the set-up.
    """
    kernel_before = speed.sample(PROBE_KERNEL_REPEATS)
    start = time.perf_counter()
    workloads = _import_workloads()
    workload = workloads.build(args.workload, tiny=args.tiny)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        workload.inputs(args.seed, workload.cycles(args.seconds), workdir)
        workload.warm_up(workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kernel_after = speed.sample(PROBE_KERNEL_REPEATS)
    scaled = {
        kernel: elapsed * speed.scale(kernel_before, kernel_after, kernel)
        for kernel in speed.KERNELS
    }
    print(json.dumps({"raw_s": elapsed, "scaled_s": scaled}))


def _setup_seconds(args, probes):
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--tiny"] if args.tiny else [])
    raw, scaled = [], {kernel: [] for kernel in speed.KERNELS}
    for _ in range(probes):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            _fail(f"set-up probe failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(result["raw_s"])
        for kernel, value in result["scaled_s"].items():
            scaled[kernel].append(value)
    return {kernel: statistics.median(values) for kernel, values in scaled.items()}, raw


def _run_ops(workload, ops, tracer=None, in_process=False):
    """Time each op back to back; an op that raises is kept and marked.

    Also returns, per op, the reference-kernel samples taken just before
    and just after it (at least every CALIBRATE_EVERY_S of op time, outside
    the op timers).
    """
    times, outputs, errors = [], [], {}
    kernel_times, preceding = [speed.sample()], []
    since = 0.0
    clock = time.perf_counter
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        begin = clock()
        try:
            if in_process:
                workload.in_process(op)
            outputs.append(workload.run(op))
        except Exception as exc:  # the op failed: count it, keep going
            outputs.append(None)
            errors[index] = f"{type(exc).__name__}: {exc}"
        times.append(clock() - begin)
        preceding.append(len(kernel_times) - 1)
        since += times[-1]
        if since >= CALIBRATE_EVERY_S or index == len(ops) - 1:
            kernel_times.append(speed.sample())
            since = 0.0
    brackets = [(kernel_times[before], kernel_times[before + 1]) for before in preceding]
    return times, outputs, errors, brackets


def _check_ops(workload, ops, outputs, errors, corrupt=()):
    """Check every output outside the timed phase; returns {op index: reason}."""
    failures = dict(errors)
    for index, (op, output) in enumerate(zip(ops, outputs)):
        if index in failures:
            continue
        try:
            if index in corrupt:
                output = workload.corrupt(op, output)
            if not workload.check(op, output):
                failures[index] = "output check failed"
        except Exception as exc:  # a check that cannot run is a failed op
            failures[index] = f"check raised {type(exc).__name__}: {exc}"
    return failures


def _tail(times):
    """Highest order statistic with TAIL_BEYOND samples beyond it, or None."""
    ordered = sorted(times)
    position = len(ordered) - TAIL_BEYOND - 1
    if position < 0:
        return None
    return ordered[position], 100.0 * (position + 1) / len(ordered)


def _blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import re

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
    except OSError:
        return None
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _environment():
    import numpy
    import scipy

    import photonlift

    return {
        "git_commit": _git_commit(),
        "versions": {
            "photonlift": photonlift.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {"env": BLAS_THREADS, "runtime": _blas_runtime_threads()},
    }


def _spec():
    if not SPEC_PATH.is_file():
        _fail(f"{SPEC_PATH.name} not found next to perfbench/")
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _measure(args, spec):
    """Run one workload; returns (record, final line)."""
    workloads = _import_workloads()
    workload = workloads.build(args.workload, tiny=args.tiny)
    cycles = workload.cycles(args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cells": [list(cell) for cell in workload.cells],
        "cycles": cycles,
    }
    if not args.trace:
        setup, record["setup_raw_samples_s"] = _setup_seconds(args, args.probes)

    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ops = workload.inputs(args.seed, cycles, workdir)
        workload.warm_up(workdir)
        in_process = args.trace and hasattr(workload, "in_process")
        if args.trace:
            import tracing

            reference = ops[: len(workload.cells) * max(1, round(cycles * REFERENCE_SHARE))]
            base_times, _, _, base_brackets = _run_ops(workload, reference, in_process=in_process)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                times, outputs, errors, brackets = _run_ops(workload, ops, tracer, in_process)
            finally:
                tracer.uninstall()
        else:
            times, outputs, errors, brackets = _run_ops(workload, ops)
        failures = _check_ops(workload, ops, outputs, errors, corrupt=args.corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    record["ops"] = attempted
    record["repeat_share"] = 1 - len({op.cell for op in ops}) / attempted
    record["failures"] = {str(index): reason for index, reason in sorted(failures.items())[:10]}
    record.update(_environment())
    if args.trace:
        prefix = len(base_times)
        values = _layer_metrics(workload, tracer, times)
        # Both passes at nominal speed, so host drift between them cancels.
        values["trace.overhead_frac"] = sum(
            _scaled(times[:prefix], brackets[:prefix], workload.speed_kernel)
        ) / sum(_scaled(base_times, base_brackets, workload.speed_kernel)) - 1
        record["per_layer"] = values
        record["absent_wrappers"] = tracer.absent
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        declared = spec["per_layer"]
    else:
        values = _end_to_end(workload, ops, times, brackets, outputs, record)
        values["setup_s"] = setup[SETUP_KERNEL]
        record["setup_s_by_kernel"] = setup
        values["failed_frac"] = len(failures) / attempted
        declared = spec["end_to_end"]
        record["metrics"] = {
            name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
        }
    expected = {metric["name"] for metric in declared}
    if not args.trace:
        expected |= set(UNITS)
    record["absent"] = sorted(expected - set(values))
    final = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
            if metric["name"] in values
        },
    }
    return record, final


def _scaled(raw_times, brackets, kernel):
    """Op times at nominal machine speed, from each op's kernel samples."""
    return [
        seconds * speed.scale(before, after, kernel)
        for seconds, (before, after) in zip(raw_times, brackets)
    ]


def _end_to_end(workload, ops, raw_times, brackets, outputs, record):
    """End-to-end timings and memory of an untraced pass.

    Times are scaled to nominal machine speed by the workload's reference
    kernel (see speed.py); the raw figures, and the figures under every
    kernel, are kept in the record. A mix of cells with different costs is
    multi-modal: its plain median falls in a gap between cells and jumps
    between runs. op_p50_s therefore combines each cell's median by
    geometric mean, and ops_per_s is taken over the median whole cycle.
    Both reduce to the plain figures for a one-cell workload.
    """
    width = len(workload.cells)

    def timings(times):
        by_cell = {}
        for op, seconds in zip(ops, times):
            by_cell.setdefault(op.cell, []).append(seconds)
        cycle_times = [sum(times[start:start + width]) for start in range(0, len(times), width)]
        cell_p50 = {cell: statistics.median(samples) for cell, samples in by_cell.items()}
        return {
            "op_p50_s": statistics.geometric_mean(cell_p50.values()),
            "ops_per_s": width / statistics.median(cycle_times),
        }, cell_p50

    record["by_kernel"] = {
        kernel: timings(_scaled(raw_times, brackets, kernel))[0] for kernel in speed.KERNELS
    }
    record["raw"], _ = timings(raw_times)
    record["raw"]["ops_per_s_all"] = len(raw_times) / sum(raw_times)
    times = _scaled(raw_times, brackets, workload.speed_kernel)
    values, cell_p50 = timings(times)
    record["speed_kernel"] = workload.speed_kernel
    record["speed_scale_median"] = statistics.median(
        scaled_time / raw_time for scaled_time, raw_time in zip(times, raw_times)
    )
    record["cell_p50_s"] = {",".join(map(str, cell)): value for cell, value in cell_p50.items()}
    tail = _tail(times)
    if tail is not None:
        values["op_tail_s"] = tail[0]
        record["op_tail_percentile"] = tail[1]
        record["op_tail_samples_beyond"] = TAIL_BEYOND
    record["op_samples"] = len(times)
    values["peak_rss_mb"] = workload.peak_rss_kb(outputs) / 1024
    return values


def _layer_metrics(workload, tracer, times):
    """Per-layer metrics of the traced pass and the CLI split."""
    values = tracer.metrics()
    if hasattr(workload, "in_process"):
        values["cli.process_s"] = sum(times) - values.get("cli.main_s", 0.0)
        if "cli.main_s" in values:
            values["cli.startup_s"] = values["cli.process_s"] - values["cli.main_s"]
    else:
        values.update({"cli.process_s": 0.0, "cli.startup_s": 0.0})
    values["trace.ops_s"] = sum(times)
    return values


def _smoke(spec):
    """Every workload at tiny size, both modes, plus the corrupted-output self-test."""
    problems = []
    documented = set(json.loads((Path(__file__).parent / "layers.json").read_text()))
    undocumented = {m["name"] for m in spec["per_layer"]} - documented
    if undocumented:
        problems.append(f"per-layer metrics missing from layers.json: {sorted(undocumented)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=1, trace=trace,
                                      tiny=True, probes=1, corrupt=())
            record, final = _measure(args, spec)
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = set(final["metrics"])
            if not trace:
                wanted |= set(UNITS)
                emitted |= set(record["metrics"])
            unaccounted = wanted - emitted - set(record["absent"])
            if unaccounted or final["failed"]:
                problems.append(f"{name} trace={trace}: unaccounted={sorted(unaccounted)} "
                                f"failures={record['failures']}")
            print(f"smoke {name} trace={trace} ops={final['attempted']} "
                  f"failed={final['failed']} absent={record['absent']}")
        args = argparse.Namespace(workload=name, seed=2, seconds=1, trace=0,
                                  tiny=True, probes=1, corrupt={0})
        _, final = _measure(args, spec)
        if final["failed"] != 1:
            problems.append(f"{name}: corrupted output counted {final['failed']} failures, "
                            "expected 1")
        print(f"self-test {name}: corrupted op 0 -> failed={final['failed']}")
    for problem in problems:
        print(f"smoke problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, all workloads, metric-name and self-test checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "photonlift" / "__init__.py").is_file():
        _fail(f"photonlift sources not found under {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        _probe(args)
        return 0
    spec = _spec()
    if args.smoke:
        return _smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    args.probes, args.corrupt = SETUP_PROBES, ()
    record, final = _measure(args, spec)
    for name, metric in record.get("metrics", {}).items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name} = {value!r}")
    for name in record["absent"]:
        print(f"{name} = absent")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
