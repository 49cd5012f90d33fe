"""The benchmark's four workloads: seeded inputs, one timed op, output checks.

Every input is generated here from the run's seed with numpy alone, so the
library under test receives only matrices, occupation tuples, integer seeds
and files. An op's output is checked after the timed phase; ``corrupt``
returns a deliberately broken copy of an output for the benchmark's
self-test. Library functions are looked up on their modules at call time
so the tracer's wrappers see the calls.

Importing this module imports numpy and photonlift; the set-up probe times
that import as part of set-up.
"""

import os
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass, replace

import numpy as np

import photonlift
import photonlift.cli as pl_cli
import photonlift.fock as pl_fock
import photonlift.io as pl_io
import photonlift.lift as pl_lift
import photonlift.matfuncs as pl_matfuncs
import photonlift.verify as pl_verify

# Frobenius distance allowed between the permanent and expansion lifts
# (both unitary, M <= 36). Rounding leaves about 1e-11 at (m, n) = (2, 10).
XCHECK_TOL = 1e-9
# Frobenius distance allowed between a CLI output file and the in-process
# result. Both run the same code on the same input, so this is slack only.
CLI_TOL = 1e-9
# Transition probabilities must sum to one within this.
PROBABILITY_TOL = 1e-9
# A CLI child that runs longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 120.0


def hermitian(rng, modes):
    raw = rng.uniform(-1, 1, (modes, modes)) + 1j * rng.uniform(-1, 1, (modes, modes))
    return (raw + raw.conj().T) / 2


def exp_i(h):
    """exp(iH) for Hermitian H, computed here so inputs never depend on the library."""
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def photon_input(rng, modes, photons):
    counts = np.bincount(rng.integers(0, modes, photons), minlength=modes)
    return tuple(int(count) for count in counts)


class Workload:
    """Cells cycled in a fixed order; subclasses define one op and its check.

    ``cycle_s`` is about the wall time of one cycle at the seed commit on an
    uncontended core of a 2-core x86-64 host with one BLAS thread. A run of
    ``--seconds s`` performs round(s / cycle_s) whole cycles (at least one),
    so the op list depends only on the seed and ``s``, and a faster commit
    runs the same ops in less time. The constants only size the op list;
    they are fixed so that every commit is measured on the same ops.
    """

    name = ""
    cycle_s = 1.0
    # Reference kernel whose speed scales this workload's times (speed.py).
    speed_kernel = "arith"

    def __init__(self, cells):
        self.cells = list(cells)

    def cycles(self, seconds):
        return max(1, round(seconds / self.cycle_s))

    def inputs(self, seed, cycles, workdir):
        ops = []
        for index in range(cycles * len(self.cells)):
            rng = np.random.default_rng([seed, index])
            cell = self.cells[index % len(self.cells)]
            ops.append(self.make_input(rng, cell, index, workdir))
        return ops

    def warm_up(self, workdir):
        """First-call lazy work of the in-process library paths, on tiny inputs."""
        h = hermitian(np.random.default_rng(0), 2)
        pl_verify.check_diagram(h, 1)
        pl_lift.transition_distribution(exp_i(h), (1, 0))
        pl_lift.lift_unitary_permanent(exp_i(h), 2)

    def peak_rss_kb(self, outputs):
        """Peak RSS of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def make_input(self, rng, cell, index, workdir):
        raise NotImplementedError

    def run(self, op_input):
        raise NotImplementedError

    def check(self, op_input, output):
        raise NotImplementedError

    def corrupt(self, op_input, output):
        raise NotImplementedError


@dataclass(frozen=True)
class DenseInput:
    cell: tuple
    h: np.ndarray
    s: np.ndarray
    q: tuple


class DenseLift(Workload):
    name = "dense_lift"
    cycle_s = 1.3

    def make_input(self, rng, cell, index, workdir):
        modes, photons = cell
        h = hermitian(rng, modes)
        return DenseInput(cell, h, exp_i(h), photon_input(rng, modes, photons))

    def run(self, op_input):
        report = pl_verify.check_diagram(op_input.h, op_input.cell[1])
        distribution = pl_lift.transition_distribution(op_input.s, op_input.q)
        return report, distribution

    def check(self, op_input, output):
        report, distribution = output
        probabilities = np.array(list(distribution.values()))
        return bool(
            report.passed
            and (probabilities >= 0).all()
            and abs(probabilities.sum() - 1) <= PROBABILITY_TOL
        )

    def corrupt(self, op_input, output):
        report, distribution = output
        first = next(iter(distribution))
        return report, {**distribution, first: distribution[first] + 1e-6}


@dataclass(frozen=True)
class SweepInput:
    cell: tuple
    seed: int


class SmallSweep(Workload):
    name = "small_sweep"
    cycle_s = 0.066
    speed_kernel = "dicts"

    def make_input(self, rng, cell, index, workdir):
        return SweepInput(cell, int(rng.integers(2**31)))

    def run(self, op_input):
        modes, photons = op_input.cell
        return pl_verify.run_sweep(modes, photons, trials=1, seed=op_input.seed)

    def check(self, op_input, output):
        kinds = sorted(kind for kind, _, _ in output)
        return kinds == ["diagram", "global_phase", "homomorphism"] and all(
            report.passed for _, _, report in output
        )

    def corrupt(self, op_input, output):
        kind, trial, report = output[0]
        return [(kind, trial, replace(report, passed=False)), *output[1:]]


@dataclass(frozen=True)
class CrossInput:
    cell: tuple
    s: np.ndarray


class PermanentCrossCheck(Workload):
    name = "permanent_xcheck"
    cycle_s = 1.9

    def make_input(self, rng, cell, index, workdir):
        return CrossInput(cell, exp_i(hermitian(rng, cell[0])))

    def run(self, op_input):
        photons = op_input.cell[1]
        by_permanent = pl_lift.lift_unitary_permanent(op_input.s, photons)
        by_expansion = pl_lift.lift_unitary_expansion(op_input.s, photons)
        return by_permanent.matrix, by_expansion.matrix

    def check(self, op_input, output):
        by_permanent, by_expansion = output
        return (
            by_permanent.shape == by_expansion.shape
            and np.linalg.norm(by_permanent - by_expansion) <= XCHECK_TOL
        )

    def corrupt(self, op_input, output):
        by_permanent, by_expansion = output
        broken = by_permanent.copy()
        broken[0, 0] += 1e-6
        return broken, by_expansion


@dataclass(frozen=True)
class CliInput:
    cell: tuple
    command: str
    argv: tuple
    output: str | None


@dataclass(frozen=True)
class CliOutput:
    returncode: int
    stdout: str
    maxrss_kb: int


class CliFiles(Workload):
    """One seeded network written once; each op is one CLI subprocess.

    ``photons`` gives the photon numbers of the lift-u, lift-h and verify
    commands, in that order.
    """

    name = "cli_files"
    cycle_s = 2.5

    def __init__(self, modes=8, photons=(3, 4, 2)):
        self.modes = modes
        self.lift_u_photons, self.lift_h_photons, self.verify_photons = photons
        super().__init__(
            [
                ("log", 1),
                ("lift-u", self.lift_u_photons),
                ("lift-h", self.lift_h_photons),
                ("verify", self.verify_photons),
            ]
        )
        self._references = {}

    def inputs(self, seed, cycles, workdir):
        h = hermitian(np.random.default_rng([seed, 0]), self.modes)
        self.h_path = os.path.join(workdir, "network_h.json")
        self.s_path = os.path.join(workdir, "network_s.json")
        pl_io.write_matrix(h, self.h_path)
        pl_io.write_matrix(exp_i(h), self.s_path)
        self._references.clear()
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(photonlift.__file__)),
             self._env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        return super().inputs(seed, cycles, workdir)

    def make_input(self, rng, cell, index, workdir):
        command, photons = cell
        output = os.path.join(workdir, f"op{index:05d}-{command}.json")
        if command == "log":
            argv = ("log", "--input", self.s_path, "--output", output)
        elif command == "lift-u":
            argv = ("lift-u", "--photons", str(photons), "--input", self.s_path,
                    "--output", output)
        elif command == "lift-h":
            argv = ("lift-h", "--photons", str(photons), "--order", "bunched",
                    "--input", self.h_path, "--output", output)
        else:
            argv, output = ("verify", "--input", self.h_path, "--photons", str(photons)), None
        return CliInput((self.modes, photons), command, argv, output)

    def warm_up(self, workdir):
        """Nothing: every op is a fresh child that pays its own first-call work."""

    def peak_rss_kb(self, outputs):
        """Peak RSS of the largest CLI child."""
        return max((output.maxrss_kb for output in outputs if output is not None), default=0)

    def run(self, op_input):
        log_path = os.path.join(os.path.dirname(self.h_path), "child-stdout.txt")
        with open(log_path, "w+", encoding="utf-8") as log:
            child = subprocess.Popen(
                [sys.executable, "-m", "photonlift.cli", *op_input.argv],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self._env,
            )
            # wait4 reports the child's own peak RSS; the timer kills a hung child.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            stdout = log.read()
        return CliOutput(child.returncode, stdout, usage.ru_maxrss)

    def in_process(self, op_input):
        """The same command through ``cli.main`` in this process, stdout discarded."""
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            return pl_cli.main(list(op_input.argv))

    def _reference(self, command):
        if command not in self._references:
            if command == "log":
                reference = pl_matfuncs.unitary_logarithm(pl_io.read_matrix(self.s_path))
            elif command == "lift-u":
                scattering = pl_io.read_matrix(self.s_path)
                reference = pl_lift.lift_unitary_expansion(scattering, self.lift_u_photons).matrix
            else:
                h = pl_io.read_matrix(self.h_path)
                lifted = pl_lift.lift_hamiltonian(h, self.lift_h_photons)
                order = pl_fock.bunched_first_order(lifted.basis)
                reference = lifted.matrix[np.ix_(order, order)]
            self._references[command] = reference
        return self._references[command]

    def check(self, op_input, output):
        if output.returncode != 0:
            return False
        if op_input.command == "verify":
            summary = output.stdout.strip().splitlines()[-1:]
            return bool(summary) and summary[0].startswith("summary ") and (
                "failed=0" in summary[0].split()
            )
        written = pl_io.read_matrix(op_input.output)
        reference = self._reference(op_input.command)
        return written.shape == reference.shape and (
            np.linalg.norm(written - reference) <= CLI_TOL
        )

    def corrupt(self, op_input, output):
        if op_input.command == "verify":
            return replace(output, stdout=output.stdout.replace("failed=0", "failed=1"))
        written = pl_io.read_matrix(op_input.output)
        written[0, 0] += 1e-6
        pl_io.write_matrix(written, op_input.output)
        return output


def build(name, tiny=False):
    """The named workload at benchmark size, or at smoke-test size."""
    if name == "dense_lift":
        return DenseLift([(3, 2)] if tiny else [(10, 3)])
    if name == "small_sweep":
        return SmallSweep(
            [(2, 1), (3, 2)] if tiny else [(m, n) for m in (2, 3, 4) for n in (1, 2, 3)]
        )
    if name == "permanent_xcheck":
        return PermanentCrossCheck(
            [(2, 3), (3, 2)] if tiny else [(2, 10), (3, 6), (3, 7), (4, 4)]
        )
    if name == "cli_files":
        return CliFiles(3, (2, 2, 1)) if tiny else CliFiles()
    raise ValueError(f"unknown workload {name!r}")
