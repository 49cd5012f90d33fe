"""Per-layer tracing of photonlift from outside the package.

Wrappers are installed on the names one photonlift module imports from
another (and on each function's home module and the package re-export),
so calls between layers are seen without editing ``src/``. A spanned call
records ``[name, start, end, parent span, op id]`` in memory; hot inner
functions are only counted. A layer's self time is a span's duration minus
the durations of its direct child spans. ``uninstall`` restores every name.

A wrapper whose target no longer exists is reported as absent, never as
zero, so a refactor that moves a layer boundary shows in the output.
"""

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "photonlift",
    "photonlift.fock",
    "photonlift.lift",
    "photonlift.matfuncs",
    "photonlift.verify",
    "photonlift.io",
    "photonlift.cli",
)

# metric prefix -> (home module, attribute). Spanned: timed and nested.
SPANNED = {
    "fock.enumerate_basis": ("photonlift.fock", "enumerate_basis"),
    "fock.bunched_first_order": ("photonlift.fock", "bunched_first_order"),
    "lift.lift_unitary_expansion": ("photonlift.lift", "lift_unitary_expansion"),
    "lift.lift_unitary_permanent": ("photonlift.lift", "lift_unitary_permanent"),
    "lift.lift_hamiltonian": ("photonlift.lift", "lift_hamiltonian"),
    "lift.transition_distribution": ("photonlift.lift", "transition_distribution"),
    "matfuncs.permanent": ("photonlift.matfuncs", "permanent"),
    "matfuncs.matrix_exponential": ("photonlift.matfuncs", "matrix_exponential"),
    "matfuncs.unitary_logarithm": ("photonlift.matfuncs", "unitary_logarithm"),
    "verify.check_diagram": ("photonlift.verify", "check_diagram"),
    "verify.check_homomorphism": ("photonlift.verify", "check_homomorphism"),
    "verify.check_global_phase": ("photonlift.verify", "check_global_phase"),
    "io.write_matrix": ("photonlift.io", "write_matrix"),
    "io.read_matrix": ("photonlift.io", "read_matrix"),
    "cli.main": ("photonlift.cli", "main"),
}

# Called up to ~10^5 times per op: counted, not spanned, to keep overhead low.
COUNTED = {
    "fock.index_of": ("photonlift.fock", "FockBasis.index_of"),
    "fock.apply_creation": ("photonlift.fock", "apply_creation"),
    "fock.photon_move_relation": ("photonlift.fock", "photon_move_relation"),
}

# Derived metrics and the wrapped names each needs; absent if any is absent.
DERIVED_NEEDS = {
    "fock.s": ("fock.enumerate_basis", "fock.bunched_first_order"),
    "lift.self_s": (
        "lift.lift_unitary_expansion",
        "lift.lift_unitary_permanent",
        "lift.lift_hamiltonian",
        "lift.transition_distribution",
    ),
    "lift.entries": (
        "lift.lift_unitary_expansion",
        "lift.lift_unitary_permanent",
        "lift.lift_hamiltonian",
    ),
    "lift.matrix_bytes_max": (
        "lift.lift_unitary_expansion",
        "lift.lift_unitary_permanent",
        "lift.lift_hamiltonian",
    ),
    "matfuncs.permanent.gray_steps": ("matfuncs.permanent",),
    "matfuncs.matrix_exponential.max_dim": ("matfuncs.matrix_exponential",),
    "matfuncs.self_s": (
        "matfuncs.permanent",
        "matfuncs.matrix_exponential",
        "matfuncs.unitary_logarithm",
    ),
    "verify.check_diagram.self_s": ("verify.check_diagram",),
    "verify.max_residual_over_tol": (
        "verify.check_diagram",
        "verify.check_homomorphism",
        "verify.check_global_phase",
    ),
    "io.write_matrix.bytes": ("io.write_matrix",),
    "io.read_matrix.bytes": ("io.read_matrix",),
    "cli.main_s": ("cli.main",),
    "cli.startup_s": ("cli.main",),
}

_LIFT_MATRICES = (
    "lift.lift_unitary_expansion",
    "lift.lift_unitary_permanent",
    "lift.lift_hamiltonian",
)
_CHECKS = ("verify.check_diagram", "verify.check_homomorphism", "verify.check_global_phase")


def _path_arg(args, kwargs, position):
    return kwargs.get("path", args[position] if len(args) > position else None)


class Tracer:
    """Spans, counts and observed sizes for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.observed = defaultdict(int)
        self.op = -1
        self.absent = []
        self._stack = []
        self._restore = []

    def _observe(self, name, args, kwargs, result):
        observed = self.observed
        if name in _LIFT_MATRICES:
            observed["lift.entries"] += result.matrix.size
            observed["lift.matrix_bytes_max"] = max(
                observed["lift.matrix_bytes_max"], result.matrix.nbytes
            )
        elif name == "matfuncs.permanent":
            size = np.shape(args[0] if args else kwargs["matrix"])[0]
            observed["matfuncs.permanent.gray_steps"] += 2**size - 1
        elif name == "matfuncs.matrix_exponential":
            size = np.shape(args[0] if args else kwargs["matrix"])[0]
            observed["matfuncs.matrix_exponential.max_dim"] = max(
                observed["matfuncs.matrix_exponential.max_dim"], size
            )
        elif name in _CHECKS:
            residual = getattr(result, "residual_diagram", None)
            if residual is None:
                residual = result.residual
            else:
                residual = max(
                    residual, result.residual_unitarity, result.residual_hermiticity
                )
            observed["verify.max_residual_over_tol"] = max(
                observed["verify.max_residual_over_tol"], residual / result.tolerance
            )
        elif name == "io.write_matrix":
            observed["io.write_matrix.bytes"] += os.path.getsize(_path_arg(args, kwargs, 1))
        elif name == "io.read_matrix":
            observed["io.read_matrix.bytes"] += os.path.getsize(_path_arg(args, kwargs, 0))

    def _spanned(self, name, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, function):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target; targets that no longer exist are recorded as absent.

        Only modules already imported (by the workloads) are searched.
        """
        modules = [sys.modules[module] for module in MODULES if module in sys.modules]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, (home, attribute) in table.items():
                owner = sys.modules.get(home)
                *outer, leaf = attribute.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = make(name, original)
                holders = [owner] if outer else [
                    module for module in modules if getattr(module, leaf, None) is original
                ]
                for holder in holders:
                    self._restore.append((holder, leaf, original))
                    setattr(holder, leaf, wrapper)

    def uninstall(self):
        for holder, leaf, original in reversed(self._restore):
            setattr(holder, leaf, original)
        self._restore.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self):
        """Per-layer metrics of the traced pass; absent targets are left out."""
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            calls[name] += 1
            inclusive[name] += duration
            own[name] += duration
            if parent >= 0:
                own[self.spans[parent][0]] -= duration

        def layer_total(layer, table):
            return sum(table[name] for name in SPANNED if name.startswith(layer + "."))

        values = {}
        for name in SPANNED:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.s"] = inclusive[name]
        for name in COUNTED:
            values[f"{name}.calls"] = self.counts[name]
        values.update(
            {
                "fock.s": layer_total("fock", inclusive),
                "lift.self_s": layer_total("lift", own),
                "matfuncs.self_s": layer_total("matfuncs", own),
                "verify.check_diagram.self_s": own["verify.check_diagram"],
                "lift.entries": self.observed["lift.entries"],
                "lift.matrix_bytes_max": self.observed["lift.matrix_bytes_max"],
                "matfuncs.permanent.gray_steps": self.observed["matfuncs.permanent.gray_steps"],
                "matfuncs.matrix_exponential.max_dim": self.observed[
                    "matfuncs.matrix_exponential.max_dim"
                ],
                "verify.max_residual_over_tol": self.observed["verify.max_residual_over_tol"],
                "io.write_matrix.bytes": self.observed["io.write_matrix.bytes"],
                "io.read_matrix.bytes": self.observed["io.read_matrix.bytes"],
                "cli.main_s": inclusive["cli.main"],
            }
        )
        absent = set(self.absent)
        for name, needs in DERIVED_NEEDS.items():
            if absent.intersection(needs):
                values.pop(name, None)
        for name in absent:
            for suffix in (".calls", ".s"):
                values.pop(name + suffix, None)
        return values
