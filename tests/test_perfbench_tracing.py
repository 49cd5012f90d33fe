"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps package functions by name and reports a
renamed or removed target as absent, which drops that layer's metrics from
a traced run. These tests load the tracer from its file, edit nothing
there, and fail as soon as a target goes missing.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import photonlift
import photonlift.cli
import photonlift.fock
import photonlift.io
import photonlift.lift
import photonlift.matfuncs
import photonlift.verify

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(tracing):
    """(name, owner, leaf) for every wrapped target, resolved in its home module."""
    found = []
    for table in (tracing.SPANNED, tracing.COUNTED):
        for name, (home, attribute) in table.items():
            owner = sys.modules[home]
            *outer, leaf = attribute.split(".")
            for part in outer:
                owner = getattr(owner, part)
            found.append((name, owner, leaf))
    return found


def holders(tracing, original):
    """Every (module, leaf) among the traced modules that holds ``original``."""
    return [
        (module, leaf)
        for module in map(sys.modules.get, tracing.MODULES)
        for leaf, value in vars(module).items()
        if value is original
    ]


def test_tracer_finds_every_target_and_restores_every_name():
    tracing = load_tracing()
    originals = [(name, owner, leaf, getattr(owner, leaf)) for name, owner, leaf in targets(tracing)]
    shared = {name: holders(tracing, original) for name, _, _, original in originals}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for name, owner, leaf, original in originals:
            assert getattr(owner, leaf) is not original, name
            for module, held in shared[name]:
                assert getattr(module, held) is not original, (name, module.__name__)
        # A call through the package's re-export is seen as a span.
        photonlift.lift_unitary_expansion(np.eye(2), 2)
        assert "lift.lift_unitary_expansion" in {span[0] for span in tracer.spans}
    finally:
        tracer.uninstall()
    for name, owner, leaf, original in originals:
        assert getattr(owner, leaf) is original, name
        for module, held in shared[name]:
            assert getattr(module, held) is original, (name, module.__name__)


def test_every_derived_metric_needs_only_wrapped_names():
    tracing = load_tracing()
    wrapped = set(tracing.SPANNED) | set(tracing.COUNTED)
    for metric, needs in tracing.DERIVED_NEEDS.items():
        assert set(needs) <= wrapped, metric
