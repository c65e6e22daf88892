"""Self-test of the benchmark's tracer.

    python3 -m pytest -q perfbench/check_trace.py

Every wrapped entry point must record at least one span (or count) on a
small slice of the workload that is meant to exercise it, every module
binding of a wrapped function must be replaced (including names imported
with `from .x import y`), and traced runs must produce machine reports
byte-identical to untraced runs.  Takes about half a minute.
"""
from __future__ import annotations

import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import adiclab  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402

# The workload slice on which each entry point must be reached; counted
# entry points report through Tracer.counts instead of spans.
EXPECTED = {
    "tower-corpus": [
        "rings.parse_element", "rings.make_ring",
        "groebner.ModuleBasis.__init__", "groebner.ModuleBasis.normal_form",
        "groebner.ModuleBasis.reduce_with_witness", "smith.smith_normal_form",
        "modules.StdBasis.__init__", "modules.FPModule.relations_basis",
        "modules.kernel_hom", "modules.modules_isomorphic",
        "adic.chain_profile", "adic.is_separated", "adic.is_complete",
        "derived.ext_localization", "theorems.check_theorem4",
        "theorems.check_lemma5", "cli.parse_instance",
        "theorems.canonical_digest", "cli.emit_report", "cli.run_instance",
    ],
    "example1-ladder": [
        "complexes.BoundedComplex.cohomology_data", "complexes.hom_complex",
        "complexes.induced_cohomology_map", "derived.telescope_stage",
        "derived.ext_localization", "theorems.build_example1",
        "modules.kernel_hom", "smith.smith_normal_form",
    ],
    "cli-batch-repeat": [
        "cli.json.load", "cli.json.dumps", "cli.parse_instance",
        "theorems.canonical_digest", "cli.run_instance",
    ],
}
COUNTERS = {"tower-corpus": ["rings.elem_mul_calls", "rings.elem_add_calls",
                             "rings.divstep_calls"]}


def _tower_slice():
    data = wl.tower_stream(15)
    return data, [f"tower-{i}" for i in range(len(data))]


def _ladder_slice():
    return wl.ladder_instances()[:1], ["example1-4"]


def _traced(run):
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    return tracer, result


def test_every_binding_is_wrapped_and_restored():
    original = adiclab.adic.chain_profile
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_bindings() == []
        assert adiclab.derived.chain_profile is not original
        assert adiclab.cli.check_theorem4 is adiclab.theorems.check_theorem4
    finally:
        tracer.uninstall()
    assert adiclab.derived.chain_profile is original


def test_every_entry_point_is_listed():
    listed = {n for names in EXPECTED.values() for n in names}
    entries = {tracer_mod.span_name(m, a)
               for m, a, *_ in tracer_mod.SPANNED}
    assert entries - listed == set()


@pytest.mark.parametrize("workload", ["tower-corpus", "example1-ladder"])
def test_in_process_reachability_and_identity(workload):
    data, keys = _tower_slice() if workload == "tower-corpus" \
        else _ladder_slice()
    plain = [wl.run_in_process(d, k, k) for d, k in zip(data, keys)]
    tracer, seen = _traced(
        lambda: [wl.run_in_process(d, k, k) for d, k in zip(data, keys)])
    assert [o.report for o in seen] == [o.report for o in plain]
    assert all(o.error is None for o in plain)
    reached = {span[0] for span in tracer.spans}
    assert set(EXPECTED[workload]) - reached == set()
    for name in COUNTERS.get(workload, []):
        assert tracer.counts[name] > 0, name


def test_batch_reachability_and_identity():
    workdir = os.path.join(HERE, "_work", f"check-{os.getpid()}")
    try:
        state = wl.corpus("cli-batch-repeat", wl.DEFAULT_SEED, 0.5)
        paths = wl.write_files(state["instances"], state["keys"], workdir)
        _, plain = wl.cli_run(paths, 1)
        _, parallel = wl.cli_run(paths, wl.BATCH_JOBS)
        tracer, (_, seen) = _traced(lambda: wl.cli_run(paths, 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert plain == seen == parallel
    reached = {span[0] for span in tracer.spans}
    assert set(EXPECTED["cli-batch-repeat"]) - reached == set()
