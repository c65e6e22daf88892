"""adiclab benchmark: time a workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload tower-corpus --seed 1 --seconds 30 --trace 0

--trace 0 runs timed passes over the workload's corpus, each in a fresh
interpreter, and prints the end-to-end metrics; --trace 1 alternates
untraced and traced passes in process and prints the per-layer metrics.
Every output is checked (see README.md).  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every check passed, 1 when the correctness oracle failed, 2 when
adiclab cannot be imported and 3 when a pass or set-up process failed or the
run outlived its deadline; only 0 and 1 print a result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")

# Timed passes per run, each in its own interpreter so that nothing cached
# in memory carries from one pass to the next.  Each instance's latency is
# its fastest pass: on a shared VM, contention from other tenants only ever
# slows a run, by up to a third for tens of seconds.  On cli-batch-repeat a
# pass is a single request, so more, shorter passes give its latencies more
# samples.
PASSES = {"tower-corpus": 3, "example1-ladder": 3, "cli-batch-repeat": 5}
# Fixed per workload so that runs compare the same order statistic; the
# tower's leaves at least ten samples above it at the seed commit.  The
# ladder (three rungs) and the batch (one request a pass) have too few
# samples for that and report their largest.
TAIL_PERCENTILE = {"tower-corpus": 85, "example1-ladder": 100,
                   "cli-batch-repeat": 100}
SETUP_REPS = 9
# Seconds after which a run gives up with exit code 3, below the 180 s a
# run may take.
DEADLINE_S = 170
# Traced and untraced passes alternate, so slow phases of the machine fall
# on both; trace.overhead_share compares the fastest of each.
TRACE_ROUNDS = 2

END_TO_END = {"instances_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "decisive_share": "share",
              "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time of a run, split over the passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "pass", "setup"),
                   default="main",
                   help="pass: run one timed pass and print it as JSON; "
                        "setup: build the corpus, print 'ready' and exit")
    return p.parse_args(argv)


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_kb(workload: str) -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-batch-repeat":
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return usage


class RunFailed(Exception):
    """A pass or set-up process failed, or the run outlived DEADLINE_S."""


class Deadline(BaseException):
    """Raised by the alarm of a traced run; a BaseException so that the
    runners' per-instance `except Exception` does not swallow it."""


def _deadline(_signum, _frame):
    raise Deadline(f"traced run outlived {DEADLINE_S} s")


def run_child(args, role: str, deadline: float) -> tuple:
    """Run this script in `role` in a fresh interpreter, killing it at
    `deadline` (a perf_counter value).  Returns (seconds until its first
    output line, its whole stdout)."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--role", role],
            cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            seconds = time.perf_counter() - start
            out = first + proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or not first:
        raise RunFailed(f"{role} process exited with code {code}"
                        + (" at the deadline" if code == -signal.SIGKILL
                           else ""))
    return seconds, out


# ---------------------------------------------------------------------------
# child roles


def prepare(wl, args, workdir) -> dict:
    """Everything that happens before the first timed instance: build the
    corpus and, on the batch workload, write its files."""
    state = wl.corpus(args.workload, args.seed,
                      args.seconds / PASSES[args.workload])
    if args.workload == "cli-batch-repeat":
        state["paths"] = wl.write_files(state["instances"], state["keys"],
                                        workdir)
    return state


def run_pass(wl, workload: str, state: dict):
    if workload == "cli-batch-repeat":
        return wl.timed_batch(state["paths"], state["contents"])
    return wl.timed_instances(state)


def setup_seconds(args, deadline: float) -> list:
    """Wall time from spawning a fresh interpreter until it has built the
    corpus, SETUP_REPS times."""
    return [run_child(args, "setup", deadline)[0]
            for _ in range(SETUP_REPS)]


def timed_passes(wl, args, deadline: float) -> list:
    """The workload's passes, each in a fresh interpreter, one after
    another."""
    passes = []
    for _ in range(PASSES[args.workload]):
        _, out = run_child(args, "pass", deadline)
        data = json.loads(out.strip().splitlines()[-1])
        data["outcomes"] = [wl.Outcome.from_data(o) for o in data["outcomes"]]
        passes.append(data)
    return passes


# ---------------------------------------------------------------------------
# correctness oracle


def check_repeats(outcomes) -> None:
    """Mark outcomes whose report differs from the first report of the same
    content (another pass, or a byte-identical resubmission)."""
    first = {}
    for o in outcomes:
        ref = first.setdefault(o.content, o)
        if (o.report, o.error) != (ref.report, ref.error):
            o.problems.append(f"report differs from the first run of "
                              f"{o.content}")


def check_golden(outcomes) -> None:
    """Statuses must match golden.json, which covers every instance the
    workloads can reach."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for o in outcomes:
        if o.error:
            continue
        if o.digest not in golden:
            o.problems.append("instance missing from the golden file")
        elif list(o.statuses) != golden[o.digest]:
            o.problems.append(f"statuses {list(o.statuses)} differ from "
                              f"golden {golden[o.digest]}")


# ---------------------------------------------------------------------------
# timed run


def end_to_end(workload, passes, setups) -> tuple:
    """Metrics from the passes; every pass runs the same samples in the same
    order.  An instance's latency is its fastest pass; on cli-batch-repeat,
    where a pass is one request, each pass is a sample and throughput comes
    from the median request, which varied less between runs than the
    fastest.  Returns (values, notes)."""
    first = passes[0]["outcomes"]
    if workload == "cli-batch-repeat":
        samples = [p["elapsed"] for p in passes]
        unit = f"`adiclab run` request over all {len(first)} files"
        busy = statistics.median(samples)
    else:
        samples = [min(s) for s in zip(*(p["latencies"] for p in passes))]
        unit = f"instance, fastest of {len(passes)} passes"
        busy = sum(samples)
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(samples, pct)
    notes = [f"latency unit: one {unit}; {len(samples)} samples; tail is "
             f"p{pct} with {sum(1 for x in samples if x > tail)} samples "
             "above it",
             "pass seconds: "
             + " ".join(f"{p['elapsed']:.3f}" for p in passes),
             "set-up samples (s): " + " ".join(f"{s:.4f}" for s in setups)]
    return {
        "instances_per_s": len(first) / busy,
        "latency_p50_ms": 1000 * statistics.median(samples),
        "latency_tail_ms": 1000 * tail,
        "decisive_share": sum(o.decisive for o in first) / len(first),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
    }, notes


# ---------------------------------------------------------------------------
# traced run


def traced(wl, tracer_mod, workload: str, state: dict):
    """TRACE_ROUNDS rounds of an untraced then a traced pass in this process
    (on cli-batch-repeat `--jobs 1`, plus an untraced `--jobs 2` pass).
    Every pass must reproduce the first one's reports.  Returns (outcomes of
    the first pass, tracer of the first traced pass, fastest untraced and
    traced seconds, jobs efficiency or None)."""
    batch = workload == "cli-batch-repeat"

    def run(jobs, tracer=None):
        """(machine output or outcomes, seconds) of one pass."""
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            result = wl.cli_run(state["paths"], jobs)[1] if batch \
                else wl.timed_instances(state)[0]
            return result, time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()

    first, tracers, mismatches = None, [], set()
    times = {"untraced": [], "traced": [], "parallel": []}
    for _ in range(TRACE_ROUNDS):
        tracers.append(tracer_mod.Tracer())
        passes = [("untraced", run(1)), ("traced", run(1, tracers[-1]))]
        if batch:
            passes.append(("parallel", run(wl.BATCH_JOBS)))
        for label, (result, seconds) in passes:
            times[label].append(seconds)
            first = result if first is None else first
            if batch:
                if result != first:
                    mismatches.add(f"{label} output differs from the first "
                                   "--jobs 1 output")
                continue
            for a, b in zip(first, result):
                if (a.report, a.error) != (b.report, b.error):
                    a.problems.append(f"{label} report differs from the "
                                      "first pass")
    tu, tt = min(times["untraced"]), min(times["traced"])
    if not batch:
        return first, tracers[0], tu, tt, None
    outcomes = wl.batch_outcomes(state["paths"], state["contents"], first)
    for o in outcomes:
        o.problems += sorted(mismatches)
    return outcomes, tracers[0], tu, tt, \
        tu / (wl.BATCH_JOBS * min(times["parallel"]))


def per_layer(tracer, tu: float, tt: float, efficiency) -> dict:
    g = tracer.groups()
    c = tracer.counts

    def calls(group):
        return g.get(group, {}).get("calls", 0)

    def incl(group):
        return g.get(group, {}).get("incl_s", 0.0)

    def self_s(group):
        return g.get(group, {}).get("self_s", 0.0)

    def share(part, whole):
        return part / whole if whole else 0.0

    def distinct(group):
        return share(len(tracer.keys.get(group, ())), calls(group))

    return {
        "rings.parse_calls": (calls("rings.parse"), "count"),
        "rings.parse_s": (incl("rings.parse"), "s"),
        "rings.elem_mul_calls": (c["rings.elem_mul_calls"], "count"),
        "rings.elem_add_calls": (c["rings.elem_add_calls"], "count"),
        "rings.divstep_calls": (c["rings.divstep_calls"], "count"),
        "groebner.bases_built": (calls("groebner.build"), "count"),
        "groebner.build_s": (incl("groebner.build"), "s"),
        "groebner.rows_in": (c["groebner.rows_in"], "count"),
        "groebner.rows_out": (c["groebner.rows_out"], "count"),
        "groebner.queries": (calls("groebner.query"), "count"),
        "groebner.query_s": (incl("groebner.query"), "s"),
        "groebner.distinct_input_share": (distinct("groebner.build"),
                                          "share"),
        "smith.snf_calls": (calls("smith.snf"), "count"),
        "smith.snf_s": (incl("smith.snf"), "s"),
        "smith.snf_max_dim": (c["smith.snf_max_dim"], "count"),
        "modules.stdbasis_built": (calls("modules.stdbasis"), "count"),
        "modules.stdbasis_self_s": (self_s("modules.stdbasis"), "s"),
        "modules.relations_basis_hit_share": (
            share(c["modules.relations_basis_hits"],
                  calls("modules.relations_basis")), "share"),
        "modules.kernel_calls": (calls("modules.kernel"), "count"),
        "modules.kernel_incl_s": (incl("modules.kernel"), "s"),
        "modules.isomorphic_calls": (calls("modules.isomorphic"), "count"),
        "complexes.cohomology_calls": (calls("complexes.cohomology"),
                                       "count"),
        "complexes.cohomology_hit_share": (
            share(c["complexes.cohomology_hits"],
                  calls("complexes.cohomology")), "share"),
        "complexes.cohomology_incl_s": (incl("complexes.cohomology"), "s"),
        "complexes.hom_complex_calls": (calls("complexes.hom_complex"),
                                        "count"),
        "complexes.hom_complex_self_s": (self_s("complexes.hom_complex"),
                                         "s"),
        "complexes.induced_map_incl_s": (incl("complexes.induced_map"), "s"),
        "adic.chain_profile_calls": (calls("adic.chain_profile"), "count"),
        "adic.chain_profile_distinct_share": (
            distinct("adic.chain_profile"), "share"),
        "adic.chain_profile_incl_s": (incl("adic.chain_profile"), "s"),
        "adic.chain_profile_self_s": (self_s("adic.chain_profile"), "s"),
        "adic.chain_outcome.stabilized": (
            c["adic.chain_outcome.stabilized"], "count"),
        "adic.chain_outcome.strict_forever": (
            c["adic.chain_outcome.strict_forever"], "count"),
        "adic.chain_outcome.unknown": (c["adic.chain_outcome.unknown"],
                                       "count"),
        "adic.decider_calls": (calls("adic.decider"), "count"),
        "derived.ext_calls.tower": (c["derived.ext_calls.tower"], "count"),
        "derived.ext_calls.telescope": (c["derived.ext_calls.telescope"],
                                        "count"),
        "derived.ext_calls.both": (c["derived.ext_calls.both"], "count"),
        "derived.ext_incl_s": (incl("derived.ext"), "s"),
        "derived.telescope_stage_calls": (calls("derived.telescope_stage"),
                                          "count"),
        "derived.route_agreement_share": (
            share(c["derived.route_agreed"], c["derived.route_decided"]),
            "share"),
        "theorems.check_incl_s.theorem4": (incl("theorems.theorem4"), "s"),
        "theorems.check_incl_s.lemma5": (incl("theorems.lemma5"), "s"),
        "theorems.check_incl_s.example1": (incl("theorems.example1"), "s"),
        "cli.parse_instance_s": (incl("cli.parse_instance"), "s"),
        "cli.digest_s": (incl("cli.digest"), "s"),
        "cli.emit_s": (incl("cli.emit"), "s"),
        "cli.read_s": (incl("cli.read"), "s"),
        "cli.jobs_efficiency": (efficiency or 0.0, "share"),
        "trace.overhead_share": (tt / tu - 1, "share"),
    }


# ---------------------------------------------------------------------------


def report(wl, args, state, outcomes, metrics, notes) -> int:
    """Print the workload's properties, the checks and the metrics; the
    last line is the JSON result."""
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    instances = state["instances"]
    distinct = len(set(state["contents"]))
    print(f"corpus: {len(instances)} instances, {distinct} distinct "
          f"contents; rings: {wl.ring_mix(instances)}")
    if args.workload == "example1-ladder":
        print(f"ladder: support = precision in {list(wl.LADDER)}; it does "
              "not depend on --seed")
    if args.workload == "cli-batch-repeat":
        print(f"content-repeat share {1 - distinct / len(instances):.3f}")
    for line in notes:
        print(line)
    failed = [o for o in outcomes if o.failed]
    for o in failed[:10]:
        print(f"FAILED {o.key}: {o.error or ''} {'; '.join(o.problems)} "
              f"{list(o.statuses)}")
    print(f"failed_share {len(failed) / len(outcomes):.4f} "
          f"({len(failed)} of {len(outcomes)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if failed else 0


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads as wl
        import tracer as tracer_mod
    except ImportError as e:
        print(f"cannot import adiclab from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    args = parse_args(argv, wl.WORKLOADS)
    deadline = time.perf_counter() + DEADLINE_S
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.role == "setup":
            prepare(wl, args, workdir)
            print("ready", flush=True)
            return 0
        if args.role == "pass":
            state = prepare(wl, args, workdir)
            outcomes, latencies, elapsed = run_pass(wl, args.workload, state)
            print(json.dumps({"elapsed": elapsed, "latencies": latencies,
                              "rss_kb": peak_rss_kb(args.workload),
                              "outcomes": [o.to_data() for o in outcomes]}))
            return 0
        if args.trace:
            signal.signal(signal.SIGALRM, _deadline)
            signal.alarm(DEADLINE_S)
            state = prepare(wl, args, workdir)
            outcomes, tracer, tu, tt, eff = traced(wl, tracer_mod,
                                                   args.workload, state)
            signal.alarm(0)
        else:
            state = wl.corpus(args.workload, args.seed,
                              args.seconds / PASSES[args.workload])
            passes = timed_passes(wl, args, deadline)
            setups = setup_seconds(args, deadline)
            outcomes = [o for p in passes for o in p["outcomes"]]
    except (RunFailed, Deadline) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_repeats(outcomes)
    check_golden(outcomes)
    if args.trace:
        metrics = per_layer(tracer, tu, tt, eff)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(
            WORK, f"trace-{args.workload}-{args.seed}.jsonl"))
        notes = [f"fastest traced pass {tt:.3f} s, fastest untraced pass "
                 f"{tu:.3f} s, {len(tracer.spans)} spans in the first "
                 "traced pass"]
    else:
        values, notes = end_to_end(args.workload, passes, setups)
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    return report(wl, args, state, outcomes, metrics, notes)


if __name__ == "__main__":
    sys.exit(main())
