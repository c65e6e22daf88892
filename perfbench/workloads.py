"""Corpora and runners for the benchmark's workloads.

Every instance runs with the library's default budgets (depth 16, telescope
stage 8, stabilization window 2), which are also `adiclab run`'s defaults.
A runner returns one `Outcome` per instance (per file on the batch
workload) and one latency sample per instance; on the batch workload, where
single instances are not visible outside the process pool, one sample for
the whole `adiclab run` request.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import adiclab.cli as cli

DEFAULT_SEED = 1
WORKLOADS = ("tower-corpus", "example1-ladder", "cli-batch-repeat")
# The tower and batch corpora are drawn from one stream generated at this
# fixed seed, and --seed only permutes their order.  Instance times are
# heavy-tailed (median about 30 ms, a few above 1 s): corpora drawn fresh per
# seed would spread by their content alone as much as the bounds allow.
CORPUS_SEED = 1
TOWER_PROFILES = ("pid", "mixed", "lemma5")
# Corpus sizes scale with the length of one pass at these nominal rates,
# measured at the seed commit on a 2-core VM.
TOWER_RATE = 8.0          # instances per second, in process
BATCH_RATE = 14.0         # files per second through `adiclab run --jobs 2`
STREAM_LIMIT = 900        # stream instances covered by golden.json
# build_example1 at support = precision; independent of the seed.
LADDER = (4, 6, 8)
BATCH_JOBS = 2
DECISIVE = {"consistent", "decisive"}


@dataclass
class Outcome:
    """One instance's result: content identity, digest and statuses, a hash
    of the machine report (without its file label) and the error it raised,
    if any.  Runs of the same content must agree."""
    key: str
    content: str
    digest: str | None = None
    statuses: tuple = ()
    report: str | None = None
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems
                    or "inconsistent" in self.statuses)

    @property
    def decisive(self) -> bool:
        return not self.error and all(s in DECISIVE for s in self.statuses)

    def to_data(self) -> list:
        return [self.key, self.content, self.digest, list(self.statuses),
                self.report, self.error]

    @classmethod
    def from_data(cls, data) -> "Outcome":
        key, content, digest, statuses, report, error = data
        return cls(key, content, digest, tuple(statuses), report, error)


def _outcome(key, content, report) -> Outcome:
    body = json.dumps({k: v for k, v in report.items() if k != "instance"},
                      sort_keys=True)
    return Outcome(key, content, report["instance_digest"],
                   tuple(t["status"] for t in report["tasks"]),
                   hashlib.sha256(body.encode()).hexdigest())


def ring_label(desc) -> str:
    kind = desc["kind"]
    if kind == "integers":
        return "ZZ"
    if kind == "rationals":
        return "QQ"
    if kind == "prime_field":
        return f"GF({desc['p']})"
    if kind == "polynomial":
        return f"{ring_label(desc['base'])}[{','.join(desc['vars'])}]"
    if kind == "truncated_power_series":
        v = desc["var"]
        return f"{ring_label(desc['base'])}[[{v}]]/{v}^{desc['precision']}"
    return kind


def ring_mix(instances) -> str:
    mix = Counter(ring_label(d["ring"]) for d in instances)
    total = sum(mix.values())
    return ", ".join(f"{name} {100 * n / total:.0f}%"
                     for name, n in mix.most_common())


def tower_stream(count: int) -> list:
    """The first `count` instances of the fixed stream: pid, mixed and
    lemma5 interleaved round-robin, so every prefix has the same profile
    mix; generate_instances schema-checks each."""
    if count > STREAM_LIMIT:
        raise ValueError(f"at most {STREAM_LIMIT} instances; lower --seconds")
    per = -(-count // len(TOWER_PROFILES))
    corpora = [cli.generate_instances(CORPUS_SEED, per, p)
               for p in TOWER_PROFILES]
    k = len(corpora)
    return [corpora[i % k][i // k] for i in range(count)]


def ladder_instances() -> list:
    out = []
    for n in LADDER:
        data = {"ring": {"kind": "truncated_power_series",
                         "base": {"kind": "rationals"}, "var": "t",
                         "precision": n},
                "tasks": [{"command": "build_example1", "support": n,
                           "precision": n}]}
        cli.parse_instance(data)
        out.append(data)
    return out


def batch_order(distinct: int) -> list:
    """Content index of each file: every content is submitted twice, the
    resubmission one slot after the next new content (0 1 0 2 1 3 2 ...)."""
    order = []
    for i in range(distinct):
        order.append(i)
        if i:
            order.append(i - 1)
    order.append(distinct - 1)
    return order


def corpus(workload: str, seed: int, pass_seconds: float) -> dict:
    """Instances in run order, with their keys and content identities; on
    the batch workload one entry per file."""
    if workload == "example1-ladder":
        keys = [f"example1-{n}" for n in LADDER]
        return {"instances": ladder_instances(), "keys": keys,
                "contents": keys}
    rate = TOWER_RATE if workload == "tower-corpus" else BATCH_RATE / 2
    count = max(1, round(pass_seconds * rate))
    stream = tower_stream(count)
    order = list(range(count))
    random.Random(seed).shuffle(order)
    if workload == "cli-batch-repeat":
        order = [order[c] for c in batch_order(count)]
    contents = [f"stream-{i}" for i in order]
    keys = contents if workload == "tower-corpus" \
        else [f"{k:05d}.json" for k in range(len(order))]
    return {"instances": [stream[i] for i in order], "keys": keys,
            "contents": contents}


def write_files(instances, keys, directory: str) -> list:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for data, key in zip(instances, keys):
        path = os.path.join(directory, key)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=2)
            fh.write("\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# runners


def run_in_process(data, key: str, content: str) -> Outcome:
    """Schema parse, tasks and machine-report serialization of one
    instance, as `adiclab run --format machine` does for a single file."""
    try:
        report = cli.run_instance(data, label=key)
        cli.emit_report(report, "machine")
    except Exception as e:  # the oracle counts a raise as a failure
        return Outcome(key, content, error=f"{type(e).__name__}: {e}")
    return _outcome(key, content, report)


def timed_instances(state):
    """Closed loop, one client: each instance starts when the previous one
    has finished.  Returns (outcomes, latencies, elapsed)."""
    outcomes, latencies = [], []
    start = time.perf_counter()
    for data, key, content in zip(state["instances"], state["keys"],
                                  state["contents"]):
        now = time.perf_counter()
        outcomes.append(run_in_process(data, key, content))
        latencies.append(time.perf_counter() - now)
    return outcomes, latencies, time.perf_counter() - start


def cli_run(paths, jobs: int) -> tuple:
    """`adiclab run <paths> --format machine --jobs <jobs>` in process;
    returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", *paths, "--format", "machine",
                         "--jobs", str(jobs)])
    return code, out.getvalue()


def batch_outcomes(paths, contents, stdout: str) -> list:
    keys = [os.path.basename(p) for p in paths]
    try:
        reports = json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError):
        return [Outcome(k, c, error="no machine reports")
                for k, c in zip(keys, contents)]
    by_path = {r["instance"]: r for r in reports}
    return [_outcome(k, c, by_path[p]) if p in by_path
            else Outcome(k, c, error="missing report")
            for p, k, c in zip(paths, keys, contents)]


def timed_batch(paths, contents):
    """One `adiclab run --jobs BATCH_JOBS` request over every file.  Returns
    (outcomes per file, [request latency], elapsed)."""
    start = time.perf_counter()
    try:
        _code, stdout = cli_run(paths, BATCH_JOBS)
        outcomes = batch_outcomes(paths, contents, stdout)
    except Exception as e:  # the oracle counts a raise as a failure
        outcomes = [Outcome(os.path.basename(p), c,
                            error=f"{type(e).__name__}: {e}")
                    for p, c in zip(paths, contents)]
    elapsed = time.perf_counter() - start
    return outcomes, [elapsed], elapsed
