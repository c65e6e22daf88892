import concurrent.futures
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from adiclab import adic, cli
from adiclab.cli import (EXIT_INCONSISTENT, EXIT_INDECISIVE, EXIT_OK,
                         EXIT_USAGE, emit_report, generate_instances, main,
                         parse_instance, run_instance, serialize_instance)
from adiclab.errors import ParseError, TaskError, UnknownProfile


def z12_instance():
    return {
        "ring": {"kind": "integers"},
        "modules": {"M": {"ambient_rank": 1, "relations": [["12"]]}},
        "ideals": {"a": ["2"]},
        "tasks": [{"command": "check_theorem4", "module": "M", "ideal": "a"}],
        "seed": 1,
    }


def test_run_z12_consistent():
    rep = run_instance(z12_instance())
    assert rep["exit_status"] == EXIT_OK
    task = rep["tasks"][0]
    assert task["status"] == "consistent"
    assert task["left"]["status"] == "fails"
    assert task["right"]["status"] == "fails"


def test_undeclared_module_is_parse_error():
    data = z12_instance()
    data["tasks"] = [{"command": "check_theorem4", "module": "nope",
                      "ideal": "a"}]
    with pytest.raises(ParseError):
        run_instance(data)


def test_unknown_field_rejected():
    data = z12_instance()
    data["surprise"] = 1
    with pytest.raises(ParseError):
        parse_instance(data)
    data = z12_instance()
    data["modules"]["M"]["extra"] = True
    with pytest.raises(ParseError):
        parse_instance(data)


def test_round_trip_canonical():
    for profile in ("pid", "mixed", "theorem3", "theorem2", "lemma5"):
        for data in generate_instances(3, 3, profile):
            inst = parse_instance(data)
            again = serialize_instance(inst)
            inst2 = parse_instance(again)
            assert serialize_instance(inst2) == again


def test_generate_deterministic():
    a = generate_instances(7, 5, "mixed")
    b = generate_instances(7, 5, "mixed")
    assert a == b
    c = generate_instances(8, 5, "mixed")
    assert a != c


def test_generate_unknown_profile():
    with pytest.raises(UnknownProfile):
        generate_instances(1, 1, "nope")


def test_exit_codes(tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(z12_instance()), encoding="utf-8")
    assert main(["run", str(ok), "--format", "machine"]) == EXIT_OK

    indecisive = {
        "ring": {"kind": "polynomial", "base": {"kind": "rationals"},
                 "vars": ["x", "y"], "order": "grlex"},
        # non-graded relations push the deciders to Unknown
        "modules": {"M": {"ambient_rank": 1, "relations": [["x + 1"]]}},
        "ideals": {"a": ["y"]},
        "tasks": [{"command": "is_complete", "module": "M", "ideal": "a"}],
    }
    f2 = tmp_path / "ind.json"
    f2.write_text(json.dumps(indecisive), encoding="utf-8")
    code2 = main(["run", str(f2), "--format", "machine"])
    assert code2 == EXIT_INDECISIVE

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_USAGE

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"ring": {"kind": "integers"},
                                   "tasks": [{"command": "nope"}]}),
                       encoding="utf-8")
    assert main(["run", str(missing)]) == EXIT_USAGE


@pytest.mark.parametrize("flag,value", [
    ("--precision", "-1"), ("--stages", "-2"), ("--window", "-1"),
    ("--jobs", "0"), ("--jobs", "-3"), ("--jobs", "two")])
def test_bad_budget_or_jobs_flag_is_usage_error(tmp_path, capsys, flag,
                                                value):
    f = tmp_path / "z12.json"
    f.write_text(json.dumps(z12_instance()), encoding="utf-8")
    code = main(["run", str(f), str(f), flag, value, "--format", "machine"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


def test_negative_count_is_usage_error(capsys):
    code = main(["generate", "--seed", "1", "--count", "-3",
                 "--profile", "pid"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert ("argument --count: expected an integer >= 0, got -3"
            in captured.err)


def test_zero_precision_is_a_budget(tmp_path, capsys):
    f = tmp_path / "z12.json"
    f.write_text(json.dumps(z12_instance()), encoding="utf-8")
    code = main(["run", str(f), "--precision", "0", "--format", "machine"])
    rep = json.loads(capsys.readouterr().out)
    assert code == rep["exit_status"]
    assert rep["tasks"][0]["budgets"]["depth"] == 0


def test_window_flag_sets_the_window_budget(tmp_path, capsys):
    f = tmp_path / "z12.json"
    f.write_text(json.dumps(z12_instance()), encoding="utf-8")
    code = main(["run", str(f), "--window", "3", "--format", "machine"])
    rep = json.loads(capsys.readouterr().out)
    assert code == rep["exit_status"]
    for budgets in (rep["budgets"], rep["tasks"][0]["budgets"]):
        assert (budgets["window"], budgets["stab_window"]) == (3, 2)


def test_example1_demo_file(tmp_path, capsys):
    data = generate_instances(1, 1, "example1")[0]
    f = tmp_path / "ex1.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    code = main(["run", str(f), "--format", "machine", "--stages", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rep = json.loads(out)
    task = rep["tasks"][0]
    assert task["status"] == "decisive"
    v = task["verdicts"]
    assert v["separated"]["status"] == "fails"
    assert v["cohomologically_complete"]["status"] == "holds"
    assert v["quasi_isomorphism"]["status"] == "holds"
    assert v["power_memberships"]["status"] == "holds"


def test_machine_report_deterministic_and_text_renders():
    rep1 = run_instance(z12_instance())
    rep2 = run_instance(z12_instance())
    assert emit_report(rep1, "machine") == emit_report(rep2, "machine")
    text = emit_report(rep1, "text")
    assert "check_theorem4" in text and "consistent" in text
    machine = json.loads(emit_report(rep1, "machine"))
    assert machine["wall_clock_ms"] is None


def test_jobs_byte_identical(tmp_path, child_env):
    files = []
    for i, data in enumerate(generate_instances(5, 3, "pid")):
        f = tmp_path / f"i{i}.json"
        f.write_text(json.dumps(data), encoding="utf-8")
        files.append(str(f))
    # a byte copy under another name and one path given twice
    copy = tmp_path / "copy.json"
    copy.write_bytes((tmp_path / "i0.json").read_bytes())
    files += [str(copy), files[1]]

    def run_with_jobs(jobs):
        cmd = [sys.executable, "-m", "adiclab.cli", "run", *files,
               "--format", "machine", "--jobs", str(jobs)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env)
        return proc.stdout

    out1 = run_with_jobs(1)
    out8 = run_with_jobs(8)
    assert out1 == out8
    assert [r["instance"] for r in json.loads(out1)["reports"]] == files


def test_empty_task_list_header_only():
    rep = run_instance({"ring": {"kind": "integers"}, "tasks": []})
    assert rep["exit_status"] == EXIT_OK
    text = emit_report(rep, "text")
    lines = [l for l in text.splitlines() if l.strip()]
    assert any(l.startswith("task") for l in lines)
    assert len(lines) == 4  # instance, digest, header, rule


def test_witness_serialized_in_machine_report():
    rep = run_instance({
        "ring": {"kind": "integers"},
        "modules": {"M": {"ambient_rank": 1, "relations": [["12"]]}},
        "ideals": {"a": ["2"]},
        "tasks": [{"command": "is_separated", "module": "M", "ideal": "a"}],
    })
    blob = json.loads(emit_report(rep, "machine"))
    verdict = blob["tasks"][0]["verdict"]
    assert verdict["status"] == "fails"
    assert isinstance(verdict["witness"]["element"], list)


def _with_task(**fields):
    data = z12_instance()
    data["tasks"][0].update(fields)
    return data


def _example1_support_string():
    data = generate_instances(1, 1, "example1")[0]
    data["tasks"][0]["support"] = "4"
    return data


def _grading_string():
    data = z12_instance()
    data["modules"]["M"]["grading"] = "ab"
    return data


def _edited(data, edit):
    edit(data)
    return data


def _lemma5(**fields):
    data = generate_instances(1, 1, "lemma5")[0]
    data["tasks"][0].update(fields)
    return data


def _z12_task(**task):
    return _edited(z12_instance(), lambda d: d.update(tasks=[
        {"module": "M", **task}]))


def _z12_complex(**fields):
    """z12 with the complex Z --4--> Z, its fields overridden."""
    return _edited(z12_instance(), lambda d: d.update(complexes={"C": {
        "entries": {"0": {"ambient_rank": 1}, "1": {"ambient_rank": 1}},
        "differentials": {"0": [["4"]]}, **fields}}))


def _z12_ring(**ring):
    return _edited(z12_instance(), lambda d: d.update(ring=ring))


def _z12_map(**fields):
    return _edited(_lemma5(), lambda d: d["maps"]["f"].update(fields))


@pytest.mark.parametrize("data, position", [
    (_with_task(budgets={"depth": "x"}), "$.tasks[0].budgets.depth"),
    (_with_task(budgets={"dept": 3}), "$.tasks[0].budgets: unknown fields"),
    (_example1_support_string(), "$.tasks[0].support"),
    (_grading_string(), "$.modules.M.grading"),
    (_lemma5(b_index="x"), "$.tasks[0].b_index: expected an integer"),
    (_z12_task(command="ext_localization", index=True, element="2"),
     "$.tasks[0].index: expected an integer"),
    (_edited(z12_instance(),
             lambda d: d["modules"]["M"].update(ambient_rank=True)),
     "$.modules.M: ambient_rank must be"),
    (_edited(_lemma5(), lambda d: d["maps"]["f"].update(variables=True)),
     "$.maps.f: variables must be"),
    (_edited(z12_instance(), lambda d: d.update(seed=True)),
     "$.seed: seed must be an integer"),
    # containers of the wrong JSON type
    (_edited(z12_instance(), lambda d: d.update(modules=[])),
     "$.modules: expected an object, got list"),
    (_edited(z12_instance(), lambda d: d.update(ideals=["2"])),
     "$.ideals: expected an object, got list"),
    (_edited(_lemma5(), lambda d: d.update(maps=[])),
     "$.maps: expected an object, got list"),
    (_edited(z12_instance(), lambda d: d.update(complexes=[])),
     "$.complexes: expected an object, got list"),
    (_z12_complex(entries=[]), "$.complexes.C.entries: expected an object"),
    (_z12_complex(differentials=[]),
     "$.complexes.C.differentials: expected an object"),
    (_z12_complex(differentials={"0": 5}),
     "$.complexes.C.differentials.0: expected a list, got int"),
    (_z12_complex(differentials={"0": ["4"]}),
     "$.complexes.C.differentials.0[0]: expected a list, got str"),
    (_edited(z12_instance(),
             lambda d: d["modules"]["M"].update(relations=5)),
     "$.modules.M.relations: expected a list, got int"),
    (_z12_map(images=2), "$.maps.f.images: expected a list, got int"),
    (_z12_map(images="2"), "$.maps.f.images: expected a list, got str"),
    (_z12_map(kernel="t1 - 2"), "$.maps.f.kernel: expected a list"),
    (_z12_task(command="check_theorem3", ideals="a"),
     "$.tasks[0].ideals: expected a list, got str"),
    (_z12_task(command="check_lemma1", element=2),
     "$.tasks[0].element: expected a string, got int"),
    (_with_task(transport="yes"),
     "$.tasks[0].transport: expected a boolean, got str"),
    (_with_task(transport=None),
     "$.tasks[0].transport: expected a boolean, got NoneType"),
    (_z12_ring(kind="polynomial", vars="xy"),
     "$.ring: vars must be a list of strings"),
    (_z12_ring(kind="quotient", ambient={"kind": "polynomial",
                                         "vars": ["x"]}, ideal="x^2"),
     "$.ring: ideal must be a list of strings"),
    (_z12_ring(kind="prime_field", p=True),
     "$.ring: p must be an integer, not a boolean"),
    (_z12_ring(kind="truncated_power_series", precision=True),
     "$.ring: precision must be an integer, not a boolean"),
    # ring elements are JSON strings, never numbers or booleans
    (_edited(z12_instance(),
             lambda d: d["modules"]["M"].update(relations=[[12]])),
     "$.modules.M.relations[0][0]: expected a string, got int"),
    (_edited(z12_instance(),
             lambda d: d["modules"]["M"].update(relations=[[True]])),
     "$.modules.M.relations[0][0]: expected a string, got bool"),
    (_z12_complex(differentials={"0": [[4]]}),
     "$.complexes.C.differentials.0[0][0]: expected a string, got int"),
    (_z12_complex(entries={"0": {"ambient_rank": 1, "relations": [[2.5]]},
                           "1": {"ambient_rank": 1}}),
     "$.complexes.C.entries.0.relations[0][0]: expected a string, "
     "got float"),
    (_edited(z12_instance(), lambda d: d.update(ideals={"a": [2]})),
     "$.ideals.a[0]: expected a string, got int"),
    (_edited(z12_instance(), lambda d: d.update(ideals={"a": ["2", None]})),
     "$.ideals.a[1]: expected a string, got NoneType"),
    (_z12_map(images=[2]), "$.maps.f.images[0]: expected a string, got int"),
    (_z12_map(kernel=[False]),
     "$.maps.f.kernel[0]: expected a string, got bool"),
    (_z12_task(command="check_lemma1", element=True),
     "$.tasks[0].element: expected a string, got bool"),
    # degree keys are written as str(degree), so no two name one degree
    (_z12_complex(entries={"0": {"ambient_rank": 1},
                           "00": {"ambient_rank": 2}}),
     "$.complexes.C.entries.00: degree keys must be integers"),
    (_z12_complex(entries={"0": {"ambient_rank": 1},
                           " 1": {"ambient_rank": 1}}),
     "$.complexes.C.entries. 1: degree keys must be integers"),
    (_z12_complex(entries={"0": {"ambient_rank": 1},
                           "+1": {"ambient_rank": 1}}),
     "$.complexes.C.entries.+1: degree keys must be integers"),
    (_z12_complex(differentials={"1_0": [["4"]]}),
     "$.complexes.C.differentials.1_0: degree keys must be integers"),
    # a string outside the grammar is named where it is written
    (_z12_task(command="check_lemma1", element="zz"),
     "$.tasks[0].element: parse error"),
    (_z12_task(command="ext_localization", index=0, element="2+"),
     "$.tasks[0].element"),
    (_z12_task(command="lim_tower", kind="multiplication", element="q"),
     "$.tasks[0].element"),
    (_z12_complex(differentials={"0": [["4x"]]}),
     "$.complexes.C.differentials.0[0]"),
    (_z12_map(images=["2y"]), "$.maps.f.images"),
    (_z12_map(kernel=["t1 - y"]), "$.maps.f.kernel"),
])
def test_malformed_numeric_field_is_parse_error(tmp_path, capsys, data,
                                                position):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run", str(f)]) == EXIT_USAGE
    assert position in capsys.readouterr().err


@pytest.mark.parametrize("data, position", [
    (_z12_task(command="lim_tower"),
     "$.tasks[0]: missing required field 'ideal'"),
    (_z12_task(command="lim_tower", kind="multiplication", ideal="a"),
     "$.tasks[0]: missing required field 'element'"),
    (_z12_task(command="lim_tower", kind="sideways", ideal="a"),
     "$.tasks[0].kind: expected one of quotient, multiplication"),
    (_z12_task(command="ext_localization", index=1, element="2",
               route="sideways"),
     "$.tasks[0].route: expected one of both, tower, telescope"),
    (_z12_task(command="is_cohomologically_complete", ideal="a",
               route="both"),
     "$.tasks[0].route: expected one of auto, tower, telescope, "
     "joint_chain"),
    # lim_tower rejects the field its kind does not read
    (_z12_task(command="lim_tower", kind="multiplication", element="2",
               ideal="a"),
     "$.tasks[0]: unknown fields ['ideal']"),
    (_z12_task(command="lim_tower", ideal="a", element="2"),
     "$.tasks[0]: unknown fields ['element']"),
    # an Ext index outside 0 and 1, checked before the task ahead of it runs
    (_edited(z12_instance(), lambda d: d["tasks"].append(
        {"command": "ext_localization", "index": 2, "module": "M",
         "element": "2"})),
     "$.tasks[1].index: expected 0 or 1"),
])
def test_unknown_choice_or_missing_field_is_parse_error(tmp_path, capsys,
                                                        data, position):
    test_malformed_numeric_field_is_parse_error(tmp_path, capsys, data,
                                                position)


def test_module_entry_point_writes_nothing_to_stderr(child_env):
    proc = subprocess.run([sys.executable, "-m", "adiclab.cli", "generate",
                           "--seed", "1", "--count", "1", "--profile", "pid"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_errors_survive_pickling():
    e = pickle.loads(pickle.dumps(ParseError("$.tasks", "bad")))
    assert (type(e), e.position, e.cause, str(e)) == (
        ParseError, "$.tasks", "bad", "$.tasks: bad")
    e = pickle.loads(pickle.dumps(TaskError(3, "boom")))
    assert (type(e), e.index, e.cause, str(e)) == (
        TaskError, 3, "boom", "task 3: boom")


_NO_TASKS = ({"ring": {"kind": "integers"}},
             "$: missing required field 'tasks'")
_MODULES_LIST = ({"ring": {"kind": "integers"}, "modules": [], "tasks": []},
                 "$.modules: expected an object, got list")


@pytest.mark.parametrize("jobs, in_process, bad_file", [
    pytest.param("1", 2, _NO_TASKS, id="1-2"),
    pytest.param("2", 0, _NO_TASKS, id="2-0"),
    pytest.param("1", 2, _MODULES_LIST, id="modules-list-1-2"),
    pytest.param("2", 0, _MODULES_LIST, id="modules-list-2-0"),
])
def test_bad_file_in_batch_is_named(tmp_path, capsys, monkeypatch, jobs,
                                    in_process, bad_file):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(z12_instance()), encoding="utf-8")
    bad = tmp_path / "bad.json"
    data, cause = bad_file
    bad.write_text(json.dumps(data), encoding="utf-8")
    # under --jobs 2 the workers report the error, so the batch is not
    # rerun in this process
    calls = []
    monkeypatch.setattr(cli, "run_instance",
                        lambda *a: calls.append(a) or run_instance(*a))
    code = main(["run", str(good), str(bad), str(good), "--jobs", jobs])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"parse error: {bad}: {cause}\n"
    assert len(calls) == in_process


class _QueuedPool:
    """A process pool with one worker that runs the first submission at once
    and leaves the others queued, not started."""

    def __init__(self, max_workers):
        self.futures = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        if not self.futures:
            future.set_running_or_notify_cancel()
            try:
                future.set_result(fn(*args))
            except Exception as e:
                future.set_exception(e)
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        if cancel_futures:
            for future in self.futures:
                future.cancel()


def _z12_file(path, seed):
    """A z12 instance file; distinct seeds give distinct file contents."""
    path.write_text(json.dumps(dict(z12_instance(), seed=seed)),
                    encoding="utf-8")
    return str(path)


def test_failed_file_cancels_queued_files(tmp_path, capsys, monkeypatch):
    good = [_z12_file(tmp_path / f"good{i}.json", i) for i in (1, 2)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ring": {"kind": "integers"}}),
                   encoding="utf-8")
    pools = []

    def pool(max_workers):
        pools.append(_QueuedPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", pool)
    code = main(["run", str(bad), *good, "--jobs", "2"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"parse error: {bad}: $: missing required field 'tasks'\n")
    (queued,) = pools
    assert len(queued.futures) == 3
    assert all(f.cancelled() for f in queued.futures[1:])


class _BrokenPool:
    """A process pool whose workers die: every future raises."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_exception(
            concurrent.futures.process.BrokenProcessPool("a worker died"))
        return future


def _no_pool(max_workers):
    raise OSError(38, "Function not implemented")


@pytest.mark.parametrize("pool, cause", [
    (_BrokenPool, "BrokenProcessPool('a worker died')"),
    (_no_pool, "OSError(38, 'Function not implemented')"),
])
def test_failed_pool_reruns_serially_and_says_so(tmp_path, capsys,
                                                monkeypatch, pool, cause):
    files = [_z12_file(tmp_path / f"z12_{i}.json", i) for i in range(2)]
    serial_code = main(["run", *files, "--format", "machine", "--jobs", "1"])
    serial = capsys.readouterr()
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", pool)
    code = main(["run", *files, "--format", "machine", "--jobs", "2"])
    fallback = capsys.readouterr()
    assert (code, fallback.out) == (serial_code, serial.out)
    assert serial.err == ""
    assert fallback.err == f"process pool: {cause}; running serially\n"


class _InlinePool:
    """A process pool that runs each submission at once, in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as e:
            future.set_exception(e)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    """Every pool cli.main starts is an _InlinePool; returns the list of
    the pools started."""
    pools = []

    def pool(max_workers):
        pools.append(_InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", pool)
    return pools


def _count_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_instance",
                        lambda *a: calls.append(a[0]) or run_instance(*a))
    return calls


@pytest.mark.parametrize("jobs, pools", [("1", 0), ("2", 1)])
def test_identical_files_run_once_and_report_under_each_name(
        tmp_path, capsys, monkeypatch, inline_pool, jobs, pools):
    a = _z12_file(tmp_path / "a.json", 1)
    b = _z12_file(tmp_path / "b.json", 2)
    a_copy = tmp_path / "a_copy.json"
    a_copy.write_bytes((tmp_path / "a.json").read_bytes())
    files = [a, b, str(a_copy), a]
    alone = []
    for f in files:
        assert main(["run", f, "--format", "machine"]) == EXIT_OK
        alone.append(json.loads(capsys.readouterr().out))
    calls = _count_runs(monkeypatch)
    code = main(["run", *files, "--format", "machine", "--jobs", jobs])
    out = capsys.readouterr()
    assert (code, out.err) == (EXIT_OK, "")
    assert json.loads(out.out)["reports"] == alone
    assert calls == [a, b]
    assert len(inline_pool) == pools
    assert all(pool.submitted == 2 for pool in inline_pool)


def test_pool_starts_no_more_workers_than_files(tmp_path, capsys,
                                                inline_pool):
    files = [_z12_file(tmp_path / f"z12_{i}.json", i) for i in range(2)]
    assert main(["run", *files, "--jobs", "64"]) == EXIT_OK
    capsys.readouterr()
    (pool,) = inline_pool
    assert pool.max_workers == 2


def test_one_content_starts_no_pool(tmp_path, capsys, monkeypatch,
                                    inline_pool):
    a = _z12_file(tmp_path / "a.json", 1)
    a_copy = tmp_path / "a_copy.json"
    a_copy.write_bytes((tmp_path / "a.json").read_bytes())
    calls = _count_runs(monkeypatch)
    code = main(["run", a, str(a_copy), a, "--format", "machine",
                 "--jobs", "2"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert code == EXIT_OK
    assert [r["instance"] for r in reports] == [a, str(a_copy), a]
    assert calls == [a]
    assert inline_pool == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unreadable_file_between_duplicates_is_named(tmp_path, capsys,
                                                     inline_pool, jobs):
    a = _z12_file(tmp_path / "a.json", 1)
    a_copy = tmp_path / "a_copy.json"
    a_copy.write_bytes((tmp_path / "a.json").read_bytes())
    missing = tmp_path / "missing.json"
    code = main(["run", a, str(missing), str(a_copy), "--jobs", jobs])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"parse error: {missing}: $: cannot read: No such file or "
        "directory\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_non_utf8_file_is_parse_error(tmp_path, capsys, jobs):
    good = _z12_file(tmp_path / "good.json", 1)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code = main(["run", str(bad), good, "--jobs", jobs])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"parse error: {bad}: $: not UTF-8 at byte 0: invalid start "
        "byte\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_read_once(capsys):
    # as `adiclab run <(cat a.json)` passes it: a path to a pipe
    r, w = os.pipe()
    try:
        os.write(w, json.dumps(z12_instance()).encode())
        os.close(w)
        assert main(["run", f"/dev/fd/{r}", "--format", "machine"]) == EXIT_OK
    finally:
        os.close(r)
    assert json.loads(capsys.readouterr().out)["tasks"][0]["status"] == (
        "consistent")


def _graded_instance(grading):
    data = {
        "ring": {"kind": "polynomial", "base": {"kind": "rationals"},
                 "vars": ["x", "y"], "order": "grlex"},
        "modules": {"M": {"ambient_rank": 2, "relations": [["x", "y^2"]]}},
        "ideals": {"a": ["x"]},
        "tasks": [{"command": "check_theorem4", "module": "M",
                   "ideal": "a"}],
    }
    if grading is not None:
        data["modules"]["M"]["grading"] = grading
    return data


def test_grading_enters_the_digests():
    plain = run_instance(_graded_instance(None))
    graded = run_instance(_graded_instance([0, -1]))
    assert plain["instance_digest"] != graded["instance_digest"]
    assert (plain["tasks"][0]["instance_digest"]
            != graded["tasks"][0]["instance_digest"])


def test_round_trip_keeps_grading():
    again = serialize_instance(parse_instance(_graded_instance([0, -1])))
    assert again["modules"]["M"]["grading"] == [0, -1]
    assert parse_instance(again).modules["M"].grading == (0, -1)
    assert "grading" not in serialize_instance(
        parse_instance(_graded_instance(None)))["modules"]["M"]


def test_negative_tower_depth_is_a_task_error(tmp_path, capsys):
    f = tmp_path / "neg.json"
    f.write_text(json.dumps(_z12_task(command="completion_tower", ideal="a",
                                      depth=-2)), encoding="utf-8")
    code = main(["run", str(f), "--format", "machine"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "task 0: negative tower depth -2" in captured.err


def test_no_memo_scope_after_run_instance():
    run_instance(z12_instance())
    assert adic._MEMO.get() is None
    data = z12_instance()
    data["tasks"] = [{"command": "completion_tower", "module": "M",
                      "ideal": "a", "depth": 1000}]
    with pytest.raises(TaskError):
        run_instance(data)
    assert adic._MEMO.get() is None


# The machine reports of a small fixed corpus, hashed once per profile.  A
# change that must not alter results (a refactor, a faster Groebner core)
# keeps every digest; one that alters results on purpose records the new
# digest of each profile it alters, with a reason, and the others show
# that the rest stayed put.
PINNED_CORPUS = {"pid": 10, "mixed": 10, "lemma5": 10, "theorem3": 2,
                 "theorem2": 2, "lemma1": 2}
PINNED_SHA256 = {
    "pid": "dedc87a483a498482695885d974b492a84aca3fb7032a5f5ca68a8cac93dba78",
    "mixed":
        "4f2ace8d489e51cdea2fad71b691b55b565d9d90f450409b7eb9d14c26bd48ac",
    "lemma5":
        "80a663553e71707b589e7753fcc63caa9bf70d6f1cbec0a3439c972ef3a842b2",
    "theorem3":
        "ff5ca2a71b2a7e5584f1cdd84a6b0e83a6e0cd5bd29df4c14463803f1a7fac4e",
    "theorem2":
        "61ddb4a74116cbf3a76132d39bd1e4d9daa7c3beb8798de9fa399df5307037c1",
    "lemma1":
        "737f73df0b39db79ed739a3866a288ea09e0bbed7634eaae8a93348a673005ca",
}


def test_machine_report_bytes_are_pinned():
    got = {}
    for profile, count in PINNED_CORPUS.items():
        digest = hashlib.sha256()
        for data in generate_instances(1, count, profile):
            digest.update(emit_report(run_instance(data), "machine").encode())
        got[profile] = digest.hexdigest()
    assert got == PINNED_SHA256


# The machine reports of generate_instances(7, 30, profile), hashed once
# per profile: seed 7 reaches route-"telescope" and route-"both" stage
# values that seed 1 does not, among them two lemma1 tasks that only the
# pruned telescope stage values decide.
SEED7_SHA256 = {
    "lemma1":
        "c9a93460f396150164209b782fef2a7690ae974461495fd868da6381bfe2cc7a",
    "theorem2":
        "260cb8dbf9d00106851bf55489fa05e191b1c6f620ce5b355e4212ac903dcf13",
}


def test_seed7_machine_reports_are_pinned():
    got = {}
    for profile in SEED7_SHA256:
        digest = hashlib.sha256()
        for data in generate_instances(7, 30, profile):
            digest.update(emit_report(run_instance(data), "machine").encode())
        got[profile] = digest.hexdigest()
    assert got == SEED7_SHA256


# sha256 of json.dumps(generate_instances(1, 20, profile), sort_keys=True)
# for every profile: a change to a generator, or to the order of its
# draws, changes the corpus that the pinned reports and the README's
# corpus check read.
GENERATED_SHA256 = {
    "pid": "217eb250e022c3cefadeee41178c8c7a2a4e43ec0492d8006a21f6b140f14db6",
    "mixed":
        "89953d8598f7314c4facef82c3fc6b8323c9996d9791e9b2258cac4d83433176",
    "theorem3":
        "27e34982fd033aaf3393a208ae8b6f763483a30d458efb9d1c953b7157d4dc10",
    "theorem2":
        "e86b85ed3058daa8b58211de0a1baa501c91a73ec663a0f65f430947e477bdef",
    "lemma1":
        "19e954a8fbd97264bfb8ad4ea2638f57c493a28f1ba4f5ecf2f23a18621439fe",
    "lemma5":
        "201f6641b32384aa542de3339581357653adac87f9b77b09a85752f504374f85",
    "example1":
        "3b7a4315f186e85e9c2bc76ecdd6b5c9976f85b23b433bb1efbe80459ed84d6b",
}


@pytest.mark.parametrize("profile", cli.PROFILES)
def test_generated_corpus_is_pinned(profile):
    blob = json.dumps(generate_instances(1, 20, profile), sort_keys=True)
    assert (hashlib.sha256(blob.encode()).hexdigest()
            == GENERATED_SHA256[profile])


def _all_commands_instance():
    """One small ZZ instance whose tasks run all twelve commands: every
    cohomological-completeness route, both Ext indices on every Ext route,
    both tower kinds of lim_tower, and build_example1 at support and
    precision 4."""
    cc = [{"command": "is_cohomologically_complete", "module": "M",
           "ideal": "a", "route": route}
          for route in ("auto", "tower", "telescope", "joint_chain")]
    ext = [{"command": "ext_localization", "index": index, "module": "M",
            "element": "2", "route": route}
           for route in ("both", "tower", "telescope") for index in (0, 1)]
    return {
        "ring": {"kind": "integers"},
        "modules": {"M": {"ambient_rank": 2, "relations": [["4", "0"]]},
                    "T": {"ambient_rank": 1, "relations": [["12"]]}},
        "complexes": {"C": {"entries": {"0": {"ambient_rank": 1},
                                        "1": {"ambient_rank": 1}},
                            "differentials": {"0": [["4"]]}}},
        "ideals": {"a": ["2"], "b": ["3"]},
        "maps": {"f": {"variables": 1, "images": ["2"],
                       "kernel": ["t1 - 2"]}},
        "tasks": [
            {"command": "check_theorem2", "complex": "C", "ideal": "a"},
            {"command": "check_theorem3", "module": "T",
             "ideals": ["a", "b"]},
            {"command": "check_theorem4", "module": "M", "ideal": "a"},
            {"command": "check_lemma1", "module": "T", "element": "2"},
            {"command": "check_lemma5", "map": "f", "b_index": 0,
             "module": "T"},
            {"command": "build_example1", "support": 4, "precision": 4},
            {"command": "is_separated", "module": "M", "ideal": "a"},
            {"command": "is_complete", "module": "M", "ideal": "a"},
            *cc, *ext,
            {"command": "completion_tower", "module": "T", "ideal": "a",
             "depth": 4},
            {"command": "lim_tower", "module": "T", "ideal": "a"},
            {"command": "lim_tower", "module": "M", "kind": "multiplication",
             "element": "2"},
        ],
        "seed": 1,
    }


# The machine report of `_all_commands_instance`, hashed, as the pinned
# corpus above: it pins the report of every command, route and tower kind.
ALL_COMMANDS_SHA256 = \
    "e357e2f248b9783d4a675e883268809d84b78e63659ad974af51bf525755b81b"


def test_machine_report_of_every_command_is_pinned():
    data = _all_commands_instance()
    assert {t["command"] for t in data["tasks"]} == set(cli._COMMANDS)
    rep = run_instance(data)
    assert rep["exit_status"] == EXIT_OK
    report = emit_report(rep, "machine")
    assert hashlib.sha256(report.encode()).hexdigest() == ALL_COMMANDS_SHA256


def test_ext_reports_name_the_index_they_decided():
    # the report's `index` is the task's position, so the Ext index has a
    # key of its own
    data = _edited(z12_instance(), lambda d: d.update(tasks=[
        {"command": "ext_localization", "index": i, "module": "M",
         "element": "2"} for i in (1, 0)]))
    tasks = run_instance(data)["tasks"]
    assert [(t["index"], t["ext_index"]) for t in tasks] == [(0, 1), (1, 0)]


def _rational_instances():
    """A QQ[x] and a QQ[[t]]/t^4 instance whose inputs have non-integral
    coefficients (1/2, -3/4, 2/3) and an integral one written as 4/2; their
    reports print non-integral coefficients in witnesses and generators."""
    cc = [{"command": "is_cohomologically_complete", "module": "M",
           "ideal": "a", "route": route} for route in ("tower", "telescope")]
    polynomial = {
        "ring": {"kind": "polynomial", "base": {"kind": "rationals"},
                 "vars": ["x"], "order": "grlex"},
        "modules": {"M": {"ambient_rank": 2,
                          "relations": [["1/2*x^2 - 3/4*x", "4/2*x"],
                                        ["0", "-3/4*x^3"]]}},
        "ideals": {"a": ["2/3*x"]},
        "tasks": [
            {"command": "check_theorem4", "module": "M", "ideal": "a"},
            {"command": "check_lemma1", "module": "M", "element": "-3/4*x"},
            {"command": "completion_tower", "module": "M", "ideal": "a",
             "depth": 3},
            {"command": "ext_localization", "index": 1, "module": "M",
             "element": "1/2*x", "route": "both"},
            *cc,
        ],
    }
    series = {
        "ring": {"kind": "truncated_power_series",
                 "base": {"kind": "rationals"}, "var": "t", "precision": 4},
        "modules": {"M": {"ambient_rank": 2,
                          "relations": [["1/2*t - 3/4*t^2", "4/2*t^2"],
                                        ["-3/4*t^3", "0"]]}},
        "ideals": {"a": ["1/2*t"]},
        "tasks": [
            {"command": "check_theorem4", "module": "M", "ideal": "a"},
            {"command": "completion_tower", "module": "M", "ideal": "a",
             "depth": 3},
            {"command": "lim_tower", "module": "M", "kind": "multiplication",
             "element": "-3/4*t"},
            *cc,
        ],
    }
    return polynomial, series


# The machine reports of `_rational_instances`, hashed: the pinned corpus
# and the all-commands instance above have only integral input coefficients.
RATIONAL_SHA256 = \
    "0a47dc7ee09908fd39534c6a92e0ad5f7f0dd1917dcb4bfd3c65f1dd1e067eef"


def test_machine_reports_with_rational_coefficients_are_pinned():
    digest = hashlib.sha256()
    for data in _rational_instances():
        rep = run_instance(data)
        assert rep["exit_status"] == EXIT_OK
        digest.update(emit_report(rep, "machine").encode())
    assert digest.hexdigest() == RATIONAL_SHA256


def _ladder_instances():
    """The anomalous example at support = precision 6 and 8 over QQ[[t]]:
    the larger rungs of the benchmark's ladder, whose wide, sparse
    presentations the all-commands instance (support 4) does not reach."""
    return [{"ring": {"kind": "truncated_power_series",
                      "base": {"kind": "rationals"}, "var": "t",
                      "precision": n},
             "tasks": [{"command": "build_example1", "support": n,
                        "precision": n}]}
            for n in (6, 8)]


# The machine reports of `_ladder_instances`, hashed, as the pinned corpus
# above.
LADDER_SHA256 = \
    "34b2186230e9f3a754b170baa8440e8d8c489a0ffb1a388a0369a93f4920bd51"


def test_machine_reports_of_the_larger_ladder_rungs_are_pinned():
    digest = hashlib.sha256()
    for data in _ladder_instances():
        rep = run_instance(data)
        assert rep["exit_status"] == EXIT_OK
        digest.update(emit_report(rep, "machine").encode())
    assert digest.hexdigest() == LADDER_SHA256
