"""Batch driver: parse instance files, dispatch checkers, emit reports.

Instance files are strict-schema UTF-8 JSON: unknown fields are rejected
with a position.  Reports come in a fixed-width text form and a machine
JSON form with stable key order; machine reports are byte-identical across
repeated and parallel runs of the same inputs (volatile timing data is
never serialized).  Exit codes: 0 when every task is decisive and
consistent, 2 when some task is indecisive or unknown, 3 when any task is
inconsistent, 4 for usage or parse errors.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
import random
import stat
import sys
from dataclasses import dataclass

from . import __version__
from .adic import (Budgets, completion_tower, is_complete, is_separated,
                   lim_tower, memo_scope, multiplication_tower)
from .complexes import BoundedComplex
from .derived import ext_localization, is_cohomologically_complete
from .errors import AdicLabError, ParseError, TaskError, UnknownProfile
from .modules import FPModule, ModuleHom, module_data
from .rings import (RingMap, RingSpec, element_to_str, make_ring,
                    parse_element, ring_polynomial, ring_integers,
                    ring_to_desc)
from .theorems import (build_example1, canonical_digest, check_lemma1,
                       check_lemma5, check_theorem2, check_theorem3,
                       check_theorem4, EquivalenceReport)
from .verdicts import Verdict

TOOL_VERSION = __version__

EXIT_OK = 0
EXIT_INDECISIVE = 2
EXIT_INCONSISTENT = 3
EXIT_USAGE = 4


# ---------------------------------------------------------------------------
# strict parsing


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string",
               bool: "a boolean"}


def _of_type(value, kind, path):
    """The value, when it has the JSON type `kind`; else a ParseError."""
    if not isinstance(value, kind):
        raise ParseError(path, f"expected {_TYPE_NAMES[kind]}, "
                               f"got {type(value).__name__}")
    return value


def _strings(values, path):
    """The list `values`, when every item is a string (the JSON form of a
    ring element); else a ParseError at the first item that is not."""
    for j, v in enumerate(values):
        _of_type(v, str, f"{path}[{j}]")
    return values


def _check_keys(obj, required, optional, path):
    _of_type(obj, dict, path)
    for k in required:
        if k not in obj:
            raise ParseError(path, f"missing required field {k!r}")
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise ParseError(path, f"unknown fields {sorted(extra)}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class Instance:
    ring: RingSpec
    modules: dict
    complexes: dict
    ideals: dict
    maps: dict
    tasks: list
    seed: int | None


def _parse_module(ring, data, path) -> FPModule:
    _check_keys(data, ["ambient_rank"], ["relations", "grading"], path)
    n = data["ambient_rank"]
    if not _is_int(n) or n < 0:
        raise ParseError(path, "ambient_rank must be a nonnegative integer")
    rels = []
    relations = _of_type(data.get("relations", []), list, f"{path}.relations")
    for i, row in enumerate(relations):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{path}.relations[{i}]",
                             f"expected a row of {n} coefficient strings")
        _strings(row, f"{path}.relations[{i}]")
        try:
            rels.append(tuple(parse_element(ring, s) for s in row))
        except AdicLabError as e:
            raise ParseError(f"{path}.relations[{i}]", str(e)) from None
    grading = data.get("grading")
    if grading is not None and not (
            isinstance(grading, list) and len(grading) == n
            and all(_is_int(g) for g in grading)):
        raise ParseError(f"{path}.grading", f"expected a list of {n} integers")
    return FPModule(ring, n, rels, grading=grading)


def _degree(key: str, path: str) -> int:
    """The degree a key names, which must be written as `str(degree)`, so
    that no two keys name one degree."""
    try:
        j = int(key)
    except ValueError:
        j = None
    if j is None or str(j) != key:
        raise ParseError(path, "degree keys must be integers in canonical "
                               "decimal form")
    return j


def _parse_complex(ring, data, modules, path) -> BoundedComplex:
    _check_keys(data, ["entries"], ["differentials"], path)
    entries = {}
    for key, val in _of_type(data["entries"], dict, f"{path}.entries").items():
        j = _degree(key, f"{path}.entries.{key}")
        if isinstance(val, str):
            if val not in modules:
                raise ParseError(f"{path}.entries.{key}",
                                 f"undeclared module {val!r}")
            entries[j] = modules[val]
        else:
            entries[j] = _parse_module(ring, val, f"{path}.entries.{key}")
    diffs = {}
    differentials = _of_type(data.get("differentials", {}), dict,
                             f"{path}.differentials")
    for key, mat in differentials.items():
        j = _degree(key, f"{path}.differentials.{key}")
        src = entries.get(j)
        tgt = entries.get(j + 1)
        if src is None or tgt is None:
            raise ParseError(f"{path}.differentials.{key}",
                             "differential outside the declared window")
        for i, row in enumerate(_of_type(mat, list,
                                         f"{path}.differentials.{key}")):
            _strings(_of_type(row, list, f"{path}.differentials.{key}[{i}]"),
                     f"{path}.differentials.{key}[{i}]")
        try:
            rows = [tuple(parse_element(ring, s) for s in row) for row in mat]
            diffs[j] = ModuleHom(src, tgt, rows)
        except AdicLabError as e:
            raise ParseError(f"{path}.differentials.{key}", str(e)) from None
    try:
        return BoundedComplex(ring, entries, diffs)
    except AdicLabError as e:
        raise ParseError(path, str(e)) from None


_TASK_SCHEMAS = {
    "check_theorem2": (["complex", "ideal"], []),
    "check_theorem3": (["module", "ideals"], []),
    "check_theorem4": (["module", "ideal"], ["transport"]),
    "check_lemma1": (["module", "element"], []),
    "check_lemma5": (["map", "b_index", "module"], []),
    "build_example1": (["support", "precision"], []),
    "is_separated": (["module", "ideal"], []),
    "is_complete": (["module", "ideal"], []),
    "is_cohomologically_complete": (["module", "ideal"], ["route"]),
    "ext_localization": (["index", "module", "element"], ["route"]),
    "completion_tower": (["module", "ideal"], ["depth"]),
    "lim_tower": (["module"], ["ideal", "element", "kind"]),
}

# The values an enumerated task field may take.
_TASK_CHOICES = {
    "is_cohomologically_complete": {
        "route": ("auto", "tower", "telescope", "joint_chain")},
    "ext_localization": {"route": ("both", "tower", "telescope")},
    "lim_tower": {"kind": ("quotient", "multiplication")},
}

# The JSON type of each task field that names a declared object, an element
# or a switch.
_TASK_FIELD_TYPES = {"module": str, "complex": str, "ideal": str, "map": str,
                     "ideals": list, "element": str, "transport": bool}

_BUDGET_FIELDS = tuple(Budgets().as_dict())


def _section(data, key, path):
    """The named-object section `key` of an instance, {} when absent."""
    return _of_type(data.get(key, {}), dict, f"{path}.{key}")


def parse_instance(data, path="$") -> Instance:
    _check_keys(data, ["ring", "tasks"],
                ["modules", "complexes", "ideals", "maps", "seed"], path)
    try:
        ring = make_ring(data["ring"])
    except AdicLabError as e:
        raise ParseError(f"{path}.ring", str(e)) from None
    modules = {}
    for name, mdata in _section(data, "modules", path).items():
        modules[name] = _parse_module(ring, mdata, f"{path}.modules.{name}")
    complexes = {}
    for name, cdata in _section(data, "complexes", path).items():
        complexes[name] = _parse_complex(ring, cdata, modules,
                                         f"{path}.complexes.{name}")
    ideals = {}
    for name, gens in _section(data, "ideals", path).items():
        if not isinstance(gens, list):
            raise ParseError(f"{path}.ideals.{name}",
                             "an ideal is a list of coefficient strings")
        _strings(gens, f"{path}.ideals.{name}")
        try:
            ideals[name] = [parse_element(ring, s) for s in gens]
        except AdicLabError as e:
            raise ParseError(f"{path}.ideals.{name}", str(e)) from None
    maps = {}
    for name, mdata in _section(data, "maps", path).items():
        mpath = f"{path}.maps.{name}"
        _check_keys(mdata, ["variables", "images"], ["kernel"], mpath)
        nvars = mdata["variables"]
        if not _is_int(nvars) or not 1 <= nvars <= 4:
            raise ParseError(mpath, "variables must be between 1 and 4")
        src = ring_polynomial(ring_integers(),
                              tuple(f"t{i+1}" for i in range(nvars)))
        images = _strings(_of_type(mdata["images"], list, f"{mpath}.images"),
                          f"{mpath}.images")
        kernel = _strings(_of_type(mdata.get("kernel", []), list,
                                   f"{mpath}.kernel"), f"{mpath}.kernel")
        try:
            images = tuple(parse_element(ring, s) for s in images)
            f = RingMap(src, ring, images)
            kernel = [parse_element(src, s) for s in kernel]
        except AdicLabError as e:
            raise ParseError(mpath, str(e)) from None
        maps[name] = (f, kernel)
    tasks = data["tasks"]
    if not isinstance(tasks, list):
        raise ParseError(f"{path}.tasks", "tasks must be a list")
    for idx, task in enumerate(tasks):
        tpath = f"{path}.tasks[{idx}]"
        if not isinstance(task, dict) or "command" not in task:
            raise ParseError(tpath, "each task needs a command")
        cmd = task["command"]
        if not isinstance(cmd, str) or cmd not in _TASK_SCHEMAS:
            raise ParseError(tpath, f"unknown command {cmd!r}")
        req, opt = _TASK_SCHEMAS[cmd]
        _check_keys(task, ["command"] + req, opt + ["budgets"], tpath)
        for key in ("support", "precision", "depth", "index", "b_index"):
            if key in task and not _is_int(task[key]):
                raise ParseError(f"{tpath}.{key}", "expected an integer")
        for key, kind in _TASK_FIELD_TYPES.items():
            if key in task:
                _of_type(task[key], kind, f"{tpath}.{key}")
        for key, allowed in _TASK_CHOICES.get(cmd, {}).items():
            if key in task and task[key] not in allowed:
                raise ParseError(f"{tpath}.{key}",
                                 f"expected one of {', '.join(allowed)}")
        if cmd == "lim_tower":
            need = ("element" if task.get("kind") == "multiplication"
                    else "ideal")
            if need not in task:
                raise ParseError(tpath, f"missing required field {need!r}")
        if "budgets" in task:
            _check_keys(task["budgets"], [], _BUDGET_FIELDS, f"{tpath}.budgets")
            for key, val in task["budgets"].items():
                if not _is_int(val) or val < 0:
                    raise ParseError(f"{tpath}.budgets.{key}",
                                     "expected a nonnegative integer")
        for key in ("module", "complex"):
            if key in task:
                pool = modules if key == "module" else complexes
                if task[key] not in pool:
                    raise ParseError(f"{tpath}.{key}",
                                     f"undeclared {key} {task[key]!r}")
        if "ideal" in task and task["ideal"] not in ideals:
            raise ParseError(f"{tpath}.ideal",
                             f"undeclared ideal {task['ideal']!r}")
        if "ideals" in task:
            for nm in task["ideals"]:
                if not isinstance(nm, str) or nm not in ideals:
                    raise ParseError(f"{tpath}.ideals",
                                     f"undeclared ideal {nm!r}")
        if "map" in task and task["map"] not in maps:
            raise ParseError(f"{tpath}.map", f"undeclared map {task['map']!r}")
    seed = data.get("seed")
    if seed is not None and not _is_int(seed):
        raise ParseError(f"{path}.seed", "seed must be an integer")
    return Instance(ring, modules, complexes, ideals, maps, list(tasks), seed)


def serialize_instance(inst: Instance) -> dict:
    out = {"ring": ring_to_desc(inst.ring)}
    if inst.modules:
        out["modules"] = {name: module_data(m)
                          for name, m in inst.modules.items()}
    if inst.complexes:
        out["complexes"] = {
            name: {"entries": {str(j): module_data(mod)
                               for j, mod in C.entries.items()},
                   "differentials": {str(j): [[element_to_str(e) for e in row]
                                              for row in d.matrix]
                                     for j, d in C.diffs.items()}}
            for name, C in inst.complexes.items()}
    if inst.ideals:
        out["ideals"] = {name: [element_to_str(g) for g in gens]
                         for name, gens in inst.ideals.items()}
    if inst.maps:
        out["maps"] = {name: {"variables": f.source.nvars,
                              "images": [element_to_str(e) for e in f.images],
                              "kernel": [element_to_str(g) for g in kernel]}
                       for name, (f, kernel) in inst.maps.items()}
    out["tasks"] = inst.tasks
    if inst.seed is not None:
        out["seed"] = inst.seed
    return out


# ---------------------------------------------------------------------------
# task execution


def _task_budgets(base: Budgets, task) -> Budgets:
    return Budgets(**{**base.as_dict(), **task.get("budgets", {})})


def _pack_verdict_task(command, v: Verdict, budgets: Budgets) -> dict:
    return {"command": command, "status": v.status, "verdict": v.to_data(),
            "budgets": budgets.as_dict()}


def _pack_equivalence(command, rep: EquivalenceReport, budgets: Budgets) -> dict:
    data = rep.to_data()
    return {"command": command, "status": rep.consistent,
            "left": data["left"], "right": data["right"],
            "sub_reports": data["sub_reports"],
            "instance_digest": data["instance_digest"],
            "budgets": budgets.as_dict()}


def run_task(inst: Instance, task: dict, budgets: Budgets) -> dict:
    cmd = task["command"]
    b = _task_budgets(budgets, task)
    if cmd == "check_theorem2":
        rep = check_theorem2(inst.complexes[task["complex"]],
                             inst.ideals[task["ideal"]], b)
        return _pack_equivalence(cmd, rep, b)
    if cmd == "check_theorem3":
        rep = check_theorem3(inst.modules[task["module"]],
                             [inst.ideals[nm] for nm in task["ideals"]], b)
        return _pack_equivalence(cmd, rep, b)
    if cmd == "check_theorem4":
        rep = check_theorem4(inst.modules[task["module"]],
                             inst.ideals[task["ideal"]], b,
                             transport=task.get("transport"))
        return _pack_equivalence(cmd, rep, b)
    if cmd == "check_lemma1":
        elem = parse_element(inst.ring, task["element"])
        rep = check_lemma1(inst.modules[task["module"]], elem, b)
        return _pack_equivalence(cmd, rep, b)
    if cmd == "check_lemma5":
        f, kernel = inst.maps[task["map"]]
        rep = check_lemma5(f, task["b_index"], inst.modules[task["module"]],
                           b, kernel_gens=kernel or None)
        return _pack_equivalence(cmd, rep, b)
    if cmd == "build_example1":
        ex = build_example1(task["support"], task["precision"], budgets=b)
        verdicts_data = {k: v.to_data() for k, v in sorted(ex.report.items())}
        statuses = [v.status for v in ex.report.values()]
        status = "unknown" if "unknown" in statuses else "decisive"
        return {"command": cmd, "status": status,
                "support": task["support"], "precision": task["precision"],
                "element": [element_to_str(e) for e in ex.element],
                "verdicts": verdicts_data, "budgets": b.as_dict()}
    if cmd == "is_separated":
        v = is_separated(inst.modules[task["module"]],
                         inst.ideals[task["ideal"]], b)
        return _pack_verdict_task(cmd, v, b)
    if cmd == "is_complete":
        v = is_complete(inst.modules[task["module"]],
                        inst.ideals[task["ideal"]], b)
        return _pack_verdict_task(cmd, v, b)
    if cmd == "is_cohomologically_complete":
        v = is_cohomologically_complete(inst.modules[task["module"]],
                                        inst.ideals[task["ideal"]], b,
                                        route=task.get("route", "auto"))
        return _pack_verdict_task(cmd, v, b)
    if cmd == "ext_localization":
        elem = parse_element(inst.ring, task["element"])
        e = ext_localization(task["index"], elem, inst.modules[task["module"]],
                             b, route=task.get("route", "both"))
        out = _pack_verdict_task(cmd, e.vanishing, b)
        out["index"] = task["index"]
        out["agreement"] = e.agreement
        return out
    if cmd == "completion_tower":
        M = inst.modules[task["module"]]
        T = completion_tower(M, inst.ideals[task["ideal"]],
                             depth=task.get("depth", b.depth), budgets=b)
        stab = T.stabilization(b)
        return {"command": cmd, "status": "decisive" if stab else "unknown",
                "stabilized_at": stab[0] if stab else None,
                "certificate": stab[1] if stab else None,
                "budgets": b.as_dict()}
    if cmd == "lim_tower":
        M = inst.modules[task["module"]]
        if task.get("kind") == "multiplication":
            elem = parse_element(inst.ring, task["element"])
            T = multiplication_tower(M, elem, b.depth)
        else:
            T = completion_tower(M, inst.ideals[task["ideal"]], b.depth, b)
        rep, lim1 = lim_tower(T, b)
        return {"command": cmd,
                "status": "decisive" if rep.decisive and lim1.decisive
                else "unknown",
                "lim": {"decisive": rep.decisive, "note": rep.note,
                        "stabilized_at": rep.stabilized_at},
                "lim1_vanishing": lim1.to_data(), "budgets": b.as_dict()}
    raise TaskError(-1, f"unhandled command {cmd}")


_STATUS_SEVERITY = {
    "consistent": EXIT_OK, "holds": EXIT_OK, "fails": EXIT_OK,
    "decisive": EXIT_OK,
    "indecisive": EXIT_INDECISIVE, "unknown": EXIT_INDECISIVE,
    "inconsistent": EXIT_INCONSISTENT,
}


def run_instance(source, overrides: Budgets | None = None,
                 label: str = "<memory>") -> dict:
    """Execute an instance file; returns the Report as plain data."""
    if isinstance(source, dict):
        data = source
    else:
        label = str(source)
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise ParseError("$", f"cannot read: {e.strerror or e}") from None
        except UnicodeDecodeError as e:
            raise ParseError("$", f"not UTF-8 at byte {e.start}: "
                                  f"{e.reason}") from None
        except json.JSONDecodeError as e:
            raise ParseError(f"line {e.lineno}, column {e.colno}",
                             e.msg) from None
    inst = parse_instance(data)
    budgets = overrides or Budgets()
    digest = canonical_digest(serialize_instance(inst))
    task_reports = []
    with memo_scope():
        for idx, task in enumerate(inst.tasks):
            try:
                out = run_task(inst, task, budgets)
            except AdicLabError as e:
                raise TaskError(idx, str(e)) from None
            out["index"] = idx
            task_reports.append(out)
    severity = EXIT_OK
    for t in task_reports:
        severity = max(severity, _STATUS_SEVERITY.get(t["status"],
                                                      EXIT_INDECISIVE))
    return {
        "tool_version": TOOL_VERSION,
        "instance": label,
        "instance_digest": digest,
        "seed": inst.seed,
        "budgets": budgets.as_dict(),
        "wall_clock_ms": None,
        "tasks": task_reports,
        "exit_status": severity,
    }


# ---------------------------------------------------------------------------
# report emission


def emit_report(report: dict, fmt: str = "text") -> str:
    if fmt == "machine":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ParseError("--format", f"unknown format {fmt!r}")
    lines = []
    lines.append(f"instance: {report['instance']}")
    lines.append(f"digest:   {report['instance_digest']}")
    header = (f"{'task':<6}{'command':<30}{'left':<14}{'right':<14}"
              f"{'consistency':<14}{'budget':<10}")
    lines.append(header)
    lines.append("-" * len(header))
    for t in report["tasks"]:
        left = t.get("left", {}).get("status", "-") if isinstance(
            t.get("left"), dict) else t.get("verdict", {}).get("status", "-")
        right = t.get("right", {}).get("status", "-") if isinstance(
            t.get("right"), dict) else "-"
        budget = t.get("budgets", {}).get("depth", "-")
        lines.append(f"{t['index']:<6}{t['command']:<30}{left:<14}"
                     f"{right:<14}{t['status']:<14}{budget:<10}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instance generation


PROFILES = ("pid", "mixed", "theorem3", "theorem2", "lemma1", "lemma5",
            "example1")


def _ring_descs_mixed():
    return [
        {"kind": "integers"},
        {"kind": "polynomial", "base": {"kind": "rationals"},
         "vars": ["x"], "order": "grlex"},
        {"kind": "polynomial", "base": {"kind": "rationals"},
         "vars": ["x", "y"], "order": "grlex"},
        {"kind": "polynomial", "base": {"kind": "prime_field", "p": 5},
         "vars": ["x", "y"], "order": "grlex"},
        {"kind": "truncated_power_series", "base": {"kind": "rationals"},
         "var": "t", "precision": 8},
    ]


_IDEAL_CATALOG = {
    "integers": [["2"], ["3"], ["4"], ["6"], ["2", "3"], ["5"]],
    "x": [["x"], ["x^2"], ["x + 1"], ["2"]],
    "xy": [["x"], ["y"], ["x", "y"], ["x^2", "y"], ["x + y"], ["x*y"]],
    "t": [["t"], ["t^2"]],
}


def _catalog_for(desc):
    if desc["kind"] == "integers":
        return _IDEAL_CATALOG["integers"]
    if desc["kind"] == "truncated_power_series":
        return _IDEAL_CATALOG["t"]
    if desc.get("vars") == ["x"]:
        return _IDEAL_CATALOG["x"]
    return _IDEAL_CATALOG["xy"]


def _random_relation(rng, ring, rank):
    """A relation row; homogeneous over multivariate rings so the graded
    certificates stay applicable."""
    row = ["0"] * rank
    if ring.nvars >= 2:
        deg = rng.randrange(1, 4)
        spots = rng.sample(range(rank), k=min(rank, rng.randrange(1, 3)))
        for s in spots:
            a = rng.randrange(0, deg + 1)
            coef = rng.choice([1, 1, 2, 3, 4])
            mono = []
            if a:
                mono.append(f"x^{a}" if a > 1 else "x")
            if deg - a:
                mono.append(f"y^{deg-a}" if deg - a > 1 else "y")
            row[s] = f"{coef}*" + "*".join(mono) if mono else str(coef)
    elif ring.nvars == 1:
        var = ring.vars[0]
        for s in rng.sample(range(rank), k=min(rank, rng.randrange(1, 3))):
            d = rng.randrange(0, 4)
            c = rng.randrange(-4, 5)
            if c == 0:
                c = 1
            row[s] = f"{c}*{var}^{d}" if d > 1 else (
                f"{c}*{var}" if d == 1 else str(c))
    else:
        for s in rng.sample(range(rank), k=min(rank, rng.randrange(1, 3))):
            row[s] = str(rng.randrange(-9, 10))
    return row


def _random_module_desc(rng, ring):
    rank = rng.randrange(1, 4)
    nrels = rng.randrange(0, 5)
    rels = [_random_relation(rng, ring, rank) for _ in range(nrels)]
    return {"ambient_rank": rank, "relations": rels}


def _gen_mixed(rng, seed):
    descs = _ring_descs_mixed()
    desc = descs[rng.randrange(len(descs))]
    ring = make_ring(desc)
    module = _random_module_desc(rng, ring)
    ideal = rng.choice(_catalog_for(desc))
    return {
        "ring": desc,
        "modules": {"M": module},
        "ideals": {"a": ideal},
        "tasks": [{"command": "check_theorem4", "module": "M", "ideal": "a"}],
        "seed": seed,
    }


def _gen_pid(rng, seed):
    desc = {"kind": "integers"}
    ring = make_ring(desc)
    module = _random_module_desc(rng, ring)
    ideal = rng.choice(_IDEAL_CATALOG["integers"])
    return {
        "ring": desc,
        "modules": {"M": module},
        "ideals": {"a": ideal},
        "tasks": [{"command": "check_theorem4", "module": "M", "ideal": "a"}],
        "seed": seed,
    }


def _gen_theorem3(rng, seed):
    descs = [_ring_descs_mixed()[2], _ring_descs_mixed()[3]]
    desc = descs[rng.randrange(2)]
    ring = make_ring(desc)
    shape = rng.randrange(5)
    if shape == 0:
        module = {"ambient_rank": 1,
                  "relations": [["x^3"], ["x^2*y"], ["x*y^2"], ["y^3"]]}
    elif shape == 1:
        module = {"ambient_rank": 1, "relations": [["x"]]}
    elif shape == 2:
        module = {"ambient_rank": 1, "relations": []}
    elif shape == 3:
        module = {"ambient_rank": 1, "relations": [["1"]]}
    else:
        module = _random_module_desc(rng, ring)
    pair = rng.choice([
        (["x"], ["y"]), (["x"], ["x", "y"]), (["x^2"], ["y"]),
        (["x + y"], ["y"]), (["x"], ["y^2"])])
    return {
        "ring": desc,
        "modules": {"M": module},
        "ideals": {"a1": list(pair[0]), "a2": list(pair[1])},
        "tasks": [{"command": "check_theorem3", "module": "M",
                   "ideals": ["a1", "a2"]}],
        "seed": seed,
    }


def _gen_theorem2(rng, seed):
    """Bounded complexes of amplitude <= 3 assembled as direct sums of
    one-term and two-term blocks, so the differential squares to zero by
    construction."""
    descs = _ring_descs_mixed()
    desc = descs[rng.randrange(len(descs))]
    ring = make_ring(desc)
    ideal = rng.choice(_catalog_for(desc))
    lo = rng.randrange(-1, 2)
    blocks = []
    for _ in range(rng.randrange(1, 4)):
        j = lo + rng.randrange(0, 3)
        if rng.randrange(2):
            blocks.append(("module", j, _random_module_desc(rng, ring)))
        else:
            scalar = rng.choice(rng.choice(_catalog_for(desc)))
            blocks.append(("twoterm", j, scalar))
    ranks: dict = {}
    offsets = []
    for kind, j, payload in blocks:
        if kind == "module":
            offsets.append((ranks.get(j, 0),))
            ranks[j] = ranks.get(j, 0) + payload["ambient_rank"]
        else:
            offsets.append((ranks.get(j, 0), ranks.get(j + 1, 0)))
            ranks[j] = ranks.get(j, 0) + 1
            ranks[j + 1] = ranks.get(j + 1, 0) + 1
    entries = {}
    for j, rank in ranks.items():
        entries[str(j)] = {"ambient_rank": rank, "relations": []}
    for (kind, j, payload), off in zip(blocks, offsets):
        if kind != "module":
            continue
        rows = entries[str(j)]["relations"]
        rank = ranks[j]
        for rel in payload["relations"]:
            row = ["0"] * rank
            row[off[0]:off[0] + payload["ambient_rank"]] = rel
            rows.append(row)
    diffs = {}
    for (kind, j, payload), off in zip(blocks, offsets):
        if kind != "twoterm":
            continue
        key = str(j)
        if key not in diffs:
            diffs[key] = [["0"] * ranks[j] for _ in range(ranks[j + 1])]
        diffs[key][off[1]][off[0]] = payload
    return {
        "ring": desc,
        "complexes": {"C": {"entries": entries, "differentials": diffs}},
        "ideals": {"a": ideal},
        "tasks": [{"command": "check_theorem2", "complex": "C", "ideal": "a"}],
        "seed": seed,
    }


def _gen_lemma1(rng, seed):
    descs = _ring_descs_mixed()
    desc = descs[rng.randrange(len(descs))]
    ring = make_ring(desc)
    module = _random_module_desc(rng, ring)
    elem = rng.choice(_catalog_for(desc))[0]
    return {
        "ring": desc,
        "modules": {"M": module},
        "tasks": [{"command": "check_lemma1", "module": "M",
                   "element": elem}],
        "seed": seed,
    }


def _gen_lemma5(rng, seed):
    kind = rng.randrange(3)
    if kind == 0:
        desc = {"kind": "integers"}
        ring = make_ring(desc)
        c = rng.choice([2, 3, 5, 6])
        images = [str(c)]
        kernel = [f"t1 - {c}"]
        module = _random_module_desc(rng, ring)
    elif kind == 1:
        desc = {"kind": "prime_field", "p": rng.choice([3, 5])}
        ring = make_ring(desc)
        p = desc["p"]
        c = rng.randrange(1, p)
        images = [str(c)]
        kernel = [str(p), f"t1 - {c}"]
        module = _random_module_desc(rng, ring)
    else:
        desc = {"kind": "truncated_power_series",
                "base": {"kind": "prime_field", "p": 5},
                "var": "t", "precision": 4}
        ring = make_ring(desc)
        images = ["t"]
        kernel = ["5"]
        rank = rng.randrange(1, 3)
        rels = []
        for _ in range(rng.randrange(0, 3)):
            row = ["0"] * rank
            row[rng.randrange(rank)] = f"t^{rng.randrange(1, 4)}"
            rels.append(row)
        module = {"ambient_rank": rank, "relations": rels}
    return {
        "ring": desc,
        "modules": {"M": module},
        "maps": {"f": {"variables": 1, "images": images, "kernel": kernel}},
        "tasks": [{"command": "check_lemma5", "map": "f", "b_index": 0,
                   "module": "M"}],
        "seed": seed,
    }


def _gen_example1(rng, seed):
    return {
        "ring": {"kind": "truncated_power_series",
                 "base": {"kind": "rationals"}, "var": "t", "precision": 8},
        "tasks": [{"command": "build_example1", "support": 8,
                   "precision": 8}],
        "seed": seed,
    }


_GENERATORS = {
    "pid": _gen_pid,
    "mixed": _gen_mixed,
    "theorem3": _gen_theorem3,
    "theorem2": _gen_theorem2,
    "lemma1": _gen_lemma1,
    "lemma5": _gen_lemma5,
    "example1": _gen_example1,
}


def generate_instances(seed: int, count: int, profile: str) -> list:
    """Deterministic instance corpus; every emitted file passes the schema."""
    if profile not in _GENERATORS:
        raise UnknownProfile(f"unknown profile {profile!r}; "
                             f"choose from {', '.join(PROFILES)}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        data = _GENERATORS[profile](rng, seed)
        parse_instance(data)  # schema self-check
        out.append(data)
    return out


# ---------------------------------------------------------------------------
# entry point


def _run_one(args):
    path, budgets_dict = args
    budgets = Budgets(**budgets_dict)
    return run_instance(path, budgets)


def _content_key(path):
    """The sha256 of a regular file's bytes, or else the path itself.  A
    file that cannot be read here runs alone and its run names the error;
    a pipe or device is left unread, as reading it would consume it."""
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            with open(path, "rb") as fh:
                return hashlib.sha256(fh.read()).digest()
    except OSError:
        pass
    return path


def _collect(files, results):
    """Reports in file order from one result thunk per file, or None after
    naming the first file that failed to parse or run on stderr."""
    reports = []
    for path, result in zip(files, results):
        try:
            reports.append(result())
        except ParseError as e:
            print(f"parse error: {path}: {e}", file=sys.stderr)
            return None
        except TaskError as e:
            print(f"task error: {path}: {e}", file=sys.stderr)
            return None
    return reports


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {value}")
        return value
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiclab",
        description="exact-arithmetic workbench for adic completion checks")
    sub = parser.add_subparsers(dest="command_name")

    runp = sub.add_parser("run", help="execute instance files")
    runp.add_argument("files", nargs="+")
    runp.add_argument("--precision", type=_int_at_least(0), default=16,
                      help="tower depth budget")
    runp.add_argument("--stages", type=_int_at_least(0), default=8,
                      help="telescope stage budget")
    runp.add_argument("--window", type=_int_at_least(0), default=2,
                      help="stab_window budget")
    runp.add_argument("--format", choices=["text", "machine"], default="text")
    runp.add_argument("--jobs", type=_int_at_least(1), default=1)

    genp = sub.add_parser("generate", help="emit a deterministic corpus")
    genp.add_argument("--seed", type=int, required=True)
    genp.add_argument("--count", type=_int_at_least(0), default=1)
    genp.add_argument("--profile", required=True)
    genp.add_argument("--out-dir", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    if args.command_name == "generate":
        try:
            instances = generate_instances(args.seed, args.count, args.profile)
        except UnknownProfile as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            for i, data in enumerate(instances):
                name = f"{args.profile}_{args.seed}_{i:04d}.json"
                with open(os.path.join(args.out_dir, name), "w",
                          encoding="utf-8") as fh:
                    json.dump(data, fh, sort_keys=True, indent=2)
                    fh.write("\n")
            print(f"wrote {len(instances)} instances to {args.out_dir}")
        else:
            print(json.dumps(instances, sort_keys=True, indent=2))
        return EXIT_OK
    if args.command_name != "run":
        parser.print_help()
        return EXIT_USAGE

    budgets = Budgets(depth=args.precision, stages=args.stages,
                      stab_window=args.window)
    # Byte-identical files give the same report apart from its label, so
    # only the first file of each content runs.  Its failure is the first
    # failure in file order, as its copies would fail the same way.
    keys = [_content_key(p) for p in args.files]
    firsts = {}
    for path, key in zip(args.files, keys):
        firsts.setdefault(key, path)
    distinct = list(firsts.values())
    serial = [functools.partial(run_instance, p, budgets) for p in distinct]
    if args.jobs > 1 and len(distinct) > 1:
        try:
            # a fork pool starts all its workers at the first submit
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(args.jobs, len(distinct))) as pool:
                futures = [pool.submit(_run_one, (p, budgets.as_dict()))
                           for p in distinct]
                runs = _collect(distinct, [f.result for f in futures])
                if runs is None:
                    # the batch has failed: start no more of its files
                    pool.shutdown(cancel_futures=True)
        except (OSError, concurrent.futures.process.BrokenProcessPool) as e:
            print(f"process pool: {e!r}; running serially", file=sys.stderr)
            runs = _collect(distinct, serial)
    else:
        runs = _collect(distinct, serial)
    if runs is None:
        return EXIT_USAGE
    by_key = dict(zip(firsts, runs))
    reports = [dict(by_key[key], instance=str(path))
               for path, key in zip(args.files, keys)]

    if len(reports) == 1:
        sys.stdout.write(emit_report(reports[0], args.format))
    else:
        if args.format == "machine":
            sys.stdout.write(json.dumps({"reports": reports}, sort_keys=True,
                                        indent=2) + "\n")
        else:
            for rep in reports:
                sys.stdout.write(emit_report(rep, "text"))
                sys.stdout.write("\n")
    return max(r["exit_status"] for r in reports)


if __name__ == "__main__":
    sys.exit(main())
