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


def _built(path, make, *args):
    """make(*args), with a library error turned into a ParseError at
    `path`."""
    try:
        return make(*args)
    except AdicLabError as e:
        raise ParseError(path, str(e)) from None


def _elements(ring, strings, path):
    """The ring elements that the JSON list `strings` writes: a ParseError
    at the first item that is not a string, or at `path` when one does not
    parse."""
    for j, s in enumerate(_of_type(strings, list, path)):
        _of_type(s, str, f"{path}[{j}]")
    return [_built(path, parse_element, ring, s) for s in strings]


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
    tasks: list       # as written, for the digest
    runs: list        # (command, resolved fields) per task
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
        rels.append(tuple(_elements(ring, row, f"{path}.relations[{i}]")))
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
        dpath = f"{path}.differentials.{key}"
        j = _degree(key, dpath)
        src = entries.get(j)
        tgt = entries.get(j + 1)
        if src is None or tgt is None:
            raise ParseError(dpath, "differential outside the declared window")
        rows = [_elements(ring, row, f"{dpath}[{i}]")
                for i, row in enumerate(_of_type(mat, list, dpath))]
        diffs[j] = _built(dpath, ModuleHom, src, tgt, rows)
    return _built(path, BoundedComplex, ring, entries, diffs)


# ---------------------------------------------------------------------------
# task commands


def _verdict(v: Verdict) -> dict:
    """The report fields of a command that decides one property."""
    return {"status": v.status, "verdict": v.to_data()}


def _equivalence(rep: EquivalenceReport) -> dict:
    """The report fields of a command that checks an equivalence."""
    data = rep.to_data()
    return {"status": rep.consistent, "left": data["left"],
            "right": data["right"], "sub_reports": data["sub_reports"],
            "instance_digest": data["instance_digest"]}


def _run_example1(f, b):
    ex = build_example1(f["support"], f["precision"], budgets=b)
    statuses = [v.status for v in ex.report.values()]
    return {"status": "unknown" if "unknown" in statuses else "decisive",
            "support": f["support"], "precision": f["precision"],
            "element": [element_to_str(e) for e in ex.element],
            "verdicts": {k: v.to_data() for k, v in sorted(ex.report.items())}}


def _run_ext(f, b):
    e = ext_localization(f["index"], f["element"], f["module"], b,
                         route=f.get("route", "both"))
    return {**_verdict(e.vanishing), "agreement": e.agreement,
            "ext_index": f["index"]}


def _run_completion_tower(f, b):
    T = completion_tower(f["module"], f["ideal"],
                         depth=f.get("depth", b.depth), budgets=b)
    stab = T.stabilization(b)
    return {"status": "decisive" if stab else "unknown",
            "stabilized_at": stab[0] if stab else None,
            "certificate": stab[1] if stab else None}


def _run_lim_tower(f, b):
    if f.get("kind") == "multiplication":
        T = multiplication_tower(f["module"], f["element"], b.depth)
    else:
        T = completion_tower(f["module"], f["ideal"], b.depth, b)
    rep, lim1 = lim_tower(T, b)
    return {"status": "decisive" if rep.decisive and lim1.decisive
            else "unknown",
            "lim": {"decisive": rep.decisive, "note": rep.note,
                    "stabilized_at": rep.stabilized_at},
            "lim1_vanishing": lim1.to_data()}


# command -> (required fields, optional fields, runner).  An optional field
# maps to the values it may take, or None when it is not enumerated; every
# task may also override `budgets`, and `lim_tower` needs the field its kind
# reads and rejects the one it does not.  A runner takes the task's resolved
# fields and budgets and returns its report fields.  Runners name the
# library's functions when they run, never hold them, so that a rebinding of
# this module's names reaches every call.
_COMMANDS = {
    "check_theorem2": (("complex", "ideal"), {}, lambda f, b: _equivalence(
        check_theorem2(f["complex"], f["ideal"], b))),
    "check_theorem3": (("module", "ideals"), {}, lambda f, b: _equivalence(
        check_theorem3(f["module"], f["ideals"], b))),
    "check_theorem4": (
        ("module", "ideal"), {"transport": None},
        lambda f, b: _equivalence(check_theorem4(
            f["module"], f["ideal"], b, transport=f.get("transport")))),
    "check_lemma1": (("module", "element"), {}, lambda f, b: _equivalence(
        check_lemma1(f["module"], f["element"], b))),
    "check_lemma5": (
        ("map", "b_index", "module"), {},
        lambda f, b: _equivalence(check_lemma5(
            f["map"][0], f["b_index"], f["module"], b,
            kernel_gens=f["map"][1] or None))),
    "build_example1": (("support", "precision"), {}, _run_example1),
    "is_separated": (("module", "ideal"), {}, lambda f, b: _verdict(
        is_separated(f["module"], f["ideal"], b))),
    "is_complete": (("module", "ideal"), {}, lambda f, b: _verdict(
        is_complete(f["module"], f["ideal"], b))),
    "is_cohomologically_complete": (
        ("module", "ideal"),
        {"route": ("auto", "tower", "telescope", "joint_chain")},
        lambda f, b: _verdict(is_cohomologically_complete(
            f["module"], f["ideal"], b, route=f.get("route", "auto")))),
    "ext_localization": (("index", "module", "element"),
                         {"route": ("both", "tower", "telescope")}, _run_ext),
    "completion_tower": (("module", "ideal"), {"depth": None},
                         _run_completion_tower),
    "lim_tower": (("module",), {"ideal": None, "element": None,
                                "kind": ("quotient", "multiplication")},
                  _run_lim_tower),
}

_BUDGET_FIELDS = tuple(Budgets().as_dict())


def _task_field(key, value, choices, ring, named, path):
    """A task field, checked and resolved by its name.  The name of a
    declared module, complex, ideal or map becomes the object (`named` maps
    each of these keys to its section), `ideals` a list of ideals and
    `element` a ring element; `transport` is a boolean, `budgets` a set of
    overrides, a field with `choices` one of them, and any other field an
    integer (an Ext `index` 0 or 1)."""
    if key in named:
        pool = named[key]
        if _of_type(value, str, path) not in pool:
            raise ParseError(path, f"undeclared {key} {value!r}")
        return pool[value]
    if key == "ideals":
        for nm in _of_type(value, list, path):
            if not isinstance(nm, str) or nm not in named["ideal"]:
                raise ParseError(path, f"undeclared ideal {nm!r}")
        return [named["ideal"][nm] for nm in value]
    if key == "element":
        return _elements(ring, [_of_type(value, str, path)], path)[0]
    if key == "transport":
        return _of_type(value, bool, path)
    if key == "budgets":
        _check_keys(value, [], _BUDGET_FIELDS, path)
        for k, v in value.items():
            if not _is_int(v) or v < 0:
                raise ParseError(f"{path}.{k}",
                                 "expected a nonnegative integer")
        return value
    if choices is not None:
        if value not in choices:
            raise ParseError(path, f"expected one of {', '.join(choices)}")
        return value
    if not _is_int(value):
        raise ParseError(path, "expected an integer")
    if key == "index" and value not in (0, 1):
        raise ParseError(path, "expected 0 or 1")
    return value


def _section(data, key, path):
    """The named-object section `key` of an instance, {} when absent."""
    return _of_type(data.get(key, {}), dict, f"{path}.{key}")


def parse_instance(data, path="$") -> Instance:
    _check_keys(data, ["ring", "tasks"],
                ["modules", "complexes", "ideals", "maps", "seed"], path)
    ring = _built(f"{path}.ring", make_ring, data["ring"])
    modules = {}
    for name, mdata in _section(data, "modules", path).items():
        modules[name] = _parse_module(ring, mdata, f"{path}.modules.{name}")
    complexes = {}
    for name, cdata in _section(data, "complexes", path).items():
        complexes[name] = _parse_complex(ring, cdata, modules,
                                         f"{path}.complexes.{name}")
    ideals = {name: _elements(ring, gens, f"{path}.ideals.{name}")
              for name, gens in _section(data, "ideals", path).items()}
    maps = {}
    for name, mdata in _section(data, "maps", path).items():
        mpath = f"{path}.maps.{name}"
        _check_keys(mdata, ["variables", "images"], ["kernel"], mpath)
        nvars = mdata["variables"]
        if not _is_int(nvars) or not 1 <= nvars <= 4:
            raise ParseError(mpath, "variables must be between 1 and 4")
        src = ring_polynomial(ring_integers(),
                              tuple(f"t{i+1}" for i in range(nvars)))
        images = _elements(ring, mdata["images"], f"{mpath}.images")
        f = _built(mpath, RingMap, src, ring, tuple(images))
        maps[name] = (f, _elements(src, mdata.get("kernel", []),
                                   f"{mpath}.kernel"))
    tasks = data["tasks"]
    if not isinstance(tasks, list):
        raise ParseError(f"{path}.tasks", "tasks must be a list")
    named = {"module": modules, "complex": complexes, "ideal": ideals,
             "map": maps}
    runs = []
    for idx, task in enumerate(tasks):
        tpath = f"{path}.tasks[{idx}]"
        if not isinstance(task, dict) or "command" not in task:
            raise ParseError(tpath, "each task needs a command")
        cmd = task["command"]
        if not isinstance(cmd, str) or cmd not in _COMMANDS:
            raise ParseError(tpath, f"unknown command {cmd!r}")
        required, optional, _ = _COMMANDS[cmd]
        _check_keys(task, ["command", *required], [*optional, "budgets"],
                    tpath)
        fields = {key: _task_field(key, value, optional.get(key), ring,
                                   named, f"{tpath}.{key}")
                  for key, value in task.items() if key != "command"}
        if cmd == "lim_tower":
            need, unread = (("element", "ideal")
                            if fields.get("kind") == "multiplication"
                            else ("ideal", "element"))
            if need not in fields:
                raise ParseError(tpath, f"missing required field {need!r}")
            if unread in fields:
                raise ParseError(tpath, f"unknown fields {[unread]}")
        runs.append((cmd, fields))
    seed = data.get("seed")
    if seed is not None and not _is_int(seed):
        raise ParseError(f"{path}.seed", "seed must be an integer")
    return Instance(ring, modules, complexes, ideals, maps, list(tasks), runs,
                    seed)


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
        for idx, (command, fields) in enumerate(inst.runs):
            b = Budgets(**{**budgets.as_dict(), **fields.get("budgets", {})})
            try:
                out = _COMMANDS[command][2](fields, b)
            except AdicLabError as e:
                raise TaskError(idx, str(e)) from None
            task_reports.append({**out, "command": command,
                                 "budgets": b.as_dict(), "index": idx})
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


def _random_ring(rng):
    descs = _ring_descs_mixed()
    return descs[rng.randrange(len(descs))]


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


def _gen_theorem4(rng, seed, desc):
    module = _random_module_desc(rng, make_ring(desc))
    ideal = rng.choice(_catalog_for(desc))
    return {
        "ring": desc,
        "modules": {"M": module},
        "ideals": {"a": ideal},
        "tasks": [{"command": "check_theorem4", "module": "M", "ideal": "a"}],
        "seed": seed,
    }


def _gen_theorem3(rng, seed):
    desc = _ring_descs_mixed()[2:4][rng.randrange(2)]
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
    desc = _random_ring(rng)
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
    desc = _random_ring(rng)
    module = _random_module_desc(rng, make_ring(desc))
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
    "pid": lambda rng, seed: _gen_theorem4(rng, seed, {"kind": "integers"}),
    "mixed": lambda rng, seed: _gen_theorem4(rng, seed, _random_ring(rng)),
    "theorem3": _gen_theorem3,
    "theorem2": _gen_theorem2,
    "lemma1": _gen_lemma1,
    "lemma5": _gen_lemma5,
    "example1": _gen_example1,
}

PROFILES = tuple(_GENERATORS)


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
    runp.add_argument("--window", type=_int_at_least(0), default=8,
                      help="limit window budget")
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
                      window=args.window)
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
