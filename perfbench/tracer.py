"""In-memory span tracer wrapped around adiclab's layer entry points.

Nothing in the library is edited: `Tracer.install` replaces each entry
point with a recording wrapper at every place it is bound.  A function
defined in one module and imported by name into others (`from .adic import
chain_profile` in `derived`, `theorems` and `cli`) lives under several module
attributes; the wrapper replaces all of them, because a call through an
unreplaced binding would go unseen.  Methods are wrapped on their class.

A span records (name, start, end, parent span, instance id, nested).  The
name is the entry point's module and attribute; entry points are summed in
groups (`parse_element` and `make_ring` form `rings.parse`), and `nested` is
true when an enclosing span belongs to the same group, so that inclusive
times are summed over outermost spans only.  The highest-volume
calls (ring element `*` and `+`, Euclidean division steps) are counted, not
spanned.  Spans stay in memory until `write` at exit.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter


def _groebner_build_before(tr, args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    npos = args[2] if len(args) > 2 else kwargs["npos"]
    nvars = args[3] if len(args) > 3 else kwargs["nvars"]
    domain = args[4] if len(args) > 4 else kwargs["domain"]
    key = (npos, nvars, kwargs.get("want_tags", True), id(domain),
           tuple(tuple(sorted(r.items())) for r in rows))
    tr.note_key("groebner.build", hash(key))
    tr.counts["groebner.rows_in"] += len(rows)
    return args[0]


def _groebner_build_after(tr, basis, result):
    tr.counts["groebner.rows_out"] += len(basis.rows)


def _snf_before(tr, args, kwargs):
    matrix = args[0]
    dim = max(len(matrix), len(matrix[0]) if matrix else 0)
    if dim > tr.counts["smith.snf_max_dim"]:
        tr.counts["smith.snf_max_dim"] = dim


def _relations_basis_before(tr, args, kwargs):
    if object.__getattribute__(args[0], "_rb") is not None:
        tr.counts["modules.relations_basis_hits"] += 1


def _cohomology_before(tr, args, kwargs):
    j = args[1] if len(args) > 1 else kwargs["j"]
    if j in object.__getattribute__(args[0], "_cohom"):
        tr.counts["complexes.cohomology_hits"] += 1


def _chain_profile_before(tr, args, kwargs):
    M = args[0]
    gens = args[1] if len(args) > 1 else kwargs["gens"]
    budgets = args[2] if len(args) > 2 else kwargs.get("budgets")
    tr.note_key("adic.chain_profile", hash((M, tuple(gens), budgets)))


def _chain_profile_after(tr, state, result):
    tr.counts[f"adic.chain_outcome.{result.status}"] += 1


def _ext_before(tr, args, kwargs):
    route = args[4] if len(args) > 4 else kwargs.get("route", "both")
    tr.counts[f"derived.ext_calls.{route}"] += 1


def _ext_after(tr, state, result):
    if result.agreement is not None:
        tr.counts["derived.route_decided"] += 1
        tr.counts["derived.route_agreed"] += bool(result.agreement)


def _run_instance_before(tr, args, kwargs):
    tr.instance += 1


# (module, attribute, group, before, after, only_in): `attribute` may be
# "Class.method"; `only_in` restricts the replacement to one module's binding.
SPANNED = [
    ("adiclab.rings", "parse_element", "rings.parse", None, None, None),
    ("adiclab.rings", "make_ring", "rings.parse", None, None, None),
    ("adiclab.groebner", "ModuleBasis.__init__", "groebner.build",
     _groebner_build_before, _groebner_build_after, None),
    ("adiclab.groebner", "ModuleBasis.normal_form", "groebner.query",
     None, None, None),
    ("adiclab.groebner", "ModuleBasis.reduce_with_witness", "groebner.query",
     None, None, None),
    ("adiclab.smith", "smith_normal_form", "smith.snf", _snf_before, None,
     None),
    ("adiclab.modules", "StdBasis.__init__", "modules.stdbasis", None, None,
     None),
    ("adiclab.modules", "FPModule.relations_basis", "modules.relations_basis",
     _relations_basis_before, None, None),
    ("adiclab.modules", "kernel_hom", "modules.kernel", None, None, None),
    ("adiclab.modules", "modules_isomorphic", "modules.isomorphic", None,
     None, None),
    ("adiclab.complexes", "BoundedComplex.cohomology_data",
     "complexes.cohomology", _cohomology_before, None, None),
    ("adiclab.complexes", "hom_complex", "complexes.hom_complex", None, None,
     None),
    ("adiclab.complexes", "induced_cohomology_map", "complexes.induced_map",
     None, None, None),
    ("adiclab.adic", "chain_profile", "adic.chain_profile",
     _chain_profile_before, _chain_profile_after, None),
    ("adiclab.adic", "is_separated", "adic.decider", None, None, None),
    ("adiclab.adic", "is_complete", "adic.decider", None, None, None),
    ("adiclab.derived", "ext_localization", "derived.ext", _ext_before,
     _ext_after, None),
    ("adiclab.derived", "telescope_stage", "derived.telescope_stage", None,
     None, None),
    ("adiclab.theorems", "check_theorem4", "theorems.theorem4", None, None,
     None),
    ("adiclab.theorems", "check_lemma5", "theorems.lemma5", None, None, None),
    ("adiclab.theorems", "build_example1", "theorems.example1", None, None,
     None),
    ("adiclab.cli", "parse_instance", "cli.parse_instance", None, None, None),
    ("adiclab.theorems", "canonical_digest", "cli.digest", None, None,
     "adiclab.cli"),
    ("adiclab.cli", "emit_report", "cli.emit", None, None, None),
    ("adiclab.cli", "run_instance", "cli.run_instance", _run_instance_before,
     None, None),
]

COUNTED = [
    ("adiclab.rings", "RingElem.__mul__", "rings.elem_mul_calls"),
    ("adiclab.rings", "RingElem.__add__", "rings.elem_add_calls"),
    ("adiclab.rings", "elem_divstep", "rings.divstep_calls"),
]


def span_name(module: str, attribute: str) -> str:
    """("adiclab.smith", "smith_normal_form") -> "smith.smith_normal_form"."""
    return f"{module.rsplit('.', 1)[-1]}.{attribute}"


def _bindings(original, only_in):
    """(module, attribute) pairs of adiclab modules bound to `original`."""
    for modname, mod in list(sys.modules.items()):
        if not (modname == "adiclab" or modname.startswith("adiclab.")):
            continue
        if only_in is not None and modname != only_in:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


def _resolve(module: str, attribute: str):
    """(owner, name, original) for a dotted attribute of a module."""
    owner = sys.modules[module]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.keys: dict = {}
        self.instance = 0
        self._stack: list = []
        self._depth: Counter = Counter()
        self._patched: list = []
        self._entries: list = []
        self.group_of: dict = {}

    def note_key(self, group: str, key: int) -> None:
        self.keys.setdefault(group, set()).add(key)

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, fn, name, group, before, after):
        spans, stack, depth = self.spans, self._stack, self._depth
        self.group_of[name] = group
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(tracer, args, kwargs) if before else None
            parent = stack[-1] if stack else -1
            nested = depth[group] > 0
            index = len(spans)
            spans.append(None)
            stack.append(index)
            depth[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[group] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.instance,
                                nested)
            if after:
                after(tracer, state, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # -- installation ------------------------------------------------------------

    def _replace(self, owner, name, original, wrapper, only_in):
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._patched.append((owner, name, original))
            return
        for mod, attr in _bindings(original, only_in):
            setattr(mod, attr, wrapper)
            self._patched.append((mod, attr, original))

    def install(self) -> None:
        import adiclab.cli as cli
        for module, attribute, group, before, after, only_in in SPANNED:
            owner, name, original = _resolve(module, attribute)
            wrapper = self._spanned(original, span_name(module, attribute),
                                    group, before, after)
            self._replace(owner, name, original, wrapper, only_in)
            self._entries.append((owner, name, original, only_in))
        for module, attribute, counter in COUNTED:
            owner, name, original = _resolve(module, attribute)
            self._replace(owner, name, original,
                          self._counted(original, counter), None)
            self._entries.append((owner, name, original, None))
        # cli reads instance files with json.load and emits batch reports
        # with json.dumps; give cli its own json namespace with both spanned
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.load = self._spanned(json.load, "cli.json.load", "cli.read",
                                   None, None)
        proxy.dumps = self._spanned(json.dumps, "cli.json.dumps", "cli.emit",
                                    None, None)
        self._patched.append((cli, "json", cli.json))
        cli.json = proxy

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self._entries.clear()

    def unpatched_bindings(self) -> list:
        """Bindings that still reach an unwrapped entry point while the
        tracer is installed; empty when every call site is covered."""
        missed = []
        for owner, name, original, only_in in self._entries:
            if isinstance(owner, type):
                if owner.__dict__[name] is original:
                    missed.append(f"{owner.__name__}.{name}")
                continue
            missed += [f"{mod.__name__}.{attr}"
                       for mod, attr in _bindings(original, only_in)]
        return missed

    # -- results -----------------------------------------------------------------

    def groups(self) -> dict:
        """Per group: calls, outermost inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _inst, _nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent, _inst, nested) in enumerate(
                self.spans):
            g = out.setdefault(self.group_of[name],
                               {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            g["calls"] += 1
            if not nested:
                g["incl_s"] += end - start
            g["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
