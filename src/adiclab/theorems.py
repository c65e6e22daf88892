"""Executable consistency checkers for the workbench's equivalence laws.

Each checker evaluates the two sides of an equivalence through independent
computations and reports agreement.  Inconsistent is reserved for two
decisive verdicts that differ; any undecided side is reported Indecisive,
never folded into Consistent.  The builder for the anomalous decaying-
function example reconstructs, at finite precision, a module that is not
separated yet is cohomologically complete.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .adic import (Budgets, DEFAULT_BUDGETS, DecayModule, is_complete,
                   is_separated, vec_strs)
from .complexes import (BoundedComplex, ComplexMap, cohomology,
                        complex_from_module, induced_cohomology_map)
from .derived import ext_localization, is_cohomologically_complete
from .errors import BudgetExceeded, NonSurjectiveReduction, ParentMismatch
from .modules import (FPModule, ModuleHom, free_module, hom_is_iso,
                      identity_hom, kernel_hom, modules_isomorphic,
                      quotient_module)
from .rings import (INTEGERS, POLYNOMIAL, PRIME_FIELD, POWER_SERIES,
                    RingElem, RingMap, RingSpec, apply_ring_map,
                    element_to_str, ring_integers, ring_polynomial,
                    ring_to_desc)
from . import verdicts
from .verdicts import Verdict

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
INDECISIVE = "indecisive"


@dataclass(frozen=True)
class EquivalenceReport:
    left: Verdict
    right: Verdict
    consistent: str
    sub_reports: dict = field(default_factory=dict)
    instance_digest: str = ""

    def to_data(self) -> dict:
        def pack(v):
            if isinstance(v, Verdict):
                return v.to_data()
            if isinstance(v, dict):
                return {k: pack(x) for k, x in sorted(v.items())}
            return v
        return {
            "left": self.left.to_data(),
            "right": self.right.to_data(),
            "consistent": self.consistent,
            "sub_reports": pack(self.sub_reports),
            "instance_digest": self.instance_digest,
        }


def _consistency(left: Verdict, right: Verdict) -> str:
    if left.decisive and right.decisive:
        return CONSISTENT if left.status == right.status else INCONSISTENT
    return INDECISIVE


def _consistency_multi(pairs: dict) -> str:
    saw_open = False
    for _, (lv, rv) in sorted(pairs.items()):
        if lv.decisive and rv.decisive:
            if lv.status != rv.status:
                return INCONSISTENT
        else:
            saw_open = True
    return INDECISIVE if saw_open else CONSISTENT


def canonical_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _module_payload(M) -> dict:
    if isinstance(M, DecayModule):
        return {"decay_module": {"support": M.support,
                                 "exponents": list(M.exponents),
                                 "ring": ring_to_desc(M.ring)}}
    return {"ambient_rank": M.ambient_rank,
            "relations": [vec_strs(r) for r in M.relations],
            "ring": ring_to_desc(M.ring)}


def _complex_payload(C: BoundedComplex) -> dict:
    return {
        "entries": {str(j): _module_payload(m) for j, m in C.entries.items()},
        "differentials": {str(j): [[element_to_str(e) for e in row]
                                   for row in d.matrix]
                          for j, d in C.diffs.items()},
    }


# ---------------------------------------------------------------------------
# the four theorem checkers


def check_theorem2(M: BoundedComplex, gens,
                   budgets: Budgets = DEFAULT_BUDGETS,
                   cohomology_modules: dict | None = None) -> EquivalenceReport:
    """Degreewise completeness of the cohomologies against cohomological
    completeness plus degreewise separatedness."""
    if cohomology_modules is None:
        cohoms = {j: cohomology(M, j) for j in M.window()}
        cohoms = {j: H for j, H in cohoms.items()
                  if isinstance(H, DecayModule) or not H.is_zero()}
    else:
        cohoms = dict(cohomology_modules)
    left_parts, sep_parts, cc_parts = {}, {}, {}
    for j, H in sorted(cohoms.items()):
        left_parts[f"complete_H^{j}"] = is_complete(H, gens, budgets,
                                                    refutations="nonstab")
        sep_parts[f"separated_H^{j}"] = is_separated(H, gens, budgets)
    if cohomology_modules is None:
        cc = is_cohomologically_complete(M, gens, budgets)
    else:
        cc_named = {f"cc_H^{j}": is_cohomologically_complete(H, gens, budgets)
                    for j, H in sorted(cohoms.items())}
        cc = verdicts.conjunction(cc_named) if cc_named else verdicts.holds(
            {"kind": "exact_complex"}, budgets.as_dict())
        cc_parts.update(cc_named)
    left = verdicts.conjunction(left_parts) if left_parts else verdicts.holds(
        {"kind": "exact_complex"}, budgets.as_dict())
    right = verdicts.conjunction({"cohomologically_complete": cc, **sep_parts})
    digest = canonical_digest({
        "check": "theorem2",
        "complex": {str(j): _module_payload(H) for j, H in cohoms.items()},
        "ideal": [element_to_str(a) for a in gens]})
    return EquivalenceReport(left, right, _consistency(left, right),
                             {**left_parts, **sep_parts, **cc_parts,
                              "cohomologically_complete": cc}, digest)


def check_theorem3(M, ideals, budgets: Budgets = DEFAULT_BUDGETS) -> EquivalenceReport:
    """Cohomological completeness for a sum of ideals against the per-ideal
    checks; the left side analyzes the concatenated ideal directly."""
    if len(ideals) < 2:
        raise ParentMismatch("the sum-of-ideals check needs at least two ideals")
    concat = [a for ideal in ideals for a in ideal]
    left = is_cohomologically_complete(M, concat, budgets, route="joint_chain")
    right_parts = {}
    for idx, ideal in enumerate(ideals):
        right_parts[f"ideal_{idx}"] = is_cohomologically_complete(
            M, ideal, budgets, route="auto")
    right = verdicts.conjunction(right_parts)
    digest = canonical_digest({
        "check": "theorem3",
        "module": _module_payload(M) if isinstance(M, (FPModule, DecayModule))
        else _complex_payload(M),
        "ideals": [[element_to_str(a) for a in ideal] for ideal in ideals]})
    return EquivalenceReport(left, right, _consistency(left, right),
                             right_parts, digest)


def _constant_lift(source: RingSpec, target: RingSpec, e: RingElem,
                   var_preimage: dict) -> RingElem:
    """Section of a surjection out of ZZ[t..]: integer-lift coefficients and
    rewrite target variables through their chosen preimages."""
    out = source.zero()
    for exps, c in e.terms.items():
        term = source.from_int(int(c))
        for v, k in zip(target.vars, exps):
            if k:
                term = term * var_preimage[v] ** k
        out = out + term
    return out


def transport_module(f: RingMap, M: FPModule, kernel_gens) -> FPModule:
    """Restriction of scalars along a surjection presented by kernel
    generators: lift the presentation and add the kernel rows."""
    A, B = f.source, f.target
    var_preimage = {}
    for v in B.vars:
        for i, img in enumerate(f.images):
            if img == B.variable(v):
                var_preimage[v] = A.variable(A.vars[i])
                break
        else:
            raise NonSurjectiveReduction(
                f"target variable {v} is not the image of a source variable")
    rows = [tuple(_constant_lift(A, B, e, var_preimage) for e in r)
            for r in M.relations]
    # structural truncation of the target ring becomes an honest relation
    if B.kind == POWER_SERIES:
        lifted = var_preimage[B.vars[0]] ** B.precision
        for i in range(M.ambient_rank):
            rows.append(tuple(lifted if j == i else A.zero()
                              for j in range(M.ambient_rank)))
    for g in kernel_gens:
        if g.ring != A:
            raise ParentMismatch("kernel generator outside the source ring")
        if not apply_ring_map(f, g).is_zero():
            raise NonSurjectiveReduction(
                f"claimed kernel generator {element_to_str(g)} does not map to 0")
        for i in range(M.ambient_rank):
            rows.append(tuple(g if j == i else A.zero()
                              for j in range(M.ambient_rank)))
    return FPModule(A, M.ambient_rank, rows)


def default_kernel_gens(f: RingMap) -> list:
    """Kernel generators for the supported automatic targets.

    Targets: the integers and prime fields (all images constants), and
    polynomial or truncated-power-series rings over a prime field whose
    variables are each hit exactly by a source variable (remaining images
    constant)."""
    A, B = f.source, f.target
    gens = []
    if B.kind == INTEGERS:
        for i, img in enumerate(f.images):
            gens.append(A.variable(A.vars[i]) - A.from_int(img.constant_scalar()))
        return gens
    if B.kind == PRIME_FIELD:
        gens.append(A.from_int(B.p))
        for i, img in enumerate(f.images):
            gens.append(A.variable(A.vars[i]) -
                        A.from_int(int(img.constant_scalar()) % B.p))
        return gens
    if B.kind in (POLYNOMIAL, POWER_SERIES) and B.scalar_base().kind == PRIME_FIELD:
        covered = set()
        gens.append(A.from_int(B.scalar_base().p))
        for i, img in enumerate(f.images):
            matched = None
            for v in B.vars:
                if img == B.variable(v):
                    matched = v
                    break
            if matched is not None:
                if matched in covered:
                    raise NonSurjectiveReduction(
                        f"variable {matched} hit twice; kernel not principal "
                        "in the automatic form")
                covered.add(matched)
                continue
            z = (0,) * B.nvars
            if set(img.terms) <= {z}:
                c = img.terms.get(z, 0)
                gens.append(A.variable(A.vars[i]) - A.from_int(int(c)))
            else:
                raise NonSurjectiveReduction(
                    "images must be target variables or constants for the "
                    "automatic kernel presentation")
        if covered != set(B.vars):
            raise NonSurjectiveReduction(
                f"target variables {sorted(set(B.vars) - covered)} are not "
                "images of source variables")
        return gens
    raise NonSurjectiveReduction(
        "no automatic kernel presentation for this target; supply one")


def apply_map_to_module(f: RingMap, M: FPModule) -> FPModule:
    """Push a presentation over the source down along the map."""
    rows = [tuple(apply_ring_map(f, e) for e in r) for r in M.relations]
    return FPModule(f.target, M.ambient_rank, rows)


def check_theorem4(M: FPModule, gens, budgets: Budgets = DEFAULT_BUDGETS,
                   transport: bool | None = None) -> EquivalenceReport:
    """Completeness against separatedness plus vanishing localization Ext^1
    for each generator; optionally replays the polynomial-ring transport."""
    left = is_complete(M, gens, budgets, refutations="nonstab")
    right_parts = {"separated": is_separated(M, gens, budgets)}
    for idx, a in enumerate(gens):
        ext = ext_localization(1, a, M, budgets, route="tower")
        right_parts[f"ext1_vanishing_{idx}"] = ext.vanishing
    right = verdicts.conjunction(right_parts)
    sub = dict(right_parts)
    ring = M.ring
    eligible = ring.kind in (INTEGERS, PRIME_FIELD) and 1 <= len(gens) <= 4
    if transport is None:
        transport = eligible
    if transport:
        if not eligible:
            raise NonSurjectiveReduction(
                "automatic transport needs an integer or prime-field target")
        sub["transport"] = _theorem4_transport(M, gens, budgets, left, right)
    digest = canonical_digest({
        "check": "theorem4", "module": _module_payload(M),
        "ideal": [element_to_str(a) for a in gens]})
    return EquivalenceReport(left, right, _consistency(left, right), sub,
                             digest)


def _theorem4_transport(M: FPModule, gens, budgets: Budgets,
                        left_B: Verdict, right_B: Verdict) -> dict:
    """Replay both sides over ZZ[t1..tn] with t_i acting through the ideal
    generators, and compare the decisive statuses with left_B and right_B,
    the sides computed over M itself, and the first tower stages."""
    B = M.ring
    n = len(gens)
    A = ring_polynomial(ring_integers(), tuple(f"t{i+1}" for i in range(n)))
    f = RingMap(A, B, tuple(gens))
    kg = default_kernel_gens(f)
    MA = transport_module(f, M, kg)
    tvars = [A.variable(v) for v in A.vars]
    left_A = is_complete(MA, tvars, budgets, refutations="nonstab")
    sep_A = is_separated(MA, tvars, budgets)
    ext_A = {f"ext1_vanishing_{i}":
             ext_localization(1, tvars[i], MA, budgets, route="tower").vanishing
             for i in range(n)}
    right_A = verdicts.conjunction({"separated": sep_A, **ext_A})
    status = {
        "left_transported": left_A.status,
        "right_transported": right_A.status,
        "left_matches": (not (left_A.decisive and left_B.decisive))
        or left_A.status == left_B.status,
        "right_matches": (not (right_A.decisive and right_B.decisive))
        or right_A.status == right_B.status,
    }
    # tower agreement: the pushed-down stage quotients coincide
    from .modules import ideal_power_gens
    stage_match = []
    for k in (1, 2):
        QA = quotient_module(MA, ideal_power_gens(tvars, k, MA))
        QB = quotient_module(M, ideal_power_gens(list(gens), k, M))
        pushed = apply_map_to_module(f, QA)
        iso = modules_isomorphic(pushed, QB)
        stage_match.append(bool(iso))
    status["tower_stages_match"] = stage_match
    return status


def check_lemma1(M, a: RingElem, budgets: Budgets = DEFAULT_BUDGETS) -> EquivalenceReport:
    """Principal case: cohomological completeness (telescope route) against
    joint vanishing of localization Ext^0 and Ext^1 (tower route), plus the
    one-directional separatedness implication."""
    left = is_cohomologically_complete(M, [a], budgets, route="telescope")
    target = M.avatar() if isinstance(M, DecayModule) else M
    e0 = ext_localization(0, a, target, budgets, route="tower")
    e1 = ext_localization(1, a, target, budgets, route="tower")
    right = verdicts.conjunction({"ext0_vanishing": e0.vanishing,
                                  "ext1_vanishing": e1.vanishing})
    sep = is_separated(M, [a], budgets)
    if sep.holds():
        if e0.vanishing.holds():
            part2 = verdicts.holds({"kind": "implication_verified"},
                                   budgets.as_dict())
        elif e0.vanishing.fails():
            part2 = verdicts.fails({"kind": "implication_violated",
                                    "note": "separated module with nonzero "
                                            "localization Hom"},
                                   budgets.as_dict())
        else:
            part2 = verdicts.unknown(budgets.as_dict())
    elif sep.fails():
        part2 = verdicts.holds({"kind": "implication_vacuous",
                                "note": "module is not separated"},
                               budgets.as_dict())
    else:
        part2 = verdicts.unknown(budgets.as_dict())
    digest = canonical_digest({
        "check": "lemma1", "module": _module_payload(M),
        "element": element_to_str(a)})
    return EquivalenceReport(left, right, _consistency(left, right),
                             {"ext0_vanishing": e0.vanishing,
                              "ext1_vanishing": e1.vanishing,
                              "separated": sep,
                              "separated_implies_hom_vanishes": part2}, digest)


def check_lemma5(f: RingMap, b_index: int, M: FPModule,
                 budgets: Budgets = DEFAULT_BUDGETS,
                 kernel_gens=None) -> EquivalenceReport:
    """Base change: localization Ext over the target against the restricted
    module over the polynomial source, stagewise and verdictwise."""
    A, B = f.source, f.target
    if not (0 <= b_index < len(f.images)):
        raise ParentMismatch("b_index outside the variable range")
    if kernel_gens is None:
        kernel_gens = default_kernel_gens(f)
    MA = transport_module(f, M, kernel_gens)
    b = f.images[b_index]
    t = A.variable(A.vars[b_index])
    pairs = {}
    subs = {}
    for i in (0, 1):
        eB = ext_localization(i, b, M, budgets, route="tower")
        eA = ext_localization(i, t, MA, budgets, route="tower")
        pairs[f"ext{i}"] = (eB.vanishing, eA.vanishing)
        subs[f"ext{i}_target"] = eB.vanishing
        subs[f"ext{i}_source"] = eA.vanishing
    # stagewise values: push the source-side stages down and compare
    from .modules import euclidean_capable
    stage_iso = None
    if euclidean_capable(B):
        QB = M  # stage value of the multiplication tower is M itself
        pushedA = apply_map_to_module(f, MA)
        stage_iso = modules_isomorphic(pushedA, QB)
    subs["stage_values_isomorphic"] = stage_iso
    left = verdicts.conjunction({k: v for k, (v, _) in sorted(pairs.items())})
    right = verdicts.conjunction({k: v for k, (_, v) in sorted(pairs.items())})
    consistent = _consistency_multi(pairs)
    if stage_iso is False:
        consistent = INCONSISTENT
    digest = canonical_digest({
        "check": "lemma5", "module": _module_payload(M),
        "images": [element_to_str(e) for e in f.images],
        "kernel": [element_to_str(g) for g in kernel_gens],
        "b_index": b_index})
    return EquivalenceReport(left, right, consistent, subs, digest)


# ---------------------------------------------------------------------------
# the anomalous example


@dataclass(frozen=True)
class Example1Result:
    complex: BoundedComplex
    module: DecayModule
    element: tuple
    report: dict

    def verdict(self, name: str) -> Verdict:
        return self.report[name]


def build_example1(support: int, precision: int, base: RingSpec | None = None,
                   budgets: Budgets = DEFAULT_BUDGETS) -> Example1Result:
    """Reconstruct the anomalous module at finite support and precision: a
    quotient of a decaying-function module that is not separated (with a
    certified nonzero element lying in every ideal power) yet is
    cohomologically complete, with the covering complex a quasi-isomorphism
    in the precision-aware sense."""
    if support < 2 or precision < 2:
        raise BudgetExceeded("support and precision must both be at least 2")
    from .rings import ring_power_series, ring_rationals
    ring = ring_power_series(base or ring_rationals(), "t", precision)
    D = DecayModule(ring, support, tuple(range(support)))
    t = ring.variable("t")
    F = free_module(ring, support)
    delta = D.diagonal_hom()
    P = BoundedComplex(ring, {-1: F, 0: F}, {-1: delta}, check=False)
    avatar = D.avatar()
    m = D.element_m()
    report = {}
    report["separated"] = is_separated(D, [t], budgets)
    # power memberships, re-checked independently of the separatedness run
    memberships = []
    witnesses = []
    ok_all = True
    rb = avatar.relations_basis()
    for j in range(0, min(precision, support)):
        u = [ring.zero()] * support
        for i in range(j, support):
            u[i] = t ** (i - j)
        shifted = tuple((t ** j) * e for e in u)
        finite = tuple(a - b for a, b in zip(m, shifted))
        ok = rb.contains(finite)[0] if j else True
        ok_all = ok_all and ok
        if ok:
            memberships.append(j)
            witnesses.append(vec_strs(u))
    if ok_all and memberships:
        report["power_memberships"] = verdicts.holds({
            "kind": "ideal_power_memberships",
            "element": vec_strs(m),
            "powers": memberships,
            "witness_cofactors": witnesses}, budgets.as_dict())
    else:
        report["power_memberships"] = verdicts.unknown(budgets.as_dict())
    report["quasi_isomorphism"] = _example1_quasi_iso(D, P, avatar, budgets)
    report["cohomologically_complete"] = is_cohomologically_complete(
        D, [t], budgets)
    return Example1Result(P, D, m, report)


def _example1_quasi_iso(D: DecayModule, P: BoundedComplex, avatar: FPModule,
                        budgets: Budgets) -> Verdict:
    """Precision-aware quasi-isomorphism of the covering complex onto the
    quotient module: the finite-stage kernel of the diagonal map consists
    entirely of truncation ghosts, and the degree-zero comparison is an
    isomorphism outright."""
    ring = D.ring
    N = D.precision
    budget = {**budgets.as_dict(), "support": D.support, "precision": N}
    delta = P.differential(-1)
    ker, incl = kernel_hom(delta)
    ghost_levels = []
    for jdx in range(ker.ambient_rank):
        col = incl.column(jdx)
        for i, e in enumerate(col):
            if e.is_zero():
                continue
            needed = max(N - D.exponents[i], 0)
            if (e.valuation() or 0) < needed:
                return verdicts.fails({
                    "kind": "genuine_kernel_element",
                    "element": vec_strs(col),
                    "degree": -1}, budget)
        ghost_levels.append(vec_strs(col))
    target = complex_from_module(avatar)
    pi = ComplexMap(P, target, {0: ModuleHom(P.entry(0), avatar,
                                             identity_hom(P.entry(0)).matrix,
                                             check=False)}, check=False)
    h0 = induced_cohomology_map(pi, 0)
    if not hom_is_iso(h0):
        return verdicts.fails({"kind": "degree_zero_not_isomorphism",
                               "degree": 0}, budget)
    return verdicts.holds({
        "kind": "precision_aware_quasi_isomorphism",
        "ghost_kernel_generators": ghost_levels,
        "note": "every finite-stage kernel generator vanishes to the order "
                "the truncation forgets, so the diagonal map is injective "
                "on decaying families; degree zero is an isomorphism"},
        budget)
