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

from .adic import (Budgets, DEFAULT_BUDGETS, is_complete, is_separated,
                   memo_scope, memoised, vec_strs)
from .complexes import (BoundedComplex, ComplexMap, cohomology,
                        complex_from_module, induced_cohomology_map)
from .derived import (_principal_cc, ext_localization,
                      is_cohomologically_complete)
from .errors import BudgetExceeded, NonSurjectiveReduction, ParentMismatch
from .modules import (FPModule, ModuleHom, _kernel_gens, euclidean_capable,
                      free_module, hom_is_iso, ideal_power_gens, identity_hom,
                      module_data, modules_isomorphic, quotient_module)
from .rings import (INTEGERS, POLYNOMIAL, PRIME_FIELD, POWER_SERIES,
                    RingElem, RingMap, RingSpec, apply_ring_map,
                    element_to_str, ring_integers, ring_polynomial,
                    ring_power_series, ring_rationals, ring_to_desc)
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


def _module_payload(M: FPModule) -> dict:
    return {**module_data(M), "ring": ring_to_desc(M.ring)}


def _complex_payload(C: BoundedComplex) -> dict:
    return {
        "entries": {str(j): _module_payload(m) for j, m in C.entries.items()},
        "differentials": {str(j): [[element_to_str(e) for e in row]
                                   for row in d.matrix]
                          for j, d in C.diffs.items()},
    }


# ---------------------------------------------------------------------------
# the four theorem checkers


@memo_scope()
def check_theorem2(M: BoundedComplex, gens,
                   budgets: Budgets = DEFAULT_BUDGETS) -> EquivalenceReport:
    """Degreewise completeness of the cohomologies against cohomological
    completeness plus degreewise separatedness."""
    cohoms = {j: cohomology(M, j) for j in M.window()}
    cohoms = {j: H for j, H in cohoms.items() if not H.is_zero()}
    left_parts, sep_parts = {}, {}
    for j, H in sorted(cohoms.items()):
        left_parts[f"complete_H^{j}"] = is_complete(H, gens, budgets)
        sep_parts[f"separated_H^{j}"] = is_separated(H, gens, budgets)
    cc = is_cohomologically_complete(M, gens, budgets)
    left = verdicts.conjunction(left_parts) if left_parts else verdicts.holds(
        {"kind": "exact_complex"}, budgets.as_dict())
    right = verdicts.conjunction({"cohomologically_complete": cc, **sep_parts})
    digest = canonical_digest({
        "check": "theorem2",
        "complex": {str(j): _module_payload(H) for j, H in cohoms.items()},
        "ideal": [element_to_str(a) for a in gens]})
    return EquivalenceReport(left, right, _consistency(left, right),
                             {**left_parts, **sep_parts,
                              "cohomologically_complete": cc}, digest)


@memo_scope()
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
        "module": _module_payload(M) if isinstance(M, FPModule)
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


@memo_scope()
def check_theorem4(M: FPModule, gens, budgets: Budgets = DEFAULT_BUDGETS,
                   transport: bool | None = None) -> EquivalenceReport:
    """Completeness against separatedness plus vanishing localization Ext^1
    for each generator; optionally replays the polynomial-ring transport."""
    left = is_complete(M, gens, budgets)
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
    left_A = is_complete(MA, tvars, budgets)
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
    stage_match = []
    for k in (1, 2):
        QA = quotient_module(MA, ideal_power_gens(tvars, k, MA))
        QB = quotient_module(M, ideal_power_gens(list(gens), k, M))
        pushed = apply_map_to_module(f, QA)
        iso = modules_isomorphic(pushed, QB)
        stage_match.append(bool(iso))
    status["tower_stages_match"] = stage_match
    return status


@memo_scope()
def check_lemma1(M: FPModule, a: RingElem,
                 budgets: Budgets = DEFAULT_BUDGETS) -> EquivalenceReport:
    """Principal case: cohomological completeness (telescope route) against
    joint vanishing of localization Ext^0 and Ext^1 (tower route), plus the
    one-directional separatedness implication."""
    left = is_cohomologically_complete(M, [a], budgets, route="telescope")
    e0 = ext_localization(0, a, M, budgets, route="tower")
    e1 = ext_localization(1, a, M, budgets, route="tower")
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


@memo_scope()
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
class DecayModule:
    """Finite-stage avatar of the quotient of a decaying-function module by
    the diagonal map delta_i -> t^(c_i) delta_i.

    The avatar is an honest finitely presented module over the truncated
    ring; the decay bookkeeping is what lets the separatedness analysis see
    the infinite-stage behaviour the truncation hides."""
    ring: RingSpec
    support: int
    exponents: tuple

    def __post_init__(self):
        if self.ring.kind != POWER_SERIES:
            raise ParentMismatch("decay modules live over truncated power series")
        if len(self.exponents) != self.support:
            raise ParentMismatch("one exponent per support index")

    @property
    def precision(self):
        return self.ring.precision

    def t(self) -> RingElem:
        return self.ring.variable(self.ring.vars[0])

    def avatar(self) -> FPModule:
        t = self.t()
        rels = []
        for i, c in enumerate(self.exponents):
            row = [self.ring.zero()] * self.support
            row[i] = t ** c
            rels.append(tuple(row))
        return FPModule(self.ring, self.support, rels)

    def diagonal_hom(self) -> ModuleHom:
        F = free_module(self.ring, self.support)
        t = self.t()
        mat = [[t ** self.exponents[i] if i == j else self.ring.zero()
                for j in range(self.support)] for i in range(self.support)]
        return ModuleHom(F, F, mat, check=False)

    def element_m(self):
        """Image of the completed sum of t^(c_i) delta_i."""
        t = self.t()
        return tuple(t ** c for c in self.exponents)


def decay_kernel(D: DecayModule):
    """(generators of the kernel of the diagonal map, the first of them
    that is not a truncation ghost, or None), computed once per
    `memo_scope`.

    A generator is a ghost when each entry at index i vanishes to order at
    least precision - c_i: the truncation forgets it, and it stands for no
    kernel element of the decaying-function module."""
    return memoised(("decay_kernel", D), _decay_kernel, D)


def _decay_kernel(D: DecayModule):
    gens = tuple(_kernel_gens(D.diagonal_hom()))
    N = D.precision
    for g in gens:
        for e, c in zip(g, D.exponents):
            if not e.is_zero() and e.valuation() < N - c:
                return gens, g
    return gens, None


def decay_memberships(D: DecayModule, avatar: FPModule):
    """Rows (j, u, member) for each j < min(support, precision): the
    cofactors u, with u_i = t^(c_i - j) from index j on and 0 before it,
    and whether m - t^j u lies in the relations of the avatar, that is,
    whether u witnesses m in t^j M (at j = 0 it always does).  Computed
    once per `memo_scope`; `avatar` is D.avatar()."""
    return memoised(("decay_memberships", D, avatar), _decay_memberships,
                    D, avatar)


def _decay_memberships(D: DecayModule, avatar: FPModule):
    t = D.t()
    m = D.element_m()
    rb = avatar.relations_basis()
    rows = []
    for j in range(min(D.support, D.precision)):
        u = tuple(t ** (c - j) if i >= j else D.ring.zero()
                  for i, c in enumerate(D.exponents))
        power = t ** j
        finite = tuple(a - power * e for a, e in zip(m, u))
        rows.append((j, u, j == 0 or rb.contains(finite)))
    return tuple(rows)


def _decay_separated(D: DecayModule, avatar: FPModule,
                     budgets: Budgets) -> Verdict:
    """Separatedness of D along (t), read on its avatar."""
    budget = {**budgets.as_dict(), "support": D.support,
              "precision": D.precision}
    m = D.element_m()
    # forced-preimage certificate: the all-ones vector maps to m under the
    # diagonal map (m is built as its image), and when every kernel
    # generator is a truncation ghost every preimage of m is congruent to
    # it at each index, so no preimage decays; at this window that
    # certifies m != 0 in the completed module.
    if decay_kernel(D)[1] is not None:
        return verdicts.unknown(budget)
    # membership witnesses: m in t^j M for every j < min(support, precision)
    rows = decay_memberships(D, avatar)
    memberships = [j for j, _, _ in rows if j]
    if not memberships or not all(member for _, _, member in rows):
        return verdicts.unknown(budget)
    return verdicts.fails({
        "kind": "decaying_sum_element",
        "element": vec_strs(m),
        "memberships_verified": memberships,
        "forced_preimage": "every preimage is 1 modulo t^(precision - i) "
                           "at each index i, so none decays",
        "note": f"m lies in a^j M for all j checked (up to {memberships[-1]}) "
                "and is nonzero by the forced-preimage certificate"}, budget)


def _decay_cc(D: DecayModule, avatar: FPModule, budgets: Budgets) -> Verdict:
    """Cohomological completeness of D along (t), read on its avatar."""
    t = D.t()
    name = element_to_str(t)
    v = verdicts.conjunction({name: _principal_cc(avatar, t, budgets, "both")})
    if v.holds():
        return verdicts.holds({
            "kind": "avatar_localization_ext_vanishing",
            "note": "finite-stage avatar of the decaying-function "
                    "quotient; nilpotent scalar action",
            "generators": [name]}, budgets.as_dict())
    return v


@dataclass(frozen=True)
class Example1Result:
    complex: BoundedComplex
    module: DecayModule
    element: tuple
    report: dict


@memo_scope()
def build_example1(support: int, precision: int,
                   budgets: Budgets = DEFAULT_BUDGETS) -> Example1Result:
    """Reconstruct the anomalous module at finite support and precision: a
    quotient of a decaying-function module that is not separated (with a
    certified nonzero element lying in every ideal power) yet is
    cohomologically complete, with the covering complex a quasi-isomorphism
    in the precision-aware sense."""
    if support < 2 or precision < 2:
        raise BudgetExceeded("support and precision must both be at least 2")
    ring = ring_power_series(ring_rationals(), "t", precision)
    D = DecayModule(ring, support, tuple(range(support)))
    F = free_module(ring, support)
    delta = D.diagonal_hom()
    P = BoundedComplex(ring, {-1: F, 0: F}, {-1: delta}, check=False)
    avatar = D.avatar()
    m = D.element_m()
    report = {}
    report["separated"] = _decay_separated(D, avatar, budgets)
    rows = decay_memberships(D, avatar)
    if all(member for _, _, member in rows):
        report["power_memberships"] = verdicts.holds({
            "kind": "ideal_power_memberships",
            "element": vec_strs(m),
            "powers": [j for j, _, _ in rows],
            "witness_cofactors": [vec_strs(u) for _, u, _ in rows]},
            budgets.as_dict())
    else:
        report["power_memberships"] = verdicts.unknown(budgets.as_dict())
    report["quasi_isomorphism"] = _example1_quasi_iso(D, P, avatar, budgets)
    report["cohomologically_complete"] = _decay_cc(D, avatar, budgets)
    return Example1Result(P, D, m, report)


def _example1_quasi_iso(D: DecayModule, P: BoundedComplex, avatar: FPModule,
                        budgets: Budgets) -> Verdict:
    """Precision-aware quasi-isomorphism of the covering complex onto the
    quotient module: the finite-stage kernel of the diagonal map consists
    entirely of truncation ghosts, and the degree-zero comparison is an
    isomorphism outright."""
    budget = {**budgets.as_dict(), "support": D.support,
              "precision": D.precision}
    kernel, genuine = decay_kernel(D)
    if genuine is not None:
        return verdicts.fails({"kind": "genuine_kernel_element",
                               "element": vec_strs(genuine),
                               "degree": -1}, budget)
    target = complex_from_module(avatar)
    pi = ComplexMap(P, target, {0: ModuleHom(P.entry(0), avatar,
                                             identity_hom(P.entry(0)).matrix,
                                             check=False)})
    h0 = induced_cohomology_map(pi, 0)
    if not hom_is_iso(h0):
        return verdicts.fails({"kind": "degree_zero_not_isomorphism",
                               "degree": 0}, budget)
    return verdicts.holds({
        "kind": "precision_aware_quasi_isomorphism",
        "ghost_kernel_generators": [vec_strs(g) for g in kernel],
        "note": "every finite-stage kernel generator vanishes to the order "
                "the truncation forgets, so the diagonal map is injective "
                "on decaying families; degree zero is an isomorphism"},
        budget)
