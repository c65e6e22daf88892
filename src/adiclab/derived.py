"""Telescope stages, localization Ext, and the cohomological-completeness
decision procedure.

The telescope at stage N for a single element a is the two-term free
complex on delta_0..delta_N in degrees 0 and 1 with differential
d(delta_i) = delta_(i-1) - a*delta_i (reading delta_(-1) = 0); its plus
part, the only part the Ext analysis reads and so the only one built,
omits delta_0 in degree 0.  Hom of the full stage into a module M has
cohomology M/a^(N+1)M in degree 0 and the a^(N+1)-annihilator in degree
-1, and the stage towers realize the completion and multiplication towers.
Of the plus part the Ext analysis reads only the degree-0 cohomology of
Hom(plus[1], M) at two consecutive stages; `_telescope_ext` names the
identities that make that enough, which the tests check.
Cohomological completeness along a = (a_1..a_n) is decided one generator
at a time, so only single-element stages are built.  The "joint_chain"
route decides the whole ideal at once by `adic.is_complete` instead: for a
finitely generated module over a noetherian ring (every supported ring is
one) cohomological completeness is completeness.

Localization Ext is assembled two independent ways: through the telescope
stage cohomology towers, and through the multiplication tower directly;
decision procedures cross-check the two routes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .adic import (Budgets, DEFAULT_BUDGETS, chain_profile,
                   ext0_vanishing_tower, ext1_vanishing_tower, is_complete,
                   is_separated, memo_scope, memoised, vec_strs)
from .complexes import (BoundedComplex, cohomology, hom_complex,
                        shift_complex)
from .errors import BudgetExceeded
from .modules import (FPModule, ModuleHom, free_module, kernel_hom,
                      modules_isomorphic, std_basis)
from .rings import RingElem, element_to_str
from . import verdicts
from .verdicts import Verdict


# ---------------------------------------------------------------------------
# telescope stages


def telescope_stage(a: RingElem, N: int) -> BoundedComplex:
    """The plus part of the finite telescope stage N for one element: the
    Ext analysis reads nothing else."""
    if N < 1:
        raise BudgetExceeded("telescope stage must be >= 1")
    ring = a.ring
    P0 = free_module(ring, N)       # delta_1..delta_N
    P1 = free_module(ring, N + 1)   # delta_0..delta_N
    z = ring.zero()
    mat = [[z] * N for _ in range(N + 1)]
    for c in range(N):
        i = c + 1  # basis index delta_(c+1)
        mat[i - 1][c] = mat[i - 1][c] + ring.one()
        mat[i][c] = mat[i][c] - a
    d = ModuleHom(P0, P1, mat, check=False)
    return BoundedComplex(ring, {0: P0, 1: P1}, {0: d}, check=False)


# ---------------------------------------------------------------------------
# localization Ext


@dataclass(frozen=True)
class ExtApprox:
    """Stagewise approximation of a localization Ext group plus the
    vanishing verdict and route cross-checks.

    `stages` maps a stage to its value: on the telescope routes the
    degree-0 cohomology of Hom(plus(n)[1], M) at the two stages analysed,
    on route "tower" M itself at each window index.  `details` records the
    telescope stage used ("stage") and, on route "both", whether the last
    stage value is isomorphic to M ("stage_value_matches_module")."""
    stages: dict
    vanishing: Verdict
    agreement: bool | None = None
    details: dict = field(default_factory=dict)


def _telescope_ext(a: RingElem, M: FPModule, budgets: Budgets):
    """Telescope-route Ext analysis, the same for both indices: the degree-0
    cohomologies of Hom(plus(n)[1], M) for n = N, N + 1.  Returns N and the
    stage values; `ext_localization` runs the chain analysis on the stage-N
    value.  The identities the route rests on hold over every ring and are
    checked by the property test, not here: H^1 of each stage Hom vanishes,
    since (m_i) -> (m_(i-1) - a*m_i) is onto M^n, and the restriction from
    stage N + 1 to stage N acts on H^0 as multiplication by a.

    The materialized stage is capped so the Hom complexes stay at desk
    scale for wide modules; the stage used is recorded."""
    N = max(2, min(budgets.stages, 24 // max(1, M.ambient_rank)))
    stage_vals = {}
    for n in (N, N + 1):
        H = hom_complex(shift_complex(telescope_stage(a, n), 1), M)
        stage_vals[n] = cohomology(H, 0)
    return N, stage_vals


def ext_localization(index: int, a: RingElem, M: FPModule,
                     budgets: Budgets = DEFAULT_BUDGETS,
                     route: str = "both") -> ExtApprox:
    """Ext^index of the localization at a into M, index in {0, 1}.

    route: "tower" uses the multiplication tower on M; "telescope" uses the
    stage cohomology of Hom(plus_part[1], M); "both" runs the two and
    requires agreement.

    Inside a `memo_scope` the telescope analysis and, on route "both", the
    check that the last stage value is isomorphic to M run once per
    (element, module, grading, budgets), so the two indices share them.
    Each result carries its own `stages` and `details` dicts."""
    if index not in (0, 1):
        raise BudgetExceeded("only indices 0 and 1 are meaningful here")
    if route not in ("both", "tower", "telescope"):
        raise BudgetExceeded(f"unknown route {route!r}")
    vanishing = ext0_vanishing_tower if index == 0 else ext1_vanishing_tower
    if route == "tower":
        stages = {k: M for k in range(budgets.stab_window)}
        return ExtApprox(stages, vanishing(M, a, budgets))

    key = (a, M, M.grading, budgets)
    N, stage_vals = memoised(("telescope_ext", *key), _telescope_ext, a, M,
                             budgets)
    stage_vals, details = dict(stage_vals), {"stage": N}
    tele = vanishing(stage_vals[N], a, budgets)
    if route == "telescope":
        return ExtApprox(stage_vals, tele, details=details)
    tow = vanishing(M, a, budgets)
    agreement = None
    if tele.decisive and tow.decisive:
        agreement = tele.status == tow.status
    # stagewise value comparison when invariants decide isomorphism
    details["stage_value_matches_module"] = memoised(
        ("stage_value_matches_module", *key), modules_isomorphic,
        stage_vals[max(stage_vals)], M)
    primary = tow if tow.decisive or not tele.decisive else tele
    return ExtApprox(stage_vals, primary, agreement, details)


# ---------------------------------------------------------------------------
# cohomological completeness


def _principal_cc(M: FPModule, a: RingElem, budgets: Budgets,
                  route: str) -> Verdict:
    e0 = ext_localization(0, a, M, budgets, route=route)
    e1 = ext_localization(1, a, M, budgets, route=route)
    v = verdicts.conjunction({"ext0_vanishing": e0.vanishing,
                              "ext1_vanishing": e1.vanishing})
    if v.fails():
        which = v.witness["component"]
        return verdicts.fails({
            "kind": "localization_ext_nonzero",
            "generator": element_to_str(a),
            "obstruction_degree": 0 if which == "ext0_vanishing" else 1,
            "route": route,
            "inner": v.witness}, budgets.as_dict())
    if v.holds():
        return verdicts.holds({
            "kind": "localization_ext_vanishing",
            "generator": element_to_str(a),
            "route": route}, budgets.as_dict())
    return v


@memo_scope()
def is_cohomologically_complete(M, gens, budgets: Budgets = DEFAULT_BUDGETS,
                                route: str = "auto") -> Verdict:
    """Decide invertibility of the derived completion comparison.

    route "auto" uses per-generator localization Ext (tower assembly with
    telescope cross-check); "telescope"/"tower" force one assembly on the
    per-generator checks; "joint_chain" decides completeness along the
    whole ideal with `adic.is_complete`, which for a finitely generated
    module over a noetherian ring is cohomological completeness (for a
    complex, of each nonzero cohomology)."""
    ext_routes = {"auto": "both", "tower": "tower", "telescope": "telescope",
                  "joint_chain": None}
    if route not in ext_routes:
        raise BudgetExceeded(f"unknown route {route!r}")
    gens = [g for g in gens if not g.is_zero()]
    budget = budgets.as_dict()
    if isinstance(M, BoundedComplex):
        named = {}
        for j in M.window():
            H = cohomology(M, j)
            if H.is_zero():
                continue
            named[f"H^{j}"] = is_cohomologically_complete(H, gens, budgets,
                                                          route)
        if not named:
            return verdicts.holds({"kind": "exact_complex"}, budget)
        v = verdicts.conjunction(named)
        if v.fails():
            return verdicts.fails({
                "kind": "cohomology_degree_obstruction",
                "degree": v.witness["component"],
                "inner": v.witness["component_witness"]}, budget)
        if v.holds():
            return verdicts.holds({
                "kind": "all_cohomologies_complete",
                "degrees": sorted(named)}, budget)
        return v
    if not gens:
        return verdicts.holds({"kind": "zero_ideal"}, budget)
    if route == "joint_chain":
        return is_complete(M, gens, budgets)
    ext_route = ext_routes[route]
    named = {}
    for a in gens:
        named[element_to_str(a)] = _principal_cc(M, a, budgets, ext_route)
    v = verdicts.conjunction(named)
    if v.fails():
        inner = v.witness["component_witness"]
        return verdicts.fails({
            "kind": "generator_obstruction",
            "generator": v.witness["component"],
            "obstruction_degree": inner.get("obstruction_degree"),
            "inner": inner}, budget)
    if v.holds():
        return verdicts.holds({
            "kind": "all_generators_localization_ext_vanishing",
            "generators": sorted(named), "route": ext_route}, budget)
    return v


def koszul_route_cc(M: FPModule, a: RingElem,
                    budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Koszul-tower route for principal cohomological completeness: the
    ascending annihilator chain plus the quotient tower."""
    budget = budgets.as_dict()
    ring = M.ring
    # ascending annihilator chain ker(a^j); every span holds the relations,
    # so two agree iff their canonical bases do
    prev = None
    ann_stable = None
    for j in range(1, budgets.window + 1):
        mat = [[a ** j if i == t else ring.zero()
                for t in range(M.ambient_rank)] for i in range(M.ambient_rank)]
        ker, incl = kernel_hom(ModuleHom(M, M, mat, check=False))
        gens_j = [incl.column(t) for t in range(ker.ambient_rank)]
        span_j = std_basis(gens_j + list(M.relations), ring,
                           ambient_rank=M.ambient_rank).generators
        if span_j == prev:
            ann_stable = j - 1
            break
        prev = span_j
    if ann_stable is None:
        return verdicts.unknown({**budget, "reason": "annihilator chain open"})
    # torsion tower conditions hold once the annihilator chain stabilizes
    prof = chain_profile(M, [a], budgets)
    if prof.status == "stabilized":
        if not prof.tail_gens:
            return verdicts.holds({
                "kind": "koszul_nilpotent",
                "annihilator_stable_at": ann_stable,
                "quotient_stable_at": prof.stabilized_at}, budget)
        return verdicts.fails({
            "kind": "koszul_completion_kernel",
            "element": vec_strs(prof.tail_gens[0]),
            "obstruction_degree": 0}, budget)
    if prof.status == "strict_forever":
        sep = is_separated(M, [a], budgets)
        if sep.holds():
            return verdicts.fails({
                "kind": "koszul_tower_never_stabilizes",
                "obstruction_degree": 1,
                "chain": prof.certificate}, budget)
        if sep.fails():
            return verdicts.fails({
                "kind": "koszul_completion_kernel",
                "element": sep.witness.get("element"),
                "obstruction_degree": 0}, budget)
    return verdicts.unknown(budget)
