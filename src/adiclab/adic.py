"""Adic completion towers and the separatedness/completeness deciders.

The workhorse is a certificate-based analysis of the descending chain
a^k M: either the chain provably stabilizes (with the least index and the
stabilized submodule), or it provably descends strictly forever, or the
budget runs out.  Forever-certificates come from three sound sources:

* Euclidean decomposition: over rings with Smith normal form the free part
  and the invariant factors decide the chain shape outright.
* Graded Nakayama: positively graded ideals acting on graded modules only
  stabilize by hitting zero, so a certified non-nilpotent action descends
  strictly forever.
* Nilpotency tests by localization: a acts nilpotently on M iff M with a
  inverted collapses, a finite Groebner membership computation.

Failure verdicts for lim^1 (and for completeness via non-stabilizing
towers) additionally use that every supported ring is countable: a strictly
descending surjective tower of countable modules has an uncountable limit,
and lim^1 of a countable tower vanishes iff Mittag-Leffler holds (Gray's
dichotomy).  Both rationales are outside the decision chain proper and are
recorded in the certificates they justify.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceeded, ParentMismatch, PrecisionExceeded
from .modules import (FPModule, ModuleHom, euclidean_capable, free_module,
                      hom_is_iso, ideal_power_gens, identity_hom,
                      kernel_hom, lift_elem, lower_elem, quotient_module,
                      std_basis, submodule_presentation, unit_vector,
                      work_ring, work_rows, zero_module)
from .rings import (POLYNOMIAL, POWER_SERIES, RingElem, RingSpec,
                    elem_divstep, element_to_str, scalar_domain)
from .smith import smith_normal_form
from . import verdicts
from .verdicts import Verdict


@dataclass(frozen=True)
class Budgets:
    """Explicit precision budgets; every Verdict reports what it used."""
    depth: int = 16        # chain iteration / tower depth
    window: int = 8        # materialized window for limit reports
    stages: int = 8        # telescope stage
    stab_window: int = 2   # consecutive decisive stages required for Holds

    def as_dict(self):
        return {"depth": self.depth, "window": self.window,
                "stages": self.stages, "stab_window": self.stab_window}


DEFAULT_BUDGETS = Budgets()


def vec_strs(vec):
    return [element_to_str(e) for e in vec]


# ---------------------------------------------------------------------------
# chain analysis


@dataclass(frozen=True)
class ChainProfile:
    """Certified shape of the descending chain a^k M."""
    status: str                    # stabilized | strict_forever | unknown
    stabilized_at: int | None      # least k with a^k M = a^(k+1) M
    # generators of the stabilized submodule; under strict_forever, nonzero
    # elements of the intersection of the chain (Euclidean analysis only)
    tail_gens: tuple
    certificate: dict
    separated_tail_nonzero: bool | None  # intersection of the chain nonzero?
    budget: dict


def _gens_valid(M: FPModule, gens):
    for a in gens:
        if a.ring != M.ring:
            raise ParentMismatch("ideal generator outside the module ring")
    return [a for a in gens if not a.is_zero()]


def _canonical_span(M: FPModule, vectors):
    sb = std_basis(list(vectors) + list(M.relations), M.ring,
                   ambient_rank=M.ambient_rank)
    return sb.generators


def _filter_mod_relations(M: FPModule, vectors):
    rb = M.relations_basis()
    return [M.normal_form(v) for v in vectors if not rb.contains(v)[0]]


def _elem_gcd(ring: RingSpec, elems):
    g = ring.zero()
    for e in elems:
        while not e.is_zero():
            g, e = e, elem_divstep(g, e)[1]
    dom = scalar_domain(ring)
    if not g.is_zero():
        g = g.scale(dom.normalizer(g.leading()[1]))
    return g


def _is_unit_in(public: RingSpec, g: RingElem) -> bool:
    """Is the work-ring element g a unit of the public ring?"""
    if public.kind == POWER_SERIES:
        return (0,) in g.terms
    return g.is_unit()


def _euclid_chain(M: FPModule, gens, budgets: Budgets):
    """Closed-form chain analysis over Euclidean-capable rings.

    The tail generators are the saturated pieces of the torsion summands:
    the stabilized submodule when the chain stabilizes, and nonzero
    elements of the intersection of the chain when a free summand makes it
    descend forever."""
    ring = M.ring
    w = work_ring(ring)
    rows = work_rows(ring, M.ambient_rank, M.relations)
    U, V, Vinv, D, rank = smith_normal_form(rows, w) if rows else (
        None, None, None, [], 0)
    free_rank = M.ambient_rank - rank
    g = _elem_gcd(w, [lift_elem(ring, a) for a in gens])
    info = {"kind": "euclidean_decomposition",
            "free_rank": free_rank,
            "ideal_gcd": element_to_str(g)}
    factors = [D[i][i] for i in range(rank)]
    # saturation of each invariant factor by powers of g
    sat_data = []
    tail_vecs = []
    k0 = 0
    if g.is_zero():
        # zero ideal: a^k M = 0 for k >= 1
        return ChainProfile("stabilized", 0 if M.is_zero() else 1, (),
                            {**info, "note": "zero ideal"}, False,
                            budgets.as_dict())
    if _is_unit_in(ring, g):
        tail = [unit_vector(ring, M.ambient_rank, i)
                for i in range(M.ambient_rank)]
        tail = _filter_mod_relations(M, tail)
        return ChainProfile("stabilized", 0, tuple(tail),
                            {**info, "note": "unit ideal"},
                            bool(tail), budgets.as_dict())
    for i, d in enumerate(factors):
        if d.is_unit():
            continue
        c = w.one()
        k = 0
        while True:
            c_next = _elem_gcd(w, [d, c * g])
            if c_next == c:
                break
            c = c_next
            k += 1
        sat_data.append({"factor": element_to_str(d),
                         "saturated": element_to_str(c),
                         "steps": k, "index": i})
        k0 = max(k0, k)
        # the saturated generator c * (row i of Vinv) spans the summand's
        # part of the tail; c | d always, and it is zero in M iff d | c
        if not elem_divstep(c, d)[1].is_zero():
            tail_vecs.append(tuple(lower_elem(ring, c * Vinv[i][j])
                                   for j in range(M.ambient_rank)))
    info["saturation"] = sat_data
    tail = tuple(_filter_mod_relations(M, tail_vecs))
    if free_rank == 0:
        # chain provably stabilizes at k0
        return ChainProfile("stabilized", k0, tail, info,
                            bool(tail), budgets.as_dict())
    # free part with a proper nonzero ideal: strictly descending forever
    info["note"] = "free summand forces strict descent"
    return ChainProfile("strict_forever", None, tail, info, bool(tail),
                        budgets.as_dict())


def _graded_positive(M: FPModule, gens) -> bool:
    if not M.ring.graded or not M.is_graded_module():
        return False
    for a in gens:
        if not a.is_homogeneous() or a.degree() < 1:
            return False
    return True


@lru_cache(maxsize=None)
def _localization_ring(w: RingSpec) -> RingSpec:
    name = "zloc"
    while name in w.vars:
        name += "_"
    return RingSpec(POLYNOMIAL, base=w.base, vars=w.vars + (name,),
                    order=w.order)


def nilpotent_on_module(a: RingElem, M: FPModule) -> bool | None:
    """Does a act nilpotently on M?  Decided by collapsing M[1/a];
    None when the ring is outside the decidable set."""
    ring = M.ring
    w = work_ring(ring)
    if w.nvars == 0:
        # scalar rings are Euclidean; the chain analysis handles them
        prof = chain_profile(M, [a], DEFAULT_BUDGETS)
        if prof.status == "stabilized":
            return not prof.tail_gens
        return False if prof.status == "strict_forever" else None
    if w.kind != POLYNOMIAL:
        return None
    ext = _localization_ring(w)

    def extend(e: RingElem) -> RingElem:
        return RingElem(ext, {exps + (0,): c for exps, c in e.terms.items()})

    n = M.ambient_rank
    rows = [tuple(extend(e) for e in r)
            for r in work_rows(ring, n, M.relations)]
    z = ext.variable(ext.vars[-1])
    az = extend(lift_elem(ring, a)) * z
    one = ext.one()
    for s in range(n):
        rows.append(tuple((one - az) if j == s else ext.zero()
                          for j in range(n)))
    Q = FPModule(ext, n, rows)
    return Q.is_zero()


def chain_profile(M: FPModule, gens, budgets: Budgets = DEFAULT_BUDGETS) -> ChainProfile:
    """Certified analysis of the chain a^k M for the ideal a = (gens)."""
    gens = _gens_valid(M, gens)
    budget = budgets.as_dict()
    if M.is_zero():
        return ChainProfile("stabilized", 0, (), {"kind": "zero_module"},
                            False, budget)
    # direct iteration up to the depth budget
    cur = _canonical_span(M, ideal_power_gens(gens, 1, M) if gens else [])
    prev = _canonical_span(M, ideal_power_gens(gens, 0, M))
    if cur == prev:
        tail = _filter_mod_relations(M, cur)
        return ChainProfile("stabilized", 0, tuple(tail),
                            {"kind": "chain_iteration", "index": 0},
                            bool(tail), budget)
    for k in range(1, budgets.depth + 1):
        nxt_gens = [tuple(a * e for e in v) for v in cur for a in gens]
        nxt = _canonical_span(M, nxt_gens)
        if nxt == cur:
            tail = _filter_mod_relations(M, cur)
            return ChainProfile("stabilized", k, tuple(tail),
                                {"kind": "chain_iteration", "index": k},
                                bool(tail), budget)
        cur = nxt
    # certificates beyond the budget
    if euclidean_capable(M.ring):
        return _euclid_chain(M, gens, budgets)
    if _graded_positive(M, gens):
        nil = [nilpotent_on_module(a, M) for a in gens]
        if all(x is True for x in nil):
            # nilpotent but deeper than the budget
            return ChainProfile("unknown", None, (), {
                "kind": "nilpotent_beyond_budget"}, None, budget)
        if any(x is False for x in nil):
            return ChainProfile(
                "strict_forever", None, (),
                {"kind": "graded_nakayama",
                 "non_nilpotent_generator": element_to_str(
                     gens[nil.index(False)]),
                 "note": "graded chain stabilizes only at zero"},
                False, budget)
    return ChainProfile("unknown", None, (), {"kind": "budget_exhausted"},
                        None, budget)


# ---------------------------------------------------------------------------
# towers


class Tower:
    """An inverse system of modules with transition homs stage(k+1)->stage(k).

    Stages materialize lazily and deterministically; the kind tag records
    the algebraic origin, which is what makes limit verdicts certifiable."""

    def __init__(self, kind: str, ring: RingSpec, stage_fn, transition_fn,
                 depth: int, meta: dict | None = None):
        self.kind = kind
        self.ring = ring
        self._stage_fn = stage_fn
        self._transition_fn = transition_fn
        self.depth = depth
        self.meta = meta or {}
        self._stages: dict[int, FPModule] = {}
        self._transitions: dict[int, ModuleHom] = {}

    def stage(self, k: int) -> FPModule:
        if k < 0:
            raise BudgetExceeded("negative tower stage")
        if k > self.depth:
            raise BudgetExceeded(f"stage {k} beyond tower depth {self.depth}")
        if k not in self._stages:
            self._stages[k] = self._stage_fn(k)
        return self._stages[k]

    def transition(self, k: int) -> ModuleHom:
        """stage(k+1) -> stage(k)."""
        if k + 1 > self.depth:
            raise BudgetExceeded(f"transition {k} beyond depth {self.depth}")
        if k not in self._transitions:
            self._transitions[k] = self._transition_fn(k)
        return self._transitions[k]

    def check_coherence(self, window: int = 2) -> bool:
        """Spot-check that materialized transitions compose coherently: the
        composite of two steps equals a hom from stage k+2 into stage k."""
        from .modules import compose, homs_equal
        for k in range(min(window, self.depth - 1)):
            two_step = compose(self.transition(k), self.transition(k + 1))
            if two_step.source != self.stage(k + 2) or \
               two_step.target != self.stage(k):
                return False
        return True

    def stabilization(self, budgets: Budgets = DEFAULT_BUDGETS):
        """(index, certificate) when the tower provably stabilizes."""
        if self.kind == "quotient":
            prof = chain_profile(self.meta["module"], self.meta["gens"], budgets)
            if prof.status == "stabilized":
                return prof.stabilized_at, prof.certificate
        if self.kind == "multiplication":
            prof = chain_profile(self.meta["module"], [self.meta["elem"]],
                                 budgets)
            if prof.status == "stabilized" and not prof.tail_gens:
                return prof.stabilized_at, prof.certificate
        # window detection: all materialized transitions isomorphisms
        for k in range(min(self.depth, budgets.window)):
            if all(hom_is_iso(self.transition(j))
                   for j in range(k, min(self.depth, budgets.window))):
                return k, {"kind": "window_isomorphisms", "from": k}
        return None


def completion_tower(M: FPModule, gens, depth: int = 16,
                     budgets: Budgets | None = None) -> Tower:
    """The quotient tower M/a^k M with canonical surjective transitions."""
    budgets = budgets or DEFAULT_BUDGETS
    if depth > 4 * budgets.depth:
        raise BudgetExceeded(f"depth {depth} beyond budget")
    gens = _gens_valid(M, gens)

    def stage(k):
        return quotient_module(M, ideal_power_gens(gens, k, M))

    def transition(k):
        return ModuleHom(stage(k + 1), stage(k),
                         identity_hom(M).matrix, check=False)

    return Tower("quotient", M.ring, stage, transition, depth,
                 {"module": M, "gens": gens})


def multiplication_tower(M: FPModule, a: RingElem, depth: int = 16) -> Tower:
    """Constant stages M with transitions multiplication by a."""
    mat = [[a if i == j else M.ring.zero() for j in range(M.ambient_rank)]
           for i in range(M.ambient_rank)]

    return Tower("multiplication", M.ring, lambda k: M,
                 lambda k: ModuleHom(M, M, mat, check=False), depth,
                 {"module": M, "elem": a})


@dataclass(frozen=True)
class LimReport:
    """Inverse limit description: a decisive value or a window summary."""
    decisive: bool
    value: FPModule | None
    stabilized_at: int | None
    note: str
    window: tuple = ()


def _mult_tail_iso(M: FPModule, a: RingElem, tail_gens):
    """Multiplication by a on the stabilized submodule; check isomorphism."""
    if not tail_gens:
        return True, None
    T = submodule_presentation(list(tail_gens), M)
    mat = [[a if i == j else M.ring.zero() for j in range(T.ambient_rank)]
           for i in range(T.ambient_rank)]
    f = ModuleHom(T, T, mat, check=False)
    return hom_is_iso(f), T


def lim_tower(T: Tower, window: int | None = None,
              budgets: Budgets = DEFAULT_BUDGETS):
    """(lim report, lim^1 vanishing verdict) for the materialized window."""
    window = window if window is not None else budgets.window
    window = min(window, T.depth)
    budget = {**budgets.as_dict(), "window": window}
    if T.kind == "quotient":
        M, gens = T.meta["module"], T.meta["gens"]
        prof = chain_profile(M, gens, budgets)
        lim1 = verdicts.holds({"kind": "mittag_leffler",
                               "note": "surjective transitions"}, budget)
        if prof.status == "stabilized":
            k0 = prof.stabilized_at
            value = T.stage(min(k0, T.depth))
            return (LimReport(True, value, k0, "tower stabilizes"), lim1)
        note = ("strictly descending forever" if prof.status == "strict_forever"
                else "undecided within budget")
        return (LimReport(False, None, None, note,
                          tuple(T.stage(k) for k in range(min(window, 4)))),
                lim1)
    if T.kind == "multiplication":
        M, a = T.meta["module"], T.meta["elem"]
        prof = chain_profile(M, [a], budgets)
        if prof.status == "stabilized":
            iso_ok, tail_mod = _mult_tail_iso(M, a, prof.tail_gens)
            lim1 = verdicts.holds(
                {"kind": "mittag_leffler",
                 "note": "images stabilize", "index": prof.stabilized_at},
                budget)
            if not prof.tail_gens:
                return (LimReport(True, zero_module(M.ring),
                                  prof.stabilized_at, "tower is pro-zero"),
                        lim1)
            if iso_ok:
                return (LimReport(True, tail_mod, prof.stabilized_at,
                                  "multiplication is invertible on the tail"),
                        lim1)
            return (LimReport(False, None, prof.stabilized_at,
                              "stabilized image, undecided lift"), lim1)
        if prof.status == "strict_forever":
            lim1 = verdicts.fails(
                {"kind": "mittag_leffler_failure",
                 "certificate": prof.certificate,
                 "note": "images never stabilize; countable tower, so lim^1 "
                         "is nonzero (Gray dichotomy)"}, budget)
            sep = is_separated(M, [a], budgets)
            if sep.holds():
                return (LimReport(True, zero_module(M.ring), None,
                                  "separated module: no divisible families"),
                        lim1)
            if sep.fails():
                return (LimReport(False, None, None,
                                  "nonzero divisible families exist"), lim1)
            return (LimReport(False, None, None, "undecided"), lim1)
        return (LimReport(False, None, None, "undecided within budget"),
                verdicts.unknown(budget))
    # hom/custom towers: window evidence only
    isos = []
    for k in range(window):
        isos.append(hom_is_iso(T.transition(k)))
    start = None
    for k in range(len(isos)):
        if all(isos[k:]) and len(isos) - k >= budgets.stab_window:
            start = k
            break
    if start is not None:
        return (LimReport(True, T.stage(start), start,
                          "window isomorphisms"),
                verdicts.holds({"kind": "mittag_leffler_window",
                                "from": start, "window": window}, budget))
    return (LimReport(False, None, None, "no stabilization in window",
                      tuple(T.stage(k) for k in range(min(window, 4)))),
            verdicts.unknown(budget))


# ---------------------------------------------------------------------------
# separatedness and completeness


def is_separated(M, gens, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Decide that the intersection of the chain a^k M is zero."""
    if isinstance(M, DecayModule):
        return _decay_separated(M, gens, budgets)
    budget = budgets.as_dict()
    gens = _gens_valid(M, gens)
    if _graded_positive(M, gens):
        return verdicts.holds({
            "kind": "graded",
            "note": "positively graded ideal on a bounded-below graded module"},
            budget)
    prof = chain_profile(M, gens, budgets)
    if prof.status == "stabilized":
        if not prof.tail_gens:
            return verdicts.holds({
                "kind": "stabilization_at_zero",
                "index": prof.stabilized_at,
                "chain": prof.certificate}, budget)
        wit = prof.tail_gens[0]
        return verdicts.fails({
            "kind": "stable_chain_element",
            "element": vec_strs(wit),
            "stabilized_at": prof.stabilized_at,
            "note": "element lies in a^k M for every k"}, budget)
    if prof.status == "strict_forever":
        if prof.separated_tail_nonzero is False:
            return verdicts.holds({
                "kind": "euclidean_valuation",
                "decomposition": prof.certificate}, budget)
        if prof.separated_tail_nonzero is True:
            return verdicts.fails({
                "kind": "saturated_torsion_element",
                "element": vec_strs(prof.tail_gens[0]),
                "note": "element lies in a^k M for every k"}, budget)
    return verdicts.unknown(budget)


def ext1_vanishing_tower(M: FPModule, a: RingElem,
                         budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """lim^1 vanishing of the multiplication tower (M, *a)."""
    _, lim1 = lim_tower(multiplication_tower(M, a, budgets.depth), budgets.window,
                        budgets)
    return lim1


def ext0_vanishing_tower(M: FPModule, a: RingElem,
                         budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """lim vanishing of the multiplication tower (M, *a)."""
    rep, _ = lim_tower(multiplication_tower(M, a, budgets.depth), budgets.window,
                       budgets)
    budget = budgets.as_dict()
    if rep.decisive and rep.value is not None:
        if rep.value.is_zero():
            return verdicts.holds({"kind": "limit_zero", "note": rep.note},
                                  budget)
        return verdicts.fails({"kind": "nonzero_limit",
                               "note": rep.note,
                               "value_rank": rep.value.ambient_rank}, budget)
    if rep.note == "nonzero divisible families exist":
        return verdicts.fails({"kind": "divisible_family",
                               "note": rep.note}, budget)
    return verdicts.unknown(budget)


def is_complete(M, gens, budgets: Budgets = DEFAULT_BUDGETS,
                refutations: str = "all") -> Verdict:
    """Decide bijectivity of the canonical map into the completion.

    refutations: "all" allows both the localization-Ext route and the
    non-stabilization route; "nonstab" restricts to stabilization-family
    certificates (used by checkers that must avoid circularity); "none"
    decides only via stabilization at zero."""
    if isinstance(M, DecayModule):
        return _decay_complete(M, gens, budgets)
    budget = budgets.as_dict()
    gens = _gens_valid(M, gens)
    prof = chain_profile(M, gens, budgets)
    if prof.status == "stabilized":
        if not prof.tail_gens:
            return verdicts.holds({
                "kind": "nilpotent_chain",
                "index": prof.stabilized_at,
                "note": "completion tower is eventually constant equal to M"},
                budget)
        wit = prof.tail_gens[0]
        return verdicts.fails({
            "kind": "completion_kernel",
            "element": vec_strs(wit),
            "stabilized_at": prof.stabilized_at,
            "note": "nonzero stable submodule is the kernel of the "
                    "completion comparison"}, budget)
    if refutations not in ("all", "nonstab", "none"):
        raise BudgetExceeded(f"unknown refutation family {refutations!r}")
    if refutations == "none":
        return verdicts.unknown(budget)
    sep = is_separated(M, gens, budgets)
    if sep.fails():
        return verdicts.fails({
            "kind": "completion_kernel",
            "element": sep.witness.get("element"),
            "note": "intersection of the chain is nonzero"}, budget)
    if refutations == "all" and sep.holds():
        for a in gens:
            ext1 = ext1_vanishing_tower(M, a, budgets)
            if ext1.fails():
                return verdicts.fails({
                    "kind": "localization_ext_obstruction",
                    "generator": element_to_str(a),
                    "ext1_witness": ext1.witness,
                    "note": "separated with nonvanishing localization "
                            "Ext^1 cannot be complete"}, budget)
    if prof.status == "strict_forever" and sep.holds():
        return verdicts.fails({
            "kind": "never_surjective",
            "chain": prof.certificate,
            "note": "strictly descending quotient tower over a countable "
                    "ring has an uncountable limit; the comparison map "
                    "from a finitely generated module cannot be onto"},
            budget)
    return verdicts.unknown(budget)


# ---------------------------------------------------------------------------
# decaying-function modules (the anomalous family)


@dataclass(frozen=True)
class DecayApprox:
    """Finite-stage picture of a decaying function: values below a support
    bound at a fixed power-series precision, with a decay schedule."""
    ring: RingSpec
    values: tuple
    schedule: tuple

    def __post_init__(self):
        if self.ring.kind != POWER_SERIES:
            raise ParentMismatch("decay approximations live over truncated "
                                 "power series")
        if len(self.values) != len(self.schedule):
            raise ParentMismatch("one schedule level per value")
        for v, d in zip(self.values, self.schedule):
            if v.ring != self.ring:
                raise ParentMismatch("value outside the ring")
            if not v.is_zero() and (v.valuation() or 0) < d:
                raise ParentMismatch("value breaks its decay level")

    @property
    def support_bound(self):
        return len(self.values)

    @property
    def precision(self):
        return self.ring.precision


def fdec_reduce(e: DecayApprox, k: int):
    """Finitely supported representative modulo t^k: drop indices whose
    value lies in (t^k)."""
    if k > e.ring.precision:
        raise PrecisionExceeded(f"{k} beyond stored precision {e.ring.precision}")
    out = {}
    for i, v in enumerate(e.values):
        if v.is_zero():
            continue
        if v.valuation() >= k:
            continue
        truncated = RingElem(e.ring, {ex: c for ex, c in v.terms.items()
                                      if ex[0] < k})
        if not truncated.is_zero():
            out[i] = truncated
    return out


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


def _decay_separated(M: DecayModule, gens, budgets: Budgets) -> Verdict:
    budget = {**budgets.as_dict(), "support": M.support,
              "precision": M.precision}
    gens = [g for g in gens if not g.is_zero()]
    vals = [g.valuation() for g in gens]
    if not gens or min(vals) < 1:
        return verdicts.unknown(budget)
    v = min(vals)
    N, I = M.precision, M.support
    m = M.element_m()
    # forced-preimage certificate: every preimage of m under the diagonal
    # map is congruent to the all-ones vector at each index, so no preimage
    # decays; at this window that certifies m != 0 in the completed module.
    delta = M.diagonal_hom()
    ker, incl = kernel_hom(delta)
    for j in range(ker.ambient_rank):
        col = incl.column(j)
        for i in range(I):
            needed = max(N - M.exponents[i], 0)
            e = col[i]
            if not e.is_zero() and (e.valuation() or 0) < needed:
                return verdicts.unknown(budget)
    ones = tuple(M.ring.one() for _ in range(I))
    if delta.apply(ones) != m:
        return verdicts.unknown(budget)
    # membership witnesses: m in a^j M for every j with v*j < min(I, N)
    avatar = M.avatar()
    t = M.t()
    memberships = []
    jmax = 0
    for j in range(1, N):
        if v * j >= min(I, N):
            break
        cut = v * j
        u = [M.ring.zero()] * I
        for i in range(cut, I):
            u[i] = t ** (M.exponents[i] - v * j)
        gname = min(gens, key=lambda g: g.valuation())
        power = gname ** j
        shifted = tuple(power * e for e in u)
        finite_part = tuple(a - b for a, b in zip(m, shifted))
        ok = avatar.relations_basis().contains(finite_part)[0]
        if not ok:
            return verdicts.unknown(budget)
        memberships.append(j)
        jmax = j
    if not memberships:
        return verdicts.unknown(budget)
    return verdicts.fails({
        "kind": "decaying_sum_element",
        "element": vec_strs(m),
        "memberships_verified": memberships,
        "forced_preimage": "every preimage is 1 modulo t^(precision - i) "
                           "at each index i, so none decays",
        "note": f"m lies in a^j M for all j checked (up to {jmax}) and is "
                "nonzero by the forced-preimage certificate"}, budget)


def _decay_complete(M: DecayModule, gens, budgets: Budgets) -> Verdict:
    sep = _decay_separated(M, gens, budgets)
    budget = {**budgets.as_dict(), "support": M.support,
              "precision": M.precision}
    if sep.fails():
        return verdicts.fails({
            "kind": "completion_kernel",
            "element": sep.witness.get("element"),
            "note": "not separated, hence not complete"}, budget)
    return verdicts.unknown(budget)
