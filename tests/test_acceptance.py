"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Budgets and tolerances are pinned here, nothing is deferred to
later calibration."""
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from adiclab.adic import Budgets
from adiclab.cli import generate_instances, run_instance
from adiclab.complexes import cohomology, hom_complex, shift_complex
from adiclab.derived import (ext_localization, is_cohomologically_complete,
                             koszul_route_cc, telescope_stage)
from adiclab.modules import (FPModule, ModuleHom, free_module, image_coker,
                             kernel_hom, std_basis,
                             submodule_presentation)
from adiclab.rings import (parse_element, ring_integers, ring_prime_field,
                           ring_power_series, ring_rationals)
from adiclab.smith import smith_normal_form
from adiclab.theorems import build_example1, check_theorem2

ZZ = ring_integers()
QQ = ring_rationals()

SEED = 20260809


def _passline(name, detail):
    print(f"ACCEPTANCE PASS {name}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: the anomalous example reproduced


def test_criterion_1_example1():
    t0 = time.time()
    ex = build_example1(8, 8)
    elapsed = time.time() - t0
    sep = ex.report["separated"]
    assert sep.fails()
    assert "forced_preimage" in sep.witness
    assert sep.witness["memberships_verified"] == list(range(1, 8))
    pm = ex.report["power_memberships"]
    assert pm.holds()
    assert pm.certificate["powers"] == list(range(0, 8))
    # witnesses are independently re-checkable membership statements
    ring = ex.module.ring
    tvar = ring.variable("t")
    avatar = ex.module.avatar()
    rb = avatar.relations_basis()
    m = ex.element
    for j, cof in zip(pm.certificate["powers"], pm.certificate["witness_cofactors"]):
        if j == 0:
            continue
        u = tuple(parse_element(ring, s) for s in cof)
        shifted = tuple((tvar ** j) * e for e in u)
        finite = tuple(a - b for a, b in zip(m, shifted))
        assert rb.contains(finite)
    assert ex.report["quasi_isomorphism"].holds()
    assert ex.report["cohomologically_complete"].holds()
    assert elapsed < 10.0
    big = build_example1(16, 16)
    for key in ("separated", "power_memberships", "quasi_isomorphism",
                "cohomologically_complete"):
        assert big.report[key].status == ex.report[key].status
    _passline("criterion-1",
              f"example reproduced in {elapsed:.2f}s; verdicts stable at (16,16)")


# ---------------------------------------------------------------------------
# criterion 2: Schenzel-style consistency over the mixed corpus


def test_criterion_2_theorem4_corpus():
    t0 = time.time()
    count = 200
    inconsistent = 0
    decisive_both = 0
    holds_holds = 0
    fails_fails = 0
    transports = 0
    for data in generate_instances(SEED, count, "mixed"):
        rep = run_instance(data)
        task = rep["tasks"][0]
        if task["status"] == "inconsistent":
            inconsistent += 1
        if task["left"]["status"] != "unknown" and \
           task["right"]["status"] != "unknown":
            decisive_both += 1
        if task["left"]["status"] == "holds" and \
           task["right"]["status"] == "holds":
            holds_holds += 1
        if task["left"]["status"] == "fails" and \
           task["right"]["status"] == "fails":
            fails_fails += 1
        tr = task["sub_reports"].get("transport")
        if tr is not None:
            # the polynomial-ring replay must agree on decisive statuses
            # and reproduce the first tower stages
            assert tr["left_matches"] and tr["right_matches"]
            assert all(tr["tower_stages_match"])
            transports += 1
    elapsed = time.time() - t0
    assert transports >= 10
    assert inconsistent == 0
    assert decisive_both >= 0.60 * count
    assert holds_holds >= 10
    assert fails_fails >= 10
    assert elapsed < 300.0
    _passline("criterion-2",
              f"{count} instances, 0 inconsistent, {decisive_both} decisive "
              f"({holds_holds} holds/holds, {fails_fails} fails/fails), "
              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: sum-of-ideals consistency


def test_criterion_3_theorem3_corpus():
    count = 100
    inconsistent = 0
    holds_branch = 0
    fails_branch = 0
    for data in generate_instances(SEED + 1, count, "theorem3"):
        rep = run_instance(data)
        task = rep["tasks"][0]
        if task["status"] == "inconsistent":
            inconsistent += 1
        if task["left"]["status"] == "holds" and \
           task["right"]["status"] == "holds":
            holds_branch += 1
        if task["left"]["status"] == "fails" and \
           task["right"]["status"] == "fails":
            fails_branch += 1
    assert inconsistent == 0
    assert holds_branch >= 5
    assert fails_branch >= 5
    _passline("criterion-3",
              f"{count} two-ideal instances, 0 inconsistent, "
              f"{holds_branch} holds-branch, {fails_branch} fails-branch")


# ---------------------------------------------------------------------------
# criterion 4: complex-level consistency with the golden cases


def test_criterion_4_theorem2_corpus():
    count = 100
    inconsistent = 0
    amplitude_ok = True
    for data in generate_instances(SEED + 2, count, "theorem2"):
        rep = run_instance(data)
        task = rep["tasks"][0]
        if task["status"] == "inconsistent":
            inconsistent += 1
    assert inconsistent == 0

    # golden case 1: nilpotent scalar module
    from adiclab.complexes import complex_from_module
    B = Budgets(depth=8, window=6, stages=3)
    KT3 = ring_power_series(QQ, "t", 3)
    g1 = check_theorem2(complex_from_module(free_module(KT3, 1)),
                        [KT3.variable("t")], B)
    assert g1.consistent == "consistent"
    assert g1.left.holds() and g1.right.holds()
    # golden case 2: the anomalous module, whose right side fails on
    # separatedness although cohomological completeness holds
    ex = build_example1(6, 6, budgets=B)
    assert ex.report["separated"].fails()
    assert ex.report["cohomologically_complete"].holds()
    # golden case 3: the integers
    g3 = check_theorem2(complex_from_module(free_module(ZZ, 1)),
                        [ZZ.from_int(2)], B)
    assert g3.consistent == "consistent"
    assert g3.left.fails() and g3.right.fails()
    _passline("criterion-4",
              f"{count} complexes, 0 inconsistent, 3 golden cases agree")


# ---------------------------------------------------------------------------
# criterion 5: base-change consistency


def test_criterion_5_lemma5_corpus():
    count = 50
    inconsistent = 0
    decisive = 0
    stage_iso_checked = 0
    for data in generate_instances(SEED + 3, count, "lemma5"):
        rep = run_instance(data)
        task = rep["tasks"][0]
        if task["status"] == "inconsistent":
            inconsistent += 1
        if task["status"] == "consistent":
            decisive += 1
        sub = task["sub_reports"]
        if sub.get("stage_values_isomorphic") is True:
            stage_iso_checked += 1
        assert sub.get("stage_values_isomorphic") in (True, None)
    assert inconsistent == 0
    assert decisive >= 25
    assert stage_iso_checked >= 25
    _passline("criterion-5",
              f"{count} reduction instances, 0 inconsistent, {decisive} "
              f"decisive-consistent, {stage_iso_checked} stagewise-isomorphic")


# ---------------------------------------------------------------------------
# criterion 6: kernel/image/cokernel against exhaustive enumeration; Smith
# form against a determinantal-divisor oracle


def _enumerate(M):
    p = M.ring.p
    consts = [M.ring.from_int(v) for v in range(p)]
    seen = {}
    for tup in itertools.product(consts, repeat=M.ambient_rank):
        nf = M.normal_form(tup)
        key = tuple(e._sorted_key() for e in nf)
        seen.setdefault(key, nf)
    return seen


def test_criterion_6a_enumeration_oracle():
    rng = random.Random(SEED + 4)
    total = 0
    disagreements = 0
    while total < 500:
        p = rng.choice([2, 3, 5])
        GF = ring_prime_field(p)
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        M_rels = [tuple(GF.from_int(rng.randrange(p)) for _ in range(m))
                  for _ in range(rng.randrange(0, 3))]
        M = FPModule(GF, m, M_rels)
        mat = [[GF.from_int(rng.randrange(p)) for _ in range(m)]
               for _ in range(n)]
        # target relations include the pushed source relations, so the
        # matrix is well defined by construction
        N_rels = [tuple(sum((mat[i][j] * r[j] for j in range(m)),
                            GF.zero()) for i in range(n)) for r in M_rels]
        N_rels += [tuple(GF.from_int(rng.randrange(p)) for _ in range(n))
                   for _ in range(rng.randrange(0, 2))]
        N = FPModule(GF, n, N_rels)
        f = ModuleHom(M, N, mat)
        total += 1

        elems_M = _enumerate(M)
        elems_N = _enumerate(N)
        nb = N.relations_basis()
        oracle_kernel = [v for v in elems_M.values()
                         if nb.contains(f.apply(v))]
        ker, incl = kernel_hom(f)
        kb = std_basis([incl.column(j) for j in range(ker.ambient_rank)]
                       + list(M.relations), GF, ambient_rank=m)
        ok = all(kb.contains(v) for v in oracle_kernel)
        ok = ok and all(nb.contains(f.apply(incl.column(j)))
                        for j in range(ker.ambient_rank))
        image, coker, proj = image_coker(f)
        oracle_image = {tuple(e._sorted_key() for e in N.normal_form(f.apply(v)))
                        for v in elems_M.values()}
        ok = ok and len(_enumerate(image)) == len(oracle_image)
        ok = ok and len(_enumerate(coker)) * len(oracle_image) == len(elems_N)
        if not ok:
            disagreements += 1
    assert disagreements == 0
    _passline("criterion-6a", f"{total} homs vs enumeration, 0 disagreements")


def _det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def _determinantal_gcds(rows):
    """gcd of all k x k minors, the independent Smith-form oracle."""
    import math
    r, c = len(rows), len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(r, c) + 1):
        g = 0
        for ris in itertools.combinations(range(r), k):
            for cis in itertools.combinations(range(c), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = math.gcd(g, abs(_det(sub)))
        out.append(g)
    return out


def test_criterion_6b_snf_oracle():
    rng = random.Random(SEED + 5)
    for trial in range(200):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        ints = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        A = [[ZZ.from_int(v) for v in row] for row in ints]
        _, D, rank = smith_normal_form(A, ZZ)
        gcds = _determinantal_gcds(ints)
        prod = 1
        for i in range(min(r, c)):
            d = D[i][i]
            val = abs(d.constant_scalar()) if not d.is_zero() else 0
            if i < rank:
                prod *= val
                assert prod == gcds[i]
            else:
                assert gcds[i] == 0 if i < len(gcds) else True
        for i in range(rank - 1):
            a = D[i][i].constant_scalar()
            b = D[i + 1][i + 1].constant_scalar()
            assert b % a == 0
    _passline("criterion-6b",
              "200 integer matrices: divisibility chain and determinantal "
              "divisors agree")


# ---------------------------------------------------------------------------
# criterion 7: route agreement


def test_criterion_7_route_agreement():
    compared = 0
    agreements = 0
    support_checked = 0
    for data in generate_instances(SEED + 6, 40, "mixed"):
        from adiclab.cli import parse_instance
        inst = parse_instance(data)
        M = inst.modules["M"]
        gens = inst.ideals["a"]
        B = Budgets(depth=8, window=6, stages=3)
        for a in gens:
            if a.is_zero():
                continue
            tele = is_cohomologically_complete(M, [a], B, route="telescope")
            kosz = koszul_route_cc(M, a, B)
            if tele.decisive and kosz.decisive:
                compared += 1
                assert tele.status == kosz.status
                agreements += 1
            # plus-part cohomology is confined to degrees 0 and 1
            N = 3
            plus = telescope_stage(a, N)
            H = hom_complex(shift_complex(plus, 1), M)
            for j in range(-2, 4):
                if j not in (0, 1):
                    assert cohomology(H, j).is_zero()
            support_checked += 1
    assert compared >= 20
    _passline("criterion-7",
              f"{agreements}/{compared} decisive route pairs agree; "
              f"plus-part support confined on {support_checked} instances")


# ---------------------------------------------------------------------------
# criterion 8: determinism under parallelism


def test_criterion_8_jobs_determinism(tmp_path, child_env):
    files = []
    corpora = [("mixed", 4), ("theorem3", 2), ("lemma5", 2)]
    idx = 0
    for profile, k in corpora:
        for data in generate_instances(SEED + 7, k, profile):
            f = tmp_path / f"acc{idx}.json"
            f.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
            files.append(str(f))
            idx += 1

    def run_with(jobs):
        cmd = [sys.executable, "-m", "adiclab.cli", "run", *files,
               "--format", "machine", "--jobs", str(jobs)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env)
        assert proc.returncode in (0, 2)
        return proc.stdout

    out1 = run_with(1)
    out8 = run_with(8)
    assert out1 == out8
    repeat = run_with(1)
    assert repeat == out1
    _passline("criterion-8",
              f"{len(files)} files byte-identical across --jobs 1/8 and reruns")
