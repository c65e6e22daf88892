"""Canonical bases for submodules of free modules, with witness tracking.

One engine covers every computable coefficient situation the workbench
needs: classic Buchberger over field scalars, strong (S- and G-polynomial)
Buchberger over the integers, and the degenerate zero-variable case, which
amounts to Hermite-style row reduction.  Free-module terms are ordered
position-over-term, so the same run performs elimination: input rows are
tagged with unit vectors in a trailing block of positions, rows whose
leading block vanishes are syzygies of the inputs, and reductions accumulate
membership witnesses.

One reduction loop serves completion, normal forms and witnesses.
Completion and inter-reduction reduce every position; normal forms and
witnesses stop at the leading block.  Both give the same leading-block
result, because a row whose leading term lies in the tag block has all of
its terms there.

The engine works on raw term dicts {(position, exponents): scalar} so that
it stays independent of the ring layer.
"""
from __future__ import annotations

import heapq


def exps_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def exps_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exps_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def _scale_shift(row: dict, coeff, mono, domain) -> dict:
    """coeff * x^mono * row."""
    out = {}
    for (pos, e), c in row.items():
        v = domain.mul(c, coeff)
        if v != domain.zero:
            out[(pos, tuple(a + b for a, b in zip(e, mono)))] = v
    return out


def _add_into(target: dict, addition: dict, domain) -> None:
    for key, c in addition.items():
        s = domain.add(target.get(key, domain.zero), c)
        if s == domain.zero:
            target.pop(key, None)
        else:
            target[key] = s


class ModuleBasis:
    """Canonical basis of the span of `rows` inside positions 0..npos-1.

    When want_tags is set, each input row i is tagged with the unit vector
    at virtual position npos+i; completed rows whose leading block is zero
    yield the syzygies of the inputs, and normal forms report witnesses.
    """

    def __init__(self, rows, npos: int, nvars: int, domain, mono_key,
                 want_tags: bool = True):
        self.npos = npos
        self.nvars = nvars
        self.domain = domain
        self.mono_key = mono_key
        self.ntags = len(rows) if want_tags else 0
        self.want_tags = want_tags
        tagged = []
        zero_mono = (0,) * nvars
        for i, row in enumerate(rows):
            r = {k: v for k, v in row.items() if v != domain.zero}
            if want_tags:
                key = (npos + i, zero_mono)
                r[key] = domain.add(r.get(key, domain.zero), domain.one)
            if r:
                tagged.append(r)
        self.rows = self._saturate(tagged)
        self._canonicalize()
        self.basis = [r for r in self.rows if self._lt(r)[0][0] < npos]
        self._syzygy_rows = [r for r in self.rows if self._lt(r)[0][0] >= npos]

    # -- term order ----------------------------------------------------------

    def _term_key(self, key):
        pos, e = key
        return (-pos, self.mono_key(e))

    def _lt(self, row):
        key = max(row, key=self._term_key)
        return key, row[key]

    # -- reduction -----------------------------------------------------------

    def _reducer_step(self, index, key, coeff):
        """Find (row, mono, q) reducing term coeff*x^e*_pos, or None."""
        pos, e = key
        dom = self.domain
        for ge, gc, g in index.get(pos, ()):
            if not exps_divides(ge, e):
                continue
            q, _ = dom.divstep(coeff, gc)
            if q != dom.zero:
                return g, exps_sub(e, ge), q
        return None

    def _row_index(self, rows):
        """Leading terms bucketed by position, for the reduction hot path."""
        index: dict = {}
        for g in rows:
            (gpos, ge), gc = self._lt(g)
            index.setdefault(gpos, []).append((ge, gc, g))
        return index

    def _reduce(self, v: dict, rows, bound=None) -> dict:
        """Reduce v by rows, term by term from the top of the order.

        Only terms at positions below bound are reduced (every position when
        bound is None); the rest are carried along, so with bound npos the
        tag block of the result accumulates the membership witness.
        """
        dom = self.domain
        v = {k: c for k, c in v.items() if c != dom.zero}
        index = self._row_index(rows)
        done = set()
        while True:
            best = None
            for key in v:
                if key in done or (bound is not None and key[0] >= bound):
                    continue
                if best is None or self._term_key(key) > self._term_key(best):
                    best = key
            if best is None:
                return v
            hit = self._reducer_step(index, best, v[best])
            if hit is None:
                done.add(best)
                continue
            g, mono, q = hit
            _add_into(v, _scale_shift(g, dom.neg(q), mono, dom), dom)

    # -- completion ------------------------------------------------------------

    def _saturate(self, rows):
        dom = self.domain
        basis = []
        for r in rows:
            nf = self._reduce(r, basis)
            if nf:
                basis.append(nf)
        heap: list = []

        def push_pairs(k):
            (pk, ek), _ = self._lt(basis[k])
            for i in range(k):
                (pi, ei), _ = self._lt(basis[i])
                if pi != pk:
                    continue
                lcm = exps_lcm(ei, ek)
                heapq.heappush(heap, (self.mono_key(lcm), pk, i, k))

        for k in range(len(basis)):
            push_pairs(k)
        while heap:
            _, _, i, j = heapq.heappop(heap)
            f, g = basis[i], basis[j]
            (pf, ef), cf = self._lt(f)
            (pg, eg), cg = self._lt(g)
            lcm = exps_lcm(ef, eg)
            mf, mg = exps_sub(lcm, ef), exps_sub(lcm, eg)
            candidates = []
            if dom.is_field:
                s = _scale_shift(f, dom.inv(cf), mf, dom)
                _add_into(s, _scale_shift(g, dom.neg(dom.inv(cg)), mg, dom), dom)
                candidates.append(s)
            else:
                gc_, sc, tc = dom.gcdex(cf, cg)
                lc = dom.mul(cf, cg)
                lc, _ = dom.divstep(lc, gc_)  # lcm of the lead coefficients
                qf, _ = dom.divstep(lc, cf)
                qg, _ = dom.divstep(lc, cg)
                s = _scale_shift(f, qf, mf, dom)
                _add_into(s, _scale_shift(g, dom.neg(qg), mg, dom), dom)
                candidates.append(s)
                _, rem_fg = dom.divstep(cg, cf)
                _, rem_gf = dom.divstep(cf, cg)
                if rem_fg != dom.zero and rem_gf != dom.zero:
                    # gcd combination, needed for a strong basis over ZZ
                    t = _scale_shift(f, sc, mf, dom)
                    _add_into(t, _scale_shift(g, tc, mg, dom), dom)
                    candidates.append(t)
            for cand in candidates:
                nf = self._reduce(cand, basis)
                if not nf:
                    continue
                basis.append(nf)
                push_pairs(len(basis) - 1)
        return basis

    # -- canonical form ----------------------------------------------------------

    def _canonicalize(self):
        dom = self.domain
        # minimalize: drop rows whose leading term is strongly divisible by
        # another row's leading term
        rows = sorted(self.rows, key=lambda r: self._term_key(self._lt(r)[0]))
        keep = []
        for idx, r in enumerate(rows):
            (pos, e), c = self._lt(r)
            redundant = False
            for jdx, s in enumerate(rows):
                if jdx == idx:
                    continue
                (pos2, e2), c2 = self._lt(s)
                if pos2 != pos or not exps_divides(e2, e):
                    continue
                q, rem = dom.divstep(c, c2)
                if rem != dom.zero:
                    continue
                if (e2, self.domain.size(c2) if not dom.is_field else 0) == \
                   (e, self.domain.size(c) if not dom.is_field else 0) and jdx > idx:
                    continue  # identical strength: keep the earlier row
                redundant = True
                break
            if not redundant:
                keep.append(r)
        # inter-reduce tails and normalize leading units
        reduced = []
        for idx, r in enumerate(keep):
            others = keep[:idx] + keep[idx + 1:]
            (key, c) = self._lt(r)
            tail = dict(r)
            tail.pop(key)
            nf_tail = self._reduce(tail, others)
            row = dict(nf_tail)
            row[key] = dom.add(row.get(key, dom.zero), c)
            u = dom.normalizer(row[key])
            if u != dom.one:
                row = {k: dom.mul(v, u) for k, v in row.items()}
            reduced.append(row)
        reduced.sort(key=lambda r: self._term_key(self._lt(r)[0]), reverse=True)
        self.rows = reduced

    # -- public queries ----------------------------------------------------------

    def generators(self):
        """Canonical generators of the span: leading-block parts only."""
        return [{k: v for k, v in r.items() if k[0] < self.npos}
                for r in self.basis]

    def syzygies(self):
        """Generating relations among the tagged inputs, as rows over the
        tag coordinates 0..ntags-1."""
        if not self.want_tags:
            raise ValueError("basis built without tags")
        return [{(pos - self.npos, e): c for (pos, e), c in r.items()}
                for r in self._syzygy_rows]

    def normal_form(self, v: dict) -> dict:
        """Canonical normal form of a leading-block vector."""
        nf = self._reduce(v, self.rows, self.npos)
        return {k: c for k, c in nf.items() if k[0] < self.npos}

    def reduce_with_witness(self, v: dict):
        """(normal form, witness) with v = nf + sum_i witness_i * input_i.

        The witness is a dict over tag coordinates; it is only meaningful
        when the basis was built with tags.
        """
        dom = self.domain
        nf, witness = {}, {}
        for (pos, e), c in self._reduce(v, self.rows, self.npos).items():
            if pos < self.npos:
                nf[(pos, e)] = c
            else:
                witness[(pos - self.npos, e)] = dom.neg(c)
        return nf, witness

    def contains(self, v: dict):
        nf, witness = self.reduce_with_witness(v)
        if nf:
            return False, None
        return True, witness
