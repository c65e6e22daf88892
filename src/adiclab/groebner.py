"""Canonical bases for submodules of free modules.

One engine covers every computable coefficient situation the workbench
needs: classic Buchberger over field scalars, strong (S- and G-polynomial)
Buchberger over the integers, and the degenerate zero-variable case, which
amounts to Hermite-style row reduction.  Free-module terms are ordered
position-over-term, so a tagged run performs elimination: the first rows
of the input are tagged with unit vectors in a trailing block of positions,
the rest enter untagged, rows whose leading block vanishes are syzygies of
the tagged rows modulo the span of the untagged ones, and reductions
accumulate membership witnesses over the tagged rows.  Tags make completion
compute those syzygies, so callers ask for them only to read syzygies or
witnesses.

One reduction loop serves completion, normal forms and witnesses.
Completion and inter-reduction reduce every position; normal forms and
witnesses stop at the leading block.  Both give the same leading-block
result, because a row whose leading term lies in the tag block has all of
its terms there.

Each row's leading term is computed once, when the row joins the basis, and
kept next to it (`leads`).  Reducers are found through an index of leading
terms bucketed by position: completion grows one index as it appends rows,
canonicalization builds one over the rows it keeps, and the finished basis
builds one (`index`) that every normal form and witness query reuses.
Pairs and minimalization read the same kind of position buckets: a pair
joins two rows whose leads share a position, and a lead is redundant only
when a lead at its own position divides it, so neither looks at the rows
of other positions.  Completion queues the same pairs in the same heap
order as a scan over every earlier row would.

The reduced basis is canonical, so equal spans give equal rows: leads are
minimal, each row's leading unit is normalized (monic over a field,
positive over the integers) before its tail is reduced, and over the
integers every reduction leaves a remainder in [0, |c|) for the reducing
lead's coefficient c.  Normalizing after the reduction would move those
remainders out of range again, and equal spans would differ by signs.

The engine works on raw term dicts {(position, exponents): scalar} so that
it stays independent of the ring layer.
"""
from __future__ import annotations

import heapq
from operator import add, le, sub


def exps_lcm(a, b):
    return tuple(map(max, a, b))


def exps_sub(a, b):
    return tuple(map(sub, a, b))


def exps_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def _scale_shift(row: dict, coeff, mono, domain) -> dict:
    """coeff * x^mono * row."""
    out = {}
    mul = domain.mul
    for (pos, e), c in row.items():
        v = mul(c, coeff)
        if v:
            out[(pos, tuple(map(add, e, mono)))] = v
    return out


def _add_into(target: dict, addition: dict, domain) -> None:
    for key, c in addition.items():
        s = domain.add(target.get(key, domain.zero), c)
        if not s:
            target.pop(key, None)
        else:
            target[key] = s


def _index_row(index: dict, lead, row) -> None:
    """File row under the position of its leading term."""
    (pos, e), c = lead
    index.setdefault(pos, []).append((e, c, row))


def _build_index(leads, rows) -> dict:
    """Leading terms bucketed by position, for the reduction hot path."""
    index: dict = {}
    for lead, row in zip(leads, rows):
        _index_row(index, lead, row)
    return index


class ModuleBasis:
    """Canonical basis of the span of `rows` inside positions 0..npos-1.

    Each of the first `tags` input rows, i, is tagged with the unit vector
    at virtual position npos+i, and the other rows enter untagged (0 means
    no tags).  Completed rows whose leading block is zero yield the
    syzygies of the tagged rows modulo the span of the untagged ones, and
    normal forms report witnesses over the tagged rows.
    """

    def __init__(self, rows, npos: int, nvars: int, domain, mono_key,
                 tags: int):
        self.npos = npos
        self.nvars = nvars
        self.domain = domain
        self.mono_key = mono_key
        tagged = []
        zero_mono = (0,) * nvars
        for i, row in enumerate(rows):
            r = {k: v for k, v in row.items() if v}
            if i < tags:
                r[(npos + i, zero_mono)] = domain.one
            if r:
                tagged.append(r)
        self.rows, self.leads = self._canonicalize(*self._saturate(tagged))
        self.index = _build_index(self.leads, self.rows)
        self.basis = [r for r, ((pos, _), _) in zip(self.rows, self.leads)
                      if pos < npos]
        self._syzygy_rows = [r for r, ((pos, _), _) in
                             zip(self.rows, self.leads) if pos >= npos]

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
            if q:
                return g, exps_sub(e, ge), q
        return None

    def _reduce(self, v: dict, index, bound=None) -> dict:
        """Reduce v by the rows of index, term by term from the top of the
        order.

        Only terms at positions below bound are reduced (every position when
        bound is None); the rest are carried along, so with bound npos the
        tag block of the result accumulates the membership witness.
        """
        dom = self.domain
        v = {k: c for k, c in v.items() if c}
        term_keys = {}  # of the terms met in this call
        done = set()
        while True:
            best = best_k = None
            for key in v:
                if key in done or (bound is not None and key[0] >= bound):
                    continue
                k = term_keys.get(key)
                if k is None:
                    k = term_keys[key] = self._term_key(key)
                if best is None or k > best_k:
                    best, best_k = key, k
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
        """(rows, leading terms) of a Groebner basis of the span of rows."""
        dom = self.domain
        mono_key = self.mono_key
        basis, leads, index = [], [], {}
        heap: list = []
        members: dict = {}  # position -> (basis index, lead exponents)

        def append(row):
            """Add row to the basis and queue its pair with every earlier
            row whose lead lies at the same position."""
            lead = self._lt(row)
            (pk, ek), _ = lead
            k = len(basis)
            basis.append(row)
            leads.append(lead)
            _index_row(index, lead, row)
            bucket = members.setdefault(pk, [])
            for i, ei in bucket:
                heapq.heappush(heap, (mono_key(exps_lcm(ei, ek)), pk, i, k))
            bucket.append((k, ek))

        for r in rows:
            nf = self._reduce(r, index)
            if nf:
                append(nf)
        while heap:
            _, _, i, j = heapq.heappop(heap)
            f, g = basis[i], basis[j]
            (_, ef), cf = leads[i]
            (_, eg), cg = leads[j]
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
                if rem_fg and rem_gf:
                    # gcd combination, needed for a strong basis over ZZ
                    t = _scale_shift(f, sc, mf, dom)
                    _add_into(t, _scale_shift(g, tc, mg, dom), dom)
                    candidates.append(t)
            for cand in candidates:
                nf = self._reduce(cand, index)
                if nf:
                    append(nf)
        return basis, leads

    # -- canonical form ----------------------------------------------------------

    def _canonicalize(self, rows, leads):
        """(rows, leading terms) of the reduced basis, leading terms in
        descending order."""
        dom = self.domain
        # minimalize: drop rows whose leading term is strongly divisible by
        # another row's leading term.  No two leads divide each other, since
        # `_saturate` reduces each row it appends by the rows before it
        order = sorted(range(len(rows)),
                       key=lambda i: self._term_key(leads[i][0]))
        rows = [rows[i] for i in order]
        leads = [leads[i] for i in order]
        members: dict = {}  # position -> (row index, exponents, coefficient)
        for idx, ((pos, e), c) in enumerate(leads):
            members.setdefault(pos, []).append((idx, e, c))
        keep = []
        for idx, ((pos, e), c) in enumerate(leads):
            redundant = False
            for jdx, e2, c2 in members[pos]:
                if jdx == idx or not exps_divides(e2, e):
                    continue
                q, rem = dom.divstep(c, c2)
                if rem:
                    continue
                redundant = True
                break
            if not redundant:
                keep.append(idx)
        # normalize leading units, then inter-reduce tails (the other order
        # is not canonical over the integers); a row's own leading term
        # divides none of its tail terms, so one index over every kept row
        # serves each tail
        index = _build_index([leads[i] for i in keep], [rows[i] for i in keep])
        reduced = []
        for idx in keep:
            key, c = leads[idx]
            tail = dict(rows[idx])
            tail.pop(key)
            u = dom.normalizer(c)
            if u != dom.one:
                c = dom.mul(c, u)
                tail = {k: dom.mul(v, u) for k, v in tail.items()}
            row = self._reduce(tail, index)
            row[key] = c
            reduced.append((row, (key, c)))
        reduced.sort(key=lambda p: self._term_key(p[1][0]), reverse=True)
        return [r for r, _ in reduced], [lead for _, lead in reduced]

    # -- public queries ----------------------------------------------------------

    def generators(self):
        """Canonical generators of the span: leading-block parts only."""
        return [{k: v for k, v in r.items() if k[0] < self.npos}
                for r in self.basis]

    def syzygies(self):
        """Generating relations among the tagged inputs modulo the span of
        the untagged ones, as rows over the tag coordinates (coordinate i is
        input row i); none when the basis has no tags."""
        return [{(pos - self.npos, e): c for (pos, e), c in r.items()}
                for r in self._syzygy_rows]

    def normal_form(self, v: dict) -> dict:
        """Canonical normal form of a leading-block vector."""
        nf = self._reduce(v, self.index, self.npos)
        return {k: c for k, c in nf.items() if k[0] < self.npos}

    def reduce_with_witness(self, v: dict):
        """(normal form, witness) with v = nf + sum_i witness_i * input_i
        modulo the span of the untagged inputs.

        The witness is a dict over tag coordinates; it is only meaningful
        when the basis has tags.
        """
        dom = self.domain
        nf, witness = {}, {}
        for (pos, e), c in self._reduce(v, self.index, self.npos).items():
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
