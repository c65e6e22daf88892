"""Exact arithmetic over the supported coefficient rings.

Rings are immutable value objects; elements are sparse maps from exponent
tuples to nonzero scalars, kept in canonical normal form at all times (zero
coefficients dropped, power-series tails truncated, quotient relations
reduced).  Coefficients are arbitrary-precision integers or exact rationals;
no floating point is used anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import add

from .errors import DivisionByZero, InvalidRing, ParentMismatch, UnsupportedRing
from .groebner import ModuleBasis

LEX = "lex"
GRLEX = "grlex"

MAX_VARS = 4  # cap on the variables of a polynomial ring


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit inputs
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# scalar coefficient domains (the base rings of the polynomial layer)


class IntegerScalars:
    """Arbitrary-precision integer coefficients (a Euclidean domain)."""

    name = "integers"
    is_field = False
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, bool):
            raise InvalidRing("booleans are not ring scalars")
        if isinstance(v, int):
            return v
        if isinstance(v, Fraction) and v.denominator == 1:
            return int(v)
        raise InvalidRing(f"not an integer scalar: {v!r}")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def divstep(self, a, b):
        if b == 0:
            raise DivisionByZero("integer division by zero")
        # remainder in [0, |b|): keeps reduction monotone for either sign of b
        r = a % abs(b)
        return (a - r) // b, r

    def gcdex(self, a, b):
        x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
        while ng:
            q = g // ng
            x, nx = nx, x - q * nx
            y, ny = ny, y - q * ny
            g, ng = ng, g - q * ng
        if g < 0:
            x, y, g = -x, -y, -g
        return g, x, y

    def normalizer(self, a):
        # unit u with u*a canonical (nonnegative)
        return -1 if a < 0 else 1


class RationalScalars:
    """Exact rational coefficients.  Integral values are held as Python
    ints and only the others as Fractions, so the common integral case
    builds no Fraction and runs no gcd; Fraction(n) == n and both hash
    and print alike, so terms, keys and reports do not see the difference."""

    name = "rationals"
    is_field = True
    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, bool):
            raise InvalidRing("booleans are not ring scalars")
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else v
        if isinstance(v, int):
            return v
        raise InvalidRing(f"not a rational scalar: {v!r}")

    def add(self, a, b):
        s = a + b
        return s if type(s) is int or s.denominator != 1 else s.numerator

    def neg(self, a):
        return -a

    def mul(self, a, b):
        p = a * b
        return p if type(p) is int or p.denominator != 1 else p.numerator

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        # a is non-integral, so its inverse is integral iff |numerator| = 1
        if a.numerator in (1, -1):
            return a.numerator * a.denominator
        return 1 / a

    def divstep(self, a, b):
        return self.mul(a, self.inv(b)), 0

    def normalizer(self, a):
        return self.inv(a)


class PrimeFieldScalars:
    is_field = True

    def __init__(self, p: int):
        self.p = p
        self.name = f"prime_field({p})"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, bool):
            raise InvalidRing("booleans are not ring scalars")
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise InvalidRing(f"denominator divisible by {self.p}")
            return v.numerator * pow(den, self.p - 2, self.p) % self.p
        raise InvalidRing(f"not a prime-field scalar: {v!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def divstep(self, a, b):
        if b % self.p == 0:
            raise DivisionByZero("division by zero")
        return (a * self.inv(b) % self.p, 0)

    def normalizer(self, a):
        return self.inv(a) if a % self.p else 1


INTEGER_SCALARS = IntegerScalars()
RATIONAL_SCALARS = RationalScalars()


# ---------------------------------------------------------------------------
# ring specifications

INTEGERS = "integers"
RATIONALS = "rationals"
PRIME_FIELD = "prime_field"
POLYNOMIAL = "polynomial"
QUOTIENT = "quotient"
POWER_SERIES = "truncated_power_series"

_SCALAR_KINDS = (INTEGERS, RATIONALS, PRIME_FIELD)


@dataclass(frozen=True)
class RingSpec:
    """A computable base ring.

    kind is one of integers, rationals, prime_field, polynomial, quotient,
    truncated_power_series.  All supported rings are noetherian.

    Five facts are computed once, at construction, and take no part in
    equality or hashing: `domain`, the scalar domain of the coefficients;
    `work`, the ring the engine computes over (a power series ring lifts to
    its polynomial ring in lex order, a quotient to its ambient ring, any
    other ring to itself); `structural`, term dicts over `work` of the
    relations that lift forgets (t^N, or a quotient's ideal generators),
    which kill every ambient coordinate; `quotient_basis`, the tagless
    Groebner basis over a rank-one free module of a quotient's nonzero
    ideal, None for any other ring; and `_zero`, the ring's one zero
    element, which `zero()` returns.
    """

    kind: str
    p: int | None = None
    base: "RingSpec | None" = None
    vars: tuple[str, ...] = ()
    order: str | None = None
    ideal_gens: tuple = ()  # RingElem over the ambient, quotient kind only
    precision: int | None = None

    domain: object = field(init=False, compare=False, repr=False)
    work: "RingSpec" = field(init=False, compare=False, repr=False)
    structural: tuple = field(init=False, compare=False, repr=False)
    quotient_basis: object = field(init=False, compare=False, repr=False)
    _zero: "RingElem" = field(init=False, compare=False, repr=False)

    def __eq__(self, other):
        # elements, modules and maps compare their rings on every operation,
        # and nearly always meet the same RingSpec object; other pairs
        # compare the fields that hashing reads
        if self is other:
            return True
        if other.__class__ is not RingSpec:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in _COMPARED_FIELDS)

    def __reduce__(self):
        # rebuilt from the compared fields, so that the facts computed at
        # construction, the zero element among them, are computed anew
        return RingSpec, tuple(getattr(self, name) for name in _COMPARED_FIELDS)

    def __post_init__(self):
        kind = self.kind
        if kind == INTEGERS:
            domain = INTEGER_SCALARS
        elif kind == RATIONALS:
            domain = RATIONAL_SCALARS
        elif kind == PRIME_FIELD:
            domain = PrimeFieldScalars(self.p)
        else:
            domain = self.base.domain
        work, structural, basis = self, (), None
        if kind == POWER_SERIES:
            work = ring_polynomial(self.base, self.vars, LEX)
            structural = ({(self.precision,): domain.one},)
        elif kind == QUOTIENT:
            work = self.base
            structural = tuple(g.terms for g in self.ideal_gens)
            if structural:
                basis = ModuleBasis([{(0, e): c for e, c in t.items()}
                                     for t in structural],
                                    npos=1, nvars=work.nvars, domain=domain,
                                    mono_key=work.mono_key, tags=0)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "work", work)
        object.__setattr__(self, "structural", structural)
        object.__setattr__(self, "quotient_basis", basis)
        object.__setattr__(self, "_zero", RingElem(self, {}, _normalized=True))

    # -- structural helpers ------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def scalar_base(self) -> "RingSpec":
        """The coefficient ring of the underlying polynomial presentation."""
        if self.kind in _SCALAR_KINDS:
            return self
        if self.kind == QUOTIENT:
            return self.base.scalar_base()
        return self.base

    @property
    def is_field(self) -> bool:
        return self.kind in (RATIONALS, PRIME_FIELD)

    @property
    def graded(self) -> bool:
        """True when the ring carries its standard grading: always, except for
        quotients by non-homogeneous relations."""
        if self.kind == QUOTIENT:
            return all(g.is_homogeneous() for g in self.ideal_gens)
        return True

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise InvalidRing(f"no variable {name!r} in {self}") from None

    def mono_key(self, exps: tuple[int, ...]):
        if self.order == GRLEX:
            return (sum(exps), exps)
        return exps

    def zero(self) -> "RingElem":
        return self._zero

    def one(self) -> "RingElem":
        return RingElem(self, {(0,) * self.nvars: self.domain.one})

    def from_int(self, n: int) -> "RingElem":
        return RingElem(self, {(0,) * self.nvars: self.domain.coerce(n)})

    def from_scalar(self, c) -> "RingElem":
        return RingElem(self, {(0,) * self.nvars: self.domain.coerce(c)})

    def variable(self, name: str) -> "RingElem":
        i = self.var_index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return RingElem(self, {exps: self.domain.one})

    def __repr__(self):
        if self.kind == INTEGERS:
            return "ZZ"
        if self.kind == RATIONALS:
            return "QQ"
        if self.kind == PRIME_FIELD:
            return f"GF({self.p})"
        if self.kind == POLYNOMIAL:
            return f"{self.base!r}[{', '.join(self.vars)}]"
        if self.kind == QUOTIENT:
            rels = ", ".join(element_to_str(g) for g in self.ideal_gens)
            return f"{self.base!r}/({rels})"
        return f"{self.base!r}[{self.vars[0]}]/({self.vars[0]}^{self.precision})"


_COMPARED_FIELDS = tuple(f.name for f in fields(RingSpec) if f.compare)


# -- constructors ----------------------------------------------------------


def ring_integers() -> RingSpec:
    return RingSpec(INTEGERS)


def ring_rationals() -> RingSpec:
    return RingSpec(RATIONALS)


def ring_prime_field(p: int) -> RingSpec:
    if not isinstance(p, int) or not _is_prime(p):
        raise InvalidRing(f"{p} is not prime")
    return RingSpec(PRIME_FIELD, p=p)


def ring_polynomial(base: RingSpec, names, order: str = GRLEX) -> RingSpec:
    names = tuple(names)
    if base.kind not in _SCALAR_KINDS:
        raise InvalidRing("polynomial base ring must carry no variables")
    if not names:
        raise InvalidRing("polynomial ring needs at least one variable")
    if len(set(names)) != len(names):
        raise InvalidRing(f"duplicate variable names in {names}")
    if len(names) > MAX_VARS:
        raise InvalidRing(f"{len(names)} variables exceeds the cap of {MAX_VARS}")
    if order not in (LEX, GRLEX):
        raise InvalidRing(f"unsupported monomial order {order!r}")
    if any(not n or not n[0].isalpha() for n in names):
        raise InvalidRing(f"variable names must start with a letter: {names}")
    return RingSpec(POLYNOMIAL, base=base, vars=names, order=order)


def ring_quotient(ambient: RingSpec, gens) -> RingSpec:
    if ambient.kind != POLYNOMIAL:
        raise InvalidRing("quotient ambient must be a polynomial ring")
    elems = []
    for g in gens:
        e = parse_element(ambient, g) if isinstance(g, str) else g
        if e.ring != ambient:
            raise ParentMismatch("quotient relation outside the ambient ring")
        if not e.is_zero():
            elems.append(e)
    return RingSpec(QUOTIENT, base=ambient, vars=ambient.vars,
                    order=ambient.order, ideal_gens=tuple(elems))


def ring_power_series(base: RingSpec, name: str, precision: int) -> RingSpec:
    if not base.is_field:
        raise InvalidRing("truncated power series need a field of coefficients")
    if not isinstance(precision, int) or precision < 1:
        raise InvalidRing(f"precision must be >= 1, got {precision}")
    return RingSpec(POWER_SERIES, base=base, vars=(name,), order=LEX,
                    precision=precision)


def make_ring(desc) -> RingSpec:
    """Build a validated RingSpec from a plain-data description.

    The description is the instance-file form: a dict with a "kind" key.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise InvalidRing(f"malformed ring description: {desc!r}")
    kind = desc["kind"]
    known = {
        INTEGERS: (),
        RATIONALS: (),
        PRIME_FIELD: ("p",),
        POLYNOMIAL: ("base", "vars", "order"),
        QUOTIENT: ("ambient", "ideal"),
        POWER_SERIES: ("base", "var", "precision"),
    }
    if not isinstance(kind, str) or kind not in known:
        raise InvalidRing(f"unknown ring kind {kind!r}")
    extra = set(desc) - set(known[kind]) - {"kind"}
    if extra:
        raise InvalidRing(f"unknown fields {sorted(extra)} for ring kind {kind}")
    for key in ("p", "precision"):
        if isinstance(desc.get(key), bool):
            raise InvalidRing(f"{key} must be an integer, not a boolean")
    for key in ("vars", "ideal"):
        if key in desc and not (isinstance(desc[key], list) and all(
                isinstance(s, str) for s in desc[key])):
            raise InvalidRing(f"{key} must be a list of strings")
    if not isinstance(desc.get("var", "t"), str):
        raise InvalidRing("var must be a string")
    if kind == INTEGERS:
        return ring_integers()
    if kind == RATIONALS:
        return ring_rationals()
    if kind == PRIME_FIELD:
        return ring_prime_field(desc.get("p"))
    if kind == POLYNOMIAL:
        base = make_ring(desc.get("base", {"kind": RATIONALS}))
        return ring_polynomial(base, desc.get("vars", ()), desc.get("order", GRLEX))
    if kind == QUOTIENT:
        ambient = make_ring(desc.get("ambient"))
        return ring_quotient(ambient, desc.get("ideal", ()))
    base = make_ring(desc.get("base", {"kind": RATIONALS}))
    return ring_power_series(base, desc.get("var", "t"), desc.get("precision", 0))


def ring_to_desc(spec: RingSpec) -> dict:
    if spec.kind == INTEGERS:
        return {"kind": INTEGERS}
    if spec.kind == RATIONALS:
        return {"kind": RATIONALS}
    if spec.kind == PRIME_FIELD:
        return {"kind": PRIME_FIELD, "p": spec.p}
    if spec.kind == POLYNOMIAL:
        return {"kind": POLYNOMIAL, "base": ring_to_desc(spec.base),
                "vars": list(spec.vars), "order": spec.order}
    if spec.kind == QUOTIENT:
        return {"kind": QUOTIENT, "ambient": ring_to_desc(spec.base),
                "ideal": [element_to_str(g) for g in spec.ideal_gens]}
    return {"kind": POWER_SERIES, "base": ring_to_desc(spec.base),
            "var": spec.vars[0], "precision": spec.precision}


# ---------------------------------------------------------------------------
# elements


class RingElem:
    """A ring element in canonical sparse normal form.

    terms maps exponent tuples to nonzero scalars of the coefficient domain.
    Instances are immutable; all arithmetic returns new normalized elements.

    Construction normalizes its terms unless the caller passes
    `_normalized=True` for terms already in canonical form: the sums,
    negations and products below (a product drops the power-series terms
    past the precision as it forms them) and the leading-block rows that
    `modules.StdBasis` reads off a reduced basis.  Over a quotient ring the
    flag is ignored: canonical there means reduced modulo the ideal, which
    sums and products of reduced terms need not be.  Each `RingSpec` holds
    one zero element, which `zero()` returns.  Since elements share term
    dicts, no code mutates `terms` in place.
    """

    __slots__ = ("ring", "terms", "_key")

    def __init__(self, ring: RingSpec, terms: dict, _normalized: bool = False):
        if not _normalized or ring.kind == QUOTIENT:
            terms = _normalize_terms(ring, terms)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *args):
        raise AttributeError("RingElem is immutable")

    def _sorted_key(self):
        k = object.__getattribute__(self, "_key")
        if k is None:
            k = tuple(sorted(self.terms.items()))
            object.__setattr__(self, "_key", k)
        return k

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        dom = self.ring.domain
        if self.ring.kind in _SCALAR_KINDS:
            return bool(self.terms) and dom.is_unit(next(iter(self.terms.values())))
        if self.ring.kind == POWER_SERIES:
            # unit iff the constant term is nonzero
            return (0,) in self.terms
        # a nonzero constant: exactly the units of a polynomial ring; over a
        # quotient the rest needs membership of 1 in (self), so callers that
        # rely on unit detection there test explicitly
        z = (0,) * self.ring.nvars
        return set(self.terms) == {z} and dom.is_unit(self.terms[z])

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_scalar(self):
        """The scalar value of a constant element."""
        z = (0,) * self.ring.nvars
        if set(self.terms) - {z}:
            raise UnsupportedRing(f"{self} is not a constant")
        return self.terms.get(z, self.ring.domain.zero)

    def leading(self):
        """(exponent tuple, coefficient) of the order-leading term."""
        if not self.terms:
            return None
        key = self.ring.mono_key
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def valuation(self) -> int | None:
        """Order of vanishing in the single variable; None for 0 element."""
        if not self.terms:
            return None
        return min(e[0] for e in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other) -> "RingElem":
        if not isinstance(other, RingElem):
            if isinstance(other, int):
                return self.ring.from_int(other)
            raise ParentMismatch(f"cannot combine {self!r} with {other!r}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ParentMismatch(f"elements of {self.ring!r} and {other.ring!r}")
        return other

    def __add__(self, other):
        other = self._check(other)
        dom = self.ring.domain
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = dom.add(out.get(e, dom.zero), c)
            if not s:
                out.pop(e, None)
            else:
                out[e] = s
        return RingElem(self.ring, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        dom = self.ring.domain
        return RingElem(self.ring, {e: dom.neg(c) for e, c in self.terms.items()},
                        _normalized=True)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        ring = self.ring
        dom = ring.domain
        prec = ring.precision  # None unless a power series ring
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if prec is not None and e[0] >= prec:
                    continue
                s = dom.add(out.get(e, dom.zero), dom.mul(c1, c2))
                if not s:
                    out.pop(e, None)
                else:
                    out[e] = s
        return RingElem(ring, out, _normalized=True)

    __rmul__ = __mul__

    def scale(self, c) -> "RingElem":
        dom = self.ring.domain
        c = dom.coerce(c)
        if not c:
            return self.ring.zero()
        out = {e: dom.mul(v, c) for e, v in self.terms.items()}
        return RingElem(self.ring, {e: v for e, v in out.items() if v})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UnsupportedRing("exponents must be nonnegative integers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self._sorted_key()))

    def __repr__(self):
        return element_to_str(self)


def _normalize_terms(ring: RingSpec, terms: dict) -> dict:
    dom = ring.domain
    nv = ring.nvars
    out = {}
    for e, c in terms.items():
        e = tuple(e)
        if len(e) != nv or any(x < 0 for x in e):
            raise InvalidRing(f"bad exponent tuple {e} for {ring!r}")
        c = dom.coerce(c)
        if not c:
            continue
        if ring.kind == POWER_SERIES and e[0] >= ring.precision:
            continue
        s = dom.add(out.get(e, dom.zero), c)
        if not s:
            out.pop(e, None)
        else:
            out[e] = s
    if ring.quotient_basis is not None and out:
        nf = ring.quotient_basis.normal_form(
            {(0, e): c for e, c in out.items()})
        out = {e: c for (_, e), c in nf.items()}
    return out


# ---------------------------------------------------------------------------
# Euclidean division steps and ring maps


def elem_divstep(a: RingElem, b: RingElem) -> tuple[RingElem, RingElem]:
    """One Euclidean division step: a = q*b + r with r = 0 or size(r) < size(b).

    Supported over the integers, over fields, and over univariate polynomial
    rings with field coefficients.
    """
    ring = a.ring
    if b.ring != ring:
        raise ParentMismatch("divstep operands in different rings")
    if b.is_zero():
        raise DivisionByZero("divstep by zero")
    dom = ring.domain
    if ring.kind in _SCALAR_KINDS:
        q, r = dom.divstep(a.constant_scalar(), b.constant_scalar())
        return ring.from_scalar(q), ring.from_scalar(r)
    if ring.kind == POLYNOMIAL and ring.nvars == 1 and ring.base.is_field:
        q = ring.zero()
        r = a
        (be,), bc = b.leading()
        while not r.is_zero():
            (re,), rc = r.leading()
            if re < be:
                break
            t = RingElem(ring, {(re - be,): dom.mul(rc, dom.inv(bc))})
            q = q + t
            r = r - t * b
        return q, r
    raise UnsupportedRing(f"no Euclidean division over {ring!r}")


def euclid_size(e: RingElem) -> int:
    """Euclidean size used by the normal-form kernels (0 only for 0)."""
    ring = e.ring
    if e.is_zero():
        return 0
    if ring.kind == INTEGERS:
        return abs(e.constant_scalar())
    if ring.kind in (RATIONALS, PRIME_FIELD):
        return 1
    if ring.kind == POLYNOMIAL and ring.nvars == 1 and ring.base.is_field:
        return 1 + e.degree()
    raise UnsupportedRing(f"no Euclidean size over {ring!r}")


@dataclass(frozen=True)
class RingMap:
    """A ring homomorphism out of a polynomial ring over the integers,
    determined by the images of the variables."""

    source: RingSpec
    target: RingSpec
    images: tuple[RingElem, ...]

    def __post_init__(self):
        src = self.source
        if src.kind == POLYNOMIAL:
            if src.base.kind != INTEGERS:
                raise InvalidRing("ring map source must be ZZ[t1..tn]")
        elif src.kind != INTEGERS:
            raise InvalidRing("ring map source must be ZZ[t1..tn]")
        if len(self.images) != src.nvars:
            raise InvalidRing("one image per source variable required")
        for e in self.images:
            if e.ring != self.target:
                raise ParentMismatch("variable image outside the target ring")


def apply_ring_map(f: RingMap, e: RingElem) -> RingElem:
    """Substitute variable images and normalize in the target."""
    if e.ring != f.source:
        raise ParentMismatch("element outside the map's source ring")
    out = f.target.zero()
    for exps, c in e.terms.items():
        term = f.target.from_int(int(c))
        for img, k in zip(f.images, exps):
            if k:
                term = term * img ** k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# parsing and printing (the minimal coefficient grammar)


def element_to_str(e: RingElem) -> str:
    """Canonical string form: terms sorted descending in the ring order."""
    ring = e.ring
    if not e.terms:
        return "0"
    parts = []
    for exps in sorted(e.terms, key=ring.mono_key, reverse=True):
        c = e.terms[exps]
        mono = "*".join(
            (f"{v}^{k}" if k > 1 else v)
            for v, k in zip(ring.vars, exps) if k
        )
        neg = c < 0 if not isinstance(c, bool) else False
        mag = -c if neg else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("- " if neg else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, msg):
        raise InvalidRing(f"parse error at {self.pos} in {self.text!r}: {msg}")


def parse_element(ring: RingSpec, text: str) -> RingElem:
    """Parse the minimal grammar: integers, rationals p/q, variables, ^, *,
    +, -, parentheses.  Unicode minus is accepted."""
    tok = _Tok(str(text).replace("−", "-"))

    def parse_sum():
        node = parse_product()
        while True:
            c = tok.peek()
            if c == "+":
                tok.pos += 1
                node = node + parse_product()
            elif c == "-":
                tok.pos += 1
                node = node - parse_product()
            else:
                return node

    def parse_product():
        node = parse_power()
        while tok.peek() == "*":
            tok.pos += 1
            node = node * parse_power()
        return node

    def parse_power():
        if tok.peek() == "-":  # unary minus binds looser than ^
            tok.pos += 1
            return -parse_power()
        node = parse_atom()
        if tok.peek() == "^":
            tok.pos += 1
            c = tok.peek()
            if not c.isdigit():
                tok.error("exponent must be a nonnegative integer")
            n = parse_int()
            node = node ** n
        return node

    def parse_int():
        start = tok.pos
        while tok.pos < len(tok.text) and tok.text[tok.pos].isdigit():
            tok.pos += 1
        return int(tok.text[start:tok.pos])

    def parse_atom():
        c = tok.peek()
        if c == "(":
            tok.pos += 1
            node = parse_sum()
            if tok.peek() != ")":
                tok.error("expected )")
            tok.pos += 1
            return node
        if c.isdigit():
            num = parse_int()
            if tok.peek() == "/":
                tok.pos += 1
                if not tok.peek().isdigit():
                    tok.error("expected denominator")
                den = parse_int()
                if den == 0:
                    tok.error("zero denominator")
                return ring.from_scalar(Fraction(num, den))
            return ring.from_int(num)
        if c.isalpha() or c == "_":
            start = tok.pos
            while tok.pos < len(tok.text) and (tok.text[tok.pos].isalnum()
                                               or tok.text[tok.pos] == "_"):
                tok.pos += 1
            name = tok.text[start:tok.pos]
            if name not in ring.vars:
                tok.error(f"unknown variable {name!r}")
            return ring.variable(name)
        tok.error(f"unexpected character {c!r}")

    result = parse_sum()
    if tok.peek():
        tok.error("trailing input")
    return result
