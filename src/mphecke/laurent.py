"""Exact coefficient arithmetic.

Everything downstream is built over one coefficient ring: Laurent
polynomials in a formal variable ``u`` with rational coefficients, where
the deformation parameter is ``q = u**4``.  Working in the quarter-power
variable keeps every exponent that shows up in practice (integers, halves
and quarters of powers of q, and the square roots occurring in the
unequal-parameter commutation rule) inside a single polynomial ring, so no
operation ever rounds.

Three layers:

* :class:`QLaurent` -- Laurent polynomials in ``u`` over the rationals.
* :class:`GroupAlgebraElement` -- the group algebra of a lattice ``Z^rank``
  with :class:`QLaurent` coefficients; monomials are written ``Z_lam``.
* :class:`RationalFunction` -- quotients of rank-1 group-algebra elements
  (rational functions in one variable ``X``) with a deterministic
  canonical form, so equality is decidable.  Elements of the field Q(u)
  are its constants; there is no separate fraction class.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class NotDivisible(ArithmeticError):
    """Raised when an exact quotient was requested but does not exist."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Laurent polynomials in u over Q
# ---------------------------------------------------------------------------

class QLaurent:
    """A Laurent polynomial ``sum c_k u^k`` with ``c_k`` rational.

    Stored sparsely as ``{k: c_k}`` with no zero coefficients.  ``q`` means
    ``u**4`` throughout; use :meth:`q_power` to build ``q**e`` for a
    rational ``e`` with ``4*e`` integral.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _as_fraction(v)
                if v:
                    c[int(k)] = c.get(int(k), Fraction(0)) + v
                    if not c[int(k)]:
                        del c[int(k)]
        object.__setattr__(self, "_c", c)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("QLaurent is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def const(cls, x) -> "QLaurent":
        return cls({0: _as_fraction(x)})

    @classmethod
    def u_power(cls, k: int, coeff=1) -> "QLaurent":
        return cls({int(k): _as_fraction(coeff)})

    @classmethod
    def q_power(cls, e) -> "QLaurent":
        """``q**e`` for rational ``e`` with ``4e`` an integer (``q = u^4``)."""
        e = _as_fraction(e)
        k = e * 4
        if k.denominator != 1:
            raise ValueError(f"exponent {e} is not a quarter-integer power of q")
        return cls({int(k): 1})

    # -- structure ----------------------------------------------------------

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: Fraction(1)}

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def leading_coeff(self) -> Fraction:
        return self._c[self.degree()]

    def coeff(self, k: int) -> Fraction:
        return self._c.get(k, Fraction(0))

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QLaurent") -> "QLaurent":
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, Fraction(0)) + v
        return QLaurent(c)

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return self + (-other)

    def __neg__(self) -> "QLaurent":
        return QLaurent({k: -v for k, v in self._c.items()})

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        c: dict[int, Fraction] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                c[k] = c.get(k, Fraction(0)) + v1 * v2
        return QLaurent(c)

    def scale(self, x) -> "QLaurent":
        x = _as_fraction(x)
        return QLaurent({k: v * x for k, v in self._c.items()})

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            if not self.is_monomial():
                raise NotDivisible("negative power of a non-monomial")
            k = self.valuation()
            c = self._c[k]
            base = QLaurent({-k: 1 / c})
            return base ** (-n)
        out = QLaurent.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, QLaurent) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"QLaurent({self})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k, v in self.items():
            if k == 0:
                parts.append(str(v))
            elif k % 4 == 0:
                e = k // 4
                parts.append(f"{v}*q^{e}" if e != 1 else f"{v}*q")
            else:
                parts.append(f"{v}*u^{k}")
        return " + ".join(parts)

    # -- division and gcd ---------------------------------------------------

    def _dense(self) -> tuple[int, list[Fraction]]:
        """(valuation, ascending coefficient list); zero -> (0, [])."""
        if not self._c:
            return 0, []
        v, d = self.valuation(), self.degree()
        return v, [self._c.get(k, Fraction(0)) for k in range(v, d + 1)]

    @staticmethod
    def _from_dense(val: int, coeffs: Sequence[Fraction]) -> "QLaurent":
        return QLaurent({val + i: c for i, c in enumerate(coeffs) if c})

    def exact_div(self, den: "QLaurent") -> "QLaurent":
        """Exact quotient in Q[u, u^-1]; raises :class:`NotDivisible`."""
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_zero():
            return QLaurent.zero()
        nv, nc = self._dense()
        dv, dc = den._dense()
        q, r = _polydiv(nc, dc)
        if any(r):
            raise NotDivisible(f"({self}) is not divisible by ({den})")
        return QLaurent._from_dense(nv - dv, q)

    @staticmethod
    def gcd(a: "QLaurent", b: "QLaurent") -> "QLaurent":
        """Monic gcd in Q[u, u^-1], normalised to valuation 0.

        Units (nonzero rational multiples of powers of u) are quotiented
        out, so gcd(x, y) of two nonzero monomials is 1.  Computed by a
        primitive pseudo-remainder sequence over Z to keep coefficients
        small.
        """
        if a.is_zero() and b.is_zero():
            return QLaurent.zero()
        if a.is_zero():
            return QLaurent.gcd(b, a)
        _, ac = a._dense()
        if b.is_zero():
            g = _int_normalize(ac)
        else:
            _, bc = b._dense()
            g = _int_polygcd(_int_normalize(ac), _int_normalize(bc))
        lead = Fraction(g[-1])
        return QLaurent._from_dense(0, [Fraction(c) / lead for c in g])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list:
        return [[k, v.numerator, v.denominator] for k, v in self.items()]

    @classmethod
    def from_json(cls, data: Iterable) -> "QLaurent":
        return cls({int(k): Fraction(int(n), int(d)) for k, n, d in data})


def _polydiv(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Dense division with remainder over Q, ascending coefficients."""
    num = list(num)
    dd = len(den) - 1
    while den[dd] == 0:
        dd -= 1
    q = [Fraction(0)] * max(len(num) - dd, 0)
    for i in range(len(num) - 1 - dd, -1, -1):
        c = num[i + dd] / den[dd]
        if c:
            q[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    return q, num[:dd]


def _int_normalize(coeffs: Sequence[Fraction]) -> list[int]:
    """Rescale a Fraction list to a primitive integer list (nonzero input)."""
    from math import gcd as igcd
    den = 1
    for c in coeffs:
        den = den * c.denominator // igcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = igcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _int_polygcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive pseudo-remainder gcd over Z, ascending coefficients."""
    from math import gcd as igcd

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def primitive(p):
        g = 0
        for c in p:
            g = igcd(g, c)
        return [c // g for c in p] if g > 1 else p

    a, b = trim(list(a)), trim(list(b))
    if not b:
        return primitive(a)
    while b:
        # pseudo-remainder of a by b, re-primitivised each step
        r = list(a)
        lb = b[-1]
        db = len(b) - 1
        while r and len(r) - 1 >= db:
            lead = r[-1]
            shift = len(r) - 1 - db
            r = [c * lb for c in r]
            for i, bc in enumerate(b):
                r[shift + i] -= lead * bc
            r = trim(r)
        a, b = b, primitive(trim(r))
    return primitive(a)


def _content(coeffs: Iterable[QLaurent]) -> QLaurent:
    """Monic gcd of the nonzero coefficients (zero if there are none)."""
    g = QLaurent.zero()
    for c in coeffs:
        if not c.is_zero():
            g = QLaurent.gcd(g, c)
            if g.is_one():
                break
    return g


# ---------------------------------------------------------------------------
# Lattice group algebra
# ---------------------------------------------------------------------------

def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class GroupAlgebraElement:
    """An element ``sum_lam c_lam Z_lam`` of Q[u,u^-1][Z^rank].

    Term keys are integer vectors of length ``rank`` (Laurent exponents are
    allowed in every coordinate); coefficients are :class:`QLaurent` and
    never zero.
    """

    __slots__ = ("rank", "_t")

    def __init__(self, rank: int, terms: Mapping[tuple[int, ...], QLaurent] | None = None):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        t: dict[tuple[int, ...], QLaurent] = {}
        if terms:
            for vec, c in terms.items():
                vec = tuple(int(x) for x in vec)
                if len(vec) != rank:
                    raise ValueError(f"term key {vec} has length != rank {rank}")
                if not c.is_zero():
                    acc = t.get(vec)
                    c = c if acc is None else acc + c
                    if c.is_zero():
                        t.pop(vec, None)
                    else:
                        t[vec] = c
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_t", t)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("GroupAlgebraElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank, {(0,) * rank: QLaurent.one()})

    @classmethod
    def monomial(cls, vec: Sequence[int], coeff: QLaurent | None = None) -> "GroupAlgebraElement":
        vec = tuple(int(x) for x in vec)
        return cls(len(vec), {vec: QLaurent.one() if coeff is None else coeff})

    @classmethod
    def const(cls, rank: int, coeff: QLaurent) -> "GroupAlgebraElement":
        return cls(rank, {(0,) * rank: coeff})

    # -- structure ----------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], QLaurent]]:
        return sorted(self._t.items(), key=lambda kv: _grlex_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._t

    def leading(self) -> tuple[tuple[int, ...], QLaurent]:
        """Leading term under graded lexicographic order."""
        if not self._t:
            raise ValueError("zero element has no leading term")
        vec = max(self._t, key=_grlex_key)
        return vec, self._t[vec]

    def coeff(self, vec: Sequence[int]) -> QLaurent:
        return self._t.get(tuple(int(x) for x in vec), QLaurent.zero())

    # -- ring operations ----------------------------------------------------

    def _check(self, o: "GroupAlgebraElement"):
        if self.rank != o.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {o.rank}")

    def __add__(self, o: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(o)
        t = dict(self._t)
        for vec, c in o._t.items():
            t[vec] = t.get(vec, QLaurent.zero()) + c
        return GroupAlgebraElement(self.rank, t)

    def __sub__(self, o: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-o)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.rank, {v: -c for v, c in self._t.items()})

    def __mul__(self, o: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(o)
        t: dict[tuple[int, ...], QLaurent] = {}
        for v1, c1 in self._t.items():
            for v2, c2 in o._t.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                p = c1 * c2
                acc = t.get(v)
                t[v] = p if acc is None else acc + p
        return GroupAlgebraElement(self.rank, t)

    def scale(self, c: QLaurent) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.rank, {v: x * c for v, x in self._t.items()})

    def bar(self) -> "GroupAlgebraElement":
        """Substitute every lattice monomial by its inverse, Z_lam -> Z_{-lam}."""
        return GroupAlgebraElement(self.rank, {tuple(-x for x in v): c for v, c in self._t.items()})

    def apply_lattice_map(self, f) -> "GroupAlgebraElement":
        """Push exponents through an injective lattice map ``f``."""
        return GroupAlgebraElement(self.rank, {tuple(int(x) for x in f(v)): c for v, c in self._t.items()})

    def shift(self, vec: Sequence[int]) -> "GroupAlgebraElement":
        vec = tuple(int(x) for x in vec)
        return GroupAlgebraElement(self.rank, {tuple(a + b for a, b in zip(v, vec)): c for v, c in self._t.items()})

    def __eq__(self, o) -> bool:
        return isinstance(o, GroupAlgebraElement) and self.rank == o.rank and self._t == o._t

    def __hash__(self):
        return hash((self.rank, tuple(self.terms())))

    def __repr__(self):
        if not self._t:
            return "GA(0)"
        return "GA(" + " + ".join(f"({c})*Z{list(v)}" for v, c in self.terms()) + ")"

    # -- exact division -----------------------------------------------------

    def exact_div(self, den: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """The unique g with den*g == self, if it exists.

        Multivariate long division under the graded-lexicographic order,
        after shifting both operands into the polynomial cone.  A nonzero
        remainder raises :class:`NotDivisible`; the divisions needed in
        practice (geometric quotients out of the commutation rule) are
        exact by construction, so a remainder signals a caller error.
        """
        self._check(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero element")
        if self.is_zero():
            return GroupAlgebraElement.zero(self.rank)
        shift_n = tuple(min(v[i] for v in self._t) for i in range(self.rank))
        shift_d = tuple(min(v[i] for v in den._t) for i in range(self.rank))
        num = self.shift(tuple(-x for x in shift_n))
        d = den.shift(tuple(-x for x in shift_d))
        dl_vec, dl_coeff = d.leading()
        quot: dict[tuple[int, ...], QLaurent] = {}
        rem = num
        while not rem.is_zero():
            rl_vec, rl_coeff = rem.leading()
            delta = tuple(a - b for a, b in zip(rl_vec, dl_vec))
            if any(x < 0 for x in delta):
                raise NotDivisible("leading monomial not divisible")
            c = rl_coeff.exact_div(dl_coeff)  # NotDivisible propagates
            quot[delta] = c
            rem = rem - d * GroupAlgebraElement.monomial(delta, c)
        g = GroupAlgebraElement(self.rank, quot)
        return g.shift(tuple(a - b for a, b in zip(shift_n, shift_d)))

    # -- univariate views (rank 1) ------------------------------------------

    def dense1(self) -> tuple[int, list[QLaurent]]:
        """(valuation, ascending QLaurent coefficients); rank must be 1."""
        if self.rank != 1:
            raise ValueError("dense1 requires rank 1")
        if not self._t:
            return 0, []
        lo = min(v[0] for v in self._t)
        hi = max(v[0] for v in self._t)
        return lo, [self.coeff((k,)) for k in range(lo, hi + 1)]

    @classmethod
    def from_dense1(cls, val: int, coeffs: Sequence[QLaurent]) -> "GroupAlgebraElement":
        return cls(1, {(val + i,): c for i, c in enumerate(coeffs) if not c.is_zero()})

    def eval1(self, point: QLaurent) -> QLaurent:
        """Evaluate a rank-1 element at Z = point (point must be a unit)."""
        val, coeffs = self.dense1()
        out = QLaurent.zero()
        for i, c in enumerate(coeffs):
            out = out + c * point ** (val + i)
        return out

    def content(self) -> QLaurent:
        """Monic gcd of all coefficients (zero for the zero element)."""
        return _content(self._t.values())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"terms": [{"exp": list(v), "coeffs": c.to_json()} for v, c in self.terms()]}

    @classmethod
    def from_json(cls, data: Mapping, rank: int | None = None) -> "GroupAlgebraElement":
        terms = {tuple(t["exp"]): QLaurent.from_json(t["coeffs"]) for t in data["terms"]}
        if rank is None:
            if not terms:
                raise ValueError("rank needed for empty element")
            rank = len(next(iter(terms)))
        return cls(rank, terms)


# ---------------------------------------------------------------------------
# Rational functions with canonical forms
# ---------------------------------------------------------------------------

def _check_rank1(*xs: GroupAlgebraElement):
    if any(x.rank != 1 for x in xs):
        raise ValueError("rational functions are rank 1 only")


class RationalFunction:
    """A quotient num/den of rank-1 group-algebra elements, i.e. a rational
    function in one variable ``X`` over Q(u).

    Every value is in the canonical form produced by :func:`rf_normalize`:
    build values with it or with :meth:`from_ga`.  The raw constructor
    keeps the pair it is given, so it takes only pairs that are already
    canonical (as the rank-one ``mu`` and its inverse are by
    construction); ``__hash__`` relies on that.  Equality is decided by
    cross-multiplication, independently of the form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: GroupAlgebraElement, den: GroupAlgebraElement):
        _check_rank1(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_ga(cls, num: GroupAlgebraElement) -> "RationalFunction":
        return rf_normalize(num, GroupAlgebraElement.one(1))

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(GroupAlgebraElement.zero(1), GroupAlgebraElement.one(1))

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(GroupAlgebraElement.one(1), GroupAlgebraElement.one(1))

    @classmethod
    def const(cls, c: QLaurent) -> "RationalFunction":
        return rf_normalize(GroupAlgebraElement.const(1, c), GroupAlgebraElement.one(1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, o: "RationalFunction") -> "RationalFunction":
        return rf_normalize(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "RationalFunction") -> "RationalFunction":
        return self + (-o)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, o: "RationalFunction") -> "RationalFunction":
        return rf_normalize(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RationalFunction") -> "RationalFunction":
        if o.is_zero():
            raise ZeroDivisionError
        return rf_normalize(self.num * o.den, self.den * o.num)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError
        return _fix_units(self.den, self.num)

    def scale(self, c: QLaurent) -> "RationalFunction":
        return rf_normalize(self.num.scale(c), self.den)

    def bar(self) -> "RationalFunction":
        """Substitute X -> X^-1."""
        return _fix_units(self.num.bar(), self.den.bar())

    def __eq__(self, o) -> bool:
        if not isinstance(o, RationalFunction):
            return NotImplemented
        return (self.num * o.den) == (o.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"

    # evaluation helpers used by the rank-one intertwining model

    def eval1(self, point: QLaurent) -> "RationalFunction":
        """Value at X = point (a unit of Q[u,u^-1]) as a constant; pole raises ZeroDivisionError."""
        den = self.den.eval1(point)
        if den.is_zero():
            raise ZeroDivisionError(f"pole at {point}")
        return rf_normalize(GroupAlgebraElement.const(1, self.num.eval1(point)),
                            GroupAlgebraElement.const(1, den))

    def residue1(self, point: QLaurent) -> "RationalFunction":
        """Residue at X = point for a pole of order <= 1 (0 if regular).

        The canonical form shares no factor between numerator and
        denominator; a higher-order pole raises ValueError.
        """
        dval = self.den.eval1(point)
        if not dval.is_zero():
            return RationalFunction.zero()
        val, coeffs = self.den.dense1()
        deriv = GroupAlgebraElement.from_dense1(
            val - 1, [c.scale(val + i) for i, c in enumerate(coeffs)])
        dprime = deriv.eval1(point)
        if dprime.is_zero():
            raise ValueError("pole of order >= 2")
        return rf_normalize(GroupAlgebraElement.const(1, self.num.eval1(point)),
                            GroupAlgebraElement.const(1, dprime))


def _xpoly_primitive(p: list[QLaurent]) -> list[QLaurent]:
    g = _content(p)
    if g.is_zero() or g.is_one():
        return p
    return [c if c.is_zero() else c.exact_div(g) for c in p]


def _xgcd_primitive(a: list[QLaurent], b: list[QLaurent]) -> list[QLaurent]:
    """Gcd in Q[u,u^-1][X] up to units, by a primitive pseudo-remainder
    sequence (ascending dense coefficients)."""

    def trim(p):
        while p and p[-1].is_zero():
            p.pop()
        return p

    a, b = trim(list(a)), trim(list(b))
    if not a:
        return _xpoly_primitive(b)
    if not b:
        return _xpoly_primitive(a)
    a, b = _xpoly_primitive(a), _xpoly_primitive(b)
    while b:
        r = list(a)
        lb = b[-1]
        db = len(b) - 1
        while r and len(r) - 1 >= db:
            lead = r[-1]
            shift = len(r) - 1 - db
            r = [c * lb for c in r]
            for i, bc in enumerate(b):
                r[shift + i] = r[shift + i] - lead * bc
            r = trim(r)
        a, b = b, _xpoly_primitive(trim(r))
    return a


def rf_normalize(num: GroupAlgebraElement, den: GroupAlgebraElement) -> RationalFunction:
    """Canonical form of num/den for rank-1 elements.

    Divide out the full polynomial gcd (primitive pseudo-remainder
    sequence over Q[u,u^-1]), remove joint content, and normalise so the
    denominator has lattice valuation 0 and a monic leading coefficient.
    Elements of any other rank raise ValueError.
    """
    _check_rank1(num, den)
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return RationalFunction.zero()

    g = _xgcd_primitive(num.dense1()[1], den.dense1()[1])
    if len(g) > 1:
        g_ga = GroupAlgebraElement.from_dense1(0, g)
        num = num.exact_div(g_ga)
        den = den.exact_div(g_ga)

    # joint coefficient content
    g = QLaurent.gcd(num.content(), den.content())
    if not g.is_one() and not g.is_zero():
        num = GroupAlgebraElement(1, {v: c.exact_div(g) for v, c in num.terms()})
        den = GroupAlgebraElement(1, {v: c.exact_div(g) for v, c in den.terms()})
    return _fix_units(num, den)


def _fix_units(num: GroupAlgebraElement, den: GroupAlgebraElement) -> RationalFunction:
    """Canonical form of a reduced pair: only its units c u^k X^j are fixed.

    A reduced pair stays reduced under X -> X^-1 and under swapping num
    and den, so ``bar`` and ``inverse`` need only this last step of
    :func:`rf_normalize`.
    """
    # monomial units: denominator lattice valuation 0
    dshift = (-min(v[0] for v, _ in den.terms()),)
    num = num.shift(dshift)
    den = den.shift(dshift)

    # unit normalisation: leading denominator coefficient monic, valuation 0
    _, lead = den.leading()
    unit = QLaurent.u_power(-lead.valuation(), 1 / lead.leading_coeff())
    num = num.scale(unit)
    den = den.scale(unit)
    return RationalFunction(num, den)
