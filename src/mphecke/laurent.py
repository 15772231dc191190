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
  are its constants; there is no separate fraction class.  Products and
  sums of canonical values reach the canonical form by Henrici's
  cross-cancellation; :func:`rf_normalize` (the full gcd) is only for raw
  pairs.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
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

    Stored sparsely as integer numerators ``{k: n_k}``, none zero, over one
    shared denominator ``d``: ``c_k = n_k / d``.  The form is canonical --
    ``d > 0``, ``gcd(d, n_k...) = 1`` and zero is ``({}, 1)`` -- so equality
    compares the two fields.  The ring operations run on ints and take a
    gcd only when a result's denominator is not 1; ``Fraction`` appears
    only at the boundary (the constructor, :meth:`items`, :meth:`coeff`,
    :meth:`leading_coeff`, JSON and ``str``).  ``q`` means ``u**4``
    throughout; use :meth:`q_power` to build ``q**e`` for a rational ``e``
    with ``4*e`` integral.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _as_fraction(v)
                if v:
                    c[int(k)] = c.get(int(k), Fraction(0)) + v
                    if not c[int(k)]:
                        del c[int(k)]
        # the lcm of reduced denominators is already coprime to the numerators
        d = lcm(*(v.denominator for v in c.values()))
        object.__setattr__(self, "_c", {k: v.numerator * (d // v.denominator) for k, v in c.items()})
        object.__setattr__(self, "_d", d)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("QLaurent is immutable")

    @classmethod
    def _trusted(cls, c: dict[int, int], d: int = 1) -> "QLaurent":
        """Wrap ``c`` over ``d`` as they are: the canonical form above.

        For the ring operations, whose results already have that form;
        the public constructor coerces and merges its input instead.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "_c", c)
        object.__setattr__(out, "_d", d)
        return out

    @classmethod
    def _reduced(cls, c: dict[int, int], d: int) -> "QLaurent":
        """The canonical form of ``c / d``: ``c`` has no zero value, ``d > 0``."""
        if not c:
            return cls._trusted(c)
        if d != 1:
            g = gcd(d, *c.values())
            if g != 1:
                d //= g
                c = {k: v // g for k, v in c.items()}
        return cls._trusted(c, d)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "QLaurent":
        return cls._trusted({0: 1})

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
        if 4 % e.denominator:
            raise ValueError(f"exponent {e} is not a quarter-integer power of q")
        return cls._trusted({e.numerator * (4 // e.denominator): 1})

    # -- structure ----------------------------------------------------------

    def items(self) -> list[tuple[int, Fraction]]:
        d = self._d
        return [(k, Fraction(n, d)) for k, n in sorted(self._c.items())]

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._d == 1 and self._c == {0: 1}

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def degree(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no degree")
        return max(self._c)

    def leading_coeff(self) -> Fraction:
        return Fraction(self._c[self.degree()], self._d)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._c.get(k, 0), self._d)

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QLaurent") -> "QLaurent":
        d, d2 = self._d, other._d
        if d == d2:
            c = dict(self._c)
            for k, v in other._c.items():
                c[k] = c[k] + v if k in c else v
        else:
            d = lcm(d, d2)
            m1, m2 = d // self._d, d // d2
            c = {k: v * m1 for k, v in self._c.items()}
            for k, v in other._c.items():
                c[k] = c[k] + v * m2 if k in c else v * m2
        c = {k: v for k, v in c.items() if v}
        # the all-integer path skips the gcd and the extra call
        return QLaurent._trusted(c) if d == 1 else QLaurent._reduced(c, d)

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return self + (-other)

    def __neg__(self) -> "QLaurent":
        return QLaurent._trusted({k: -v for k, v in self._c.items()}, self._d)

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        c: dict[int, int] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                s = c.get(k)
                c[k] = v1 * v2 if s is None else s + v1 * v2
        c = {k: v for k, v in c.items() if v}
        d = self._d * other._d
        return QLaurent._trusted(c) if d == 1 else QLaurent._reduced(c, d)

    def scale(self, x) -> "QLaurent":
        x = _as_fraction(x)
        if not x:
            return QLaurent.zero()
        n = x.numerator
        return QLaurent._reduced({k: v * n for k, v in self._c.items()}, self._d * x.denominator)

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            if not self.is_monomial():
                raise NotDivisible("negative power of a non-monomial")
            k = self.valuation()
            c = self.coeff(k)
            base = QLaurent({-k: 1 / c})
            return base ** (-n)
        out = QLaurent.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, QLaurent) and self._d == other._d and self._c == other._c

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

    def _primitive(self) -> list[int]:
        """Ascending primitive integer coefficients of a nonzero element, up to u^k."""
        c = self._c
        g = gcd(*c.values())
        v, top = min(c), max(c)
        return [c.get(k, 0) // g for k in range(v, top + 1)]

    def exact_div(self, den: "QLaurent") -> "QLaurent":
        """Exact quotient in Q[u, u^-1]; raises :class:`NotDivisible`.

        Divides the integer numerators of ``self`` by the primitive part P
        of the numerators of ``den``.  By Gauss's lemma, P divides them
        over Q only if it does over Z, so every step of the long division
        is an exact integer one; the content of ``den`` and the two
        denominators are put back at the end.
        """
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_zero():
            return QLaurent.zero()
        c = self._c
        nv = min(c)
        num = [c.get(k, 0) for k in range(nv, max(c) + 1)]
        p = den._primitive()
        dd, lead = len(p) - 1, p[-1]
        q = [0] * max(len(num) - dd, 0)
        for i in range(len(num) - 1 - dd, -1, -1):
            x, r = divmod(num[i + dd], lead)
            if r:
                break
            if x:
                q[i] = x
                for j, y in enumerate(p):
                    num[i + j] -= x * y
        if any(num):
            raise NotDivisible(f"({self}) is not divisible by ({den})")
        # self / den = (num / d) / (g P / den_d) = (num / P) * den_d / (d g)
        dv, g, m = min(den._c), gcd(*den._c.values()), den._d
        return QLaurent._reduced({nv - dv + i: x * m for i, x in enumerate(q) if x}, self._d * g)

    @staticmethod
    def gcd(a: "QLaurent", b: "QLaurent") -> "QLaurent":
        """Monic gcd in Q[u, u^-1], normalised to valuation 0.

        Units (nonzero rational multiples of powers of u) are quotiented
        out, so gcd(x, y) of two nonzero monomials is 1.  Computed by a
        primitive pseudo-remainder sequence over Z on the numerators.
        """
        if a.is_zero() and b.is_zero():
            return QLaurent.zero()
        if a.is_zero():
            return QLaurent.gcd(b, a)
        g = a._primitive()
        if not b.is_zero():
            g = _prs(g, b._primitive(), 0, _int_primitive)
        # g is primitive, so dividing by its leading coefficient leaves it canonical
        lead = g[-1]
        if lead < 0:
            g = [-c for c in g]
        return QLaurent._trusted({i: c for i, c in enumerate(g) if c}, abs(lead))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list:
        return [[k, v.numerator, v.denominator] for k, v in self.items()]

    @classmethod
    def from_json(cls, data: Iterable) -> "QLaurent":
        return cls({int(k): Fraction(int(n), int(d)) for k, n, d in data})


def _int_normalize(coeffs: Sequence[Fraction]) -> list[int]:
    """Clear the denominators of a Fraction list."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs]


def _int_primitive(p: list[int]) -> list[int]:
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prs(a: list, b: list, zero, primitive) -> list:
    """Gcd by a primitive pseudo-remainder sequence (Brown, JACM 18(4), 1971).

    ``a`` and ``b`` are ascending coefficient lists over a ring with
    ``zero``; ``primitive`` divides a list by its content.  Over Z
    (:func:`_int_primitive`) the result is primitive; over Q[u,u^-1]
    (:func:`_xpoly_primitive`) it is the gcd in Q[u,u^-1][X] up to units.
    """

    def trim(p):
        while p and p[-1] == zero:
            p.pop()
        return p

    a, b = primitive(trim(list(a))), primitive(trim(list(b)))
    while b:
        # pseudo-remainder of a by b, re-primitivised each step
        r = a
        lb = b[-1]
        db = len(b) - 1
        while len(r) > db:
            lead = r[-1]
            shift = len(r) - 1 - db
            r = [c * lb for c in r]
            for i, bc in enumerate(b):
                r[shift + i] = r[shift + i] - lead * bc
            r = trim(r)
        a, b = b, primitive(r)
    return a


def _content(coeffs: Iterable[QLaurent]) -> QLaurent:
    """Monic gcd of the nonzero coefficients (zero if there are none)."""
    g = QLaurent.zero()
    for c in coeffs:
        if not c.is_zero():
            g = QLaurent.gcd(g, c)
            if g.is_one():
                break
    return g


def _xpoly_primitive(p: list[QLaurent]) -> list[QLaurent]:
    g = _content(p)
    if g.is_zero() or g.is_one():
        return p
    return [c if c.is_zero() else c.exact_div(g) for c in p]


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

    @classmethod
    def _trusted(cls, rank: int, t: dict[tuple[int, ...], QLaurent]) -> "GroupAlgebraElement":
        """Wrap ``t`` as it is: int-tuple keys of length ``rank``, nonzero values.

        For the ring operations, whose results already have that form;
        the public constructor coerces and merges its input instead.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "rank", rank)
        object.__setattr__(out, "_t", t)
        return out

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
            t[vec] = t[vec] + c if vec in t else c
        return GroupAlgebraElement._trusted(self.rank, {v: c for v, c in t.items() if not c.is_zero()})

    def __sub__(self, o: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-o)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement._trusted(self.rank, {v: -c for v, c in self._t.items()})

    def __mul__(self, o: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(o)
        t: dict[tuple[int, ...], QLaurent] = {}
        for v1, c1 in self._t.items():
            for v2, c2 in o._t.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                p = c1 * c2
                acc = t.get(v)
                t[v] = p if acc is None else acc + p
        return GroupAlgebraElement._trusted(self.rank, {v: c for v, c in t.items() if not c.is_zero()})

    def scale(self, c: QLaurent) -> "GroupAlgebraElement":
        if c.is_zero():
            return GroupAlgebraElement.zero(self.rank)
        return GroupAlgebraElement._trusted(self.rank, {v: x * c for v, x in self._t.items()})

    def bar(self) -> "GroupAlgebraElement":
        """Substitute every lattice monomial by its inverse, Z_lam -> Z_{-lam}."""
        return GroupAlgebraElement._trusted(self.rank, {tuple(-x for x in v): c for v, c in self._t.items()})

    def apply_lattice_map(self, f) -> "GroupAlgebraElement":
        """Push exponents through an injective lattice map ``f``."""
        return GroupAlgebraElement._trusted(self.rank, {tuple(int(x) for x in f(v)): c for v, c in self._t.items()})

    def shift(self, vec: Sequence[int]) -> "GroupAlgebraElement":
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.rank:
            raise ValueError(f"shift {vec} has length != rank {self.rank}")
        return GroupAlgebraElement._trusted(self.rank, {tuple(a + b for a, b in zip(v, vec)): c
                                                        for v, c in self._t.items()})

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
        remainder raises :class:`NotDivisible`.  The library divides only
        rank-1 elements, by a factor known to divide them (the gcds of
        :func:`_reduce` and :meth:`RationalFunction.__add__`), so there a
        remainder signals a caller error.
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
        return cls._trusted(1, {(val + i,): c for i, c in enumerate(coeffs) if not c.is_zero()})

    def eval1(self, point: QLaurent) -> QLaurent:
        """Evaluate a rank-1 element at Z = point (point must be a unit)."""
        val, coeffs = self.dense1()
        out = QLaurent.zero()
        for i, c in enumerate(coeffs):
            out = out + c * point ** (val + i)
        return out

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
    build values from raw pairs with it or with :meth:`from_ga`.  The raw
    constructor keeps the pair it is given, so it takes only pairs that
    are already canonical (as the rank-one ``mu`` and its inverse are by
    construction); ``==`` and ``__hash__`` rely on that and compare the
    pairs.

    The operators never normalise a raw cross pair.  Their operands are
    reduced, so ``*`` cancels each numerator only against the other
    denominator and ``+`` reduces its new numerator only against the gcd
    of the two denominators (Henrici, JACM 3(1), 1956; Knuth, TAOCP
    vol. 2, 4.5.1).  Q[u^+-1][X^+-1] is a UFD, so any reduced pair is the
    canonical one up to a unit c u^k X^j, which :func:`_fix_units` fixes:
    the result is the pair that :func:`rf_normalize` gives.
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
        # Henrici: with g = gcd(d1, d2) and the cofactors e1 = d1/g and
        # e2 = d2/g, the sum is t / (e1 e2 g) for t = n1 e2 + n2 e1.  t is
        # coprime to e1 and e2, so only its gcd with g = d1/e1 is left.
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.den == o.den:
            t = self.num + o.num
            return RationalFunction.zero() if t.is_zero() else _fix_units(*_reduce(t, self.den))
        e1, e2 = _reduce(self.den, o.den)
        t = self.num * e2 + o.num * e1
        if t.is_zero():
            return RationalFunction.zero()
        t, g = _reduce(t, self.den.exact_div(e1))
        return _fix_units(t, e1 * e2 * g)

    def __sub__(self, o: "RationalFunction") -> "RationalFunction":
        return self + (-o)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, o: "RationalFunction") -> "RationalFunction":
        if self.is_zero() or o.is_zero():
            return RationalFunction.zero()
        n1, d2 = _reduce(self.num, o.den)
        n2, d1 = _reduce(o.num, self.den)
        return _fix_units(n1 * n2, d1 * d2)

    def __truediv__(self, o: "RationalFunction") -> "RationalFunction":
        return self * o.inverse()

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
        return self.num == o.num and self.den == o.den

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


_POINT = Fraction(13, 7)


def _coprime_at_a_point(a: list[QLaurent], b: list[QLaurent]) -> bool:
    """True if u = 13/7 shows that a and b (ascending X-coefficients) have no common X-factor.

    Let g be their gcd in Q[u,u^-1][X] and u0 = 13/7.  Where the leading
    coefficient of a does not vanish at u0, neither does that of g, so
    g(u0) keeps the degree of g and divides a(u0) and b(u0) in Q[X].  A
    constant gcd of the two specialisations therefore proves deg g = 0.
    False proves nothing.
    """
    pa = [sum((v * _POINT ** k for k, v in c.items()), Fraction(0)) for c in a]
    if not pa[-1]:
        return False
    pb = [sum((v * _POINT ** k for k, v in c.items()), Fraction(0)) for c in b]
    if not any(pb):
        return False
    return len(_prs(_int_normalize(pa), _int_normalize(pb), 0, _int_primitive)) == 1


def rf_normalize(num: GroupAlgebraElement, den: GroupAlgebraElement) -> RationalFunction:
    """Canonical form of a raw pair num/den of rank-1 elements.

    Divide out the full gcd (:func:`_reduce`) and normalise the units so
    the denominator has lattice valuation 0 and a monic leading
    coefficient.  Elements of any other rank raise ValueError.  The
    arithmetic of :class:`RationalFunction` does not come through here:
    it cancels only where its canonical operands can share factors.
    """
    _check_rank1(num, den)
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return RationalFunction.zero()
    return _fix_units(*_reduce(num, den))


def _reduce(a: GroupAlgebraElement, b: GroupAlgebraElement) -> tuple[GroupAlgebraElement, GroupAlgebraElement]:
    """``(a/g, b/g)`` for the full gcd g of two nonzero rank-1 elements.

    g is the gcd of the X-parts (primitive pseudo-remainder sequence over
    Q[u,u^-1]) times the joint content.  A side with a single term
    c X^j, c in Q[u,u^-1], has no X-factor, so only the content can be
    shared and the sequence is skipped; so it is when one point u0 shows
    that the X-parts are coprime.
    """
    if len(a._t) > 1 and len(b._t) > 1:
        da, db = a.dense1()[1], b.dense1()[1]
        g = [] if _coprime_at_a_point(da, db) else _prs(da, db, QLaurent.zero(), _xpoly_primitive)
        if len(g) > 1:
            g_ga = GroupAlgebraElement.from_dense1(0, g)
            a, b = a.exact_div(g_ga), b.exact_div(g_ga)
    g = _content(chain(b._t.values(), a._t.values()))
    if not g.is_one():
        a = GroupAlgebraElement._trusted(1, {v: c.exact_div(g) for v, c in a._t.items()})
        b = GroupAlgebraElement._trusted(1, {v: c.exact_div(g) for v, c in b._t.items()})
    return a, b


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
