"""Affine Hecke algebras with unequal parameters in normal form.

Elements are kept as ``sum_w Z-part(w) * U_w`` with the lattice part on
the left.  Multiplication pushes lattice monomials through the ``U_s``
generators with the two-case commutation rule

    Z_lam U_s - U_s Z_{s lam} =
        (q_a - 1) (Z_lam - Z_{s lam}) / (1 - Z_{-a})            if a^ not in 2L^
        (q_a - 1 + Z_{-a}((q_a q_i)^(1/2) - (q_a / q_i)^(1/2)))
            * (Z_lam - Z_{s lam}) / (1 - Z_{-2a})               if a^ in 2L^

and contracts ``U_s U_w`` by the quadratic relation
``(U_s + 1)(U_s - q_a) = 0`` when the length drops.  Both quotients are
finite geometric sums, built term by term with no division: with
``beta = a`` (``2a`` in the second case) and ``c = <lam, a^>``
(``<lam, a^>/2``), so that ``s lam = lam - c beta``,
(Z_lam - Z_{lam - c beta}) / (1 - Z_{-beta}) is

    sum_{k=0}^{c-1} Z_{lam - k beta}       if c > 0
    -sum_{k=1}^{-c} Z_{lam + k beta}       if c < 0

(Lusztig, JAMS 2(3), 1989, section 3).

Parameters are carried as exact exponents of ``q``: ``q_a = q^{a(alpha)}``
per simple root and ``q_i = q^{b(i)}`` per type-B component whose short
root has coroot in ``2 Lambda^``.  Each :class:`HeckeParams` builds, once,
a per-simple table of :class:`SimpleCommutation` records: the integer
root and beta, the coroot as integer numerators over one denominator
(coroots are rational when a component is rescaled by t > 1), the special
flag, ``q_a``, ``q_a - 1`` and the left factor of the rule.  The product
reads every per-root value from that table and pairs, reflects and decides
descents on int tuples; no value in the table depends on ``lam``.

The extension by an R-group is a twisted semidirect product:
``J_r h = (r.h) J_r`` and ``J_r J_r' = eta(r, r') J_{r r'}`` for a
2-cocycle eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .laurent import GroupAlgebraElement, QLaurent, _int_vec
from .rootdata import (
    WEYL_ENUM_GUARD,
    BasedRootDatum,
    WeylElement,
    coroot_in_2Lambda,
    matrix_rank,
    pair,
    reduced_word,
    solve_in_span,
)


class InvalidParameters(ValueError):
    """Parameter table violates a structural constraint of the datum."""


def _simple_component(d: BasedRootDatum, i: int) -> int | None:
    """Index of the component whose slots hold simple root i (None if none does)."""
    root = d.simple_roots()[i]
    return next((ci for ci, c in enumerate(d.components)
                 if any(root[s] != 0 for s in c.slots)), None)


def _simple_conjugacy_classes(datum: BasedRootDatum) -> list[list[int]]:
    """Simple-root indices grouped by Weyl conjugacy (per component and length)."""
    classes: dict[tuple, list[int]] = {}
    for i in range(datum.num_simples()):
        root, _ = datum.simple_pairs()[i]
        comp = _simple_component(datum, i)
        length = pair(root, root)
        comp_obj = datum.components[comp] if comp is not None else None
        if comp_obj is not None and comp_obj.letter == "D" and comp_obj.k == 2:
            # degenerate D_2 = A_1 x A_1: the two simple roots are not conjugate
            key = (comp, length, i)
        else:
            key = (comp, length)
        classes.setdefault(key, []).append(i)
    return list(classes.values())


class SimpleCommutation(NamedTuple):
    """What the commutation rule needs of one simple root, in exact ints.

    ``factor`` is the left factor of the rule, ``q_a - 1`` or, for a
    special root, ``(q_a - 1) + Z_{-a}((q_a q_i)^(1/2) - (q_a / q_i)^(1/2))``,
    and ``neg_factor`` its negative; both are zero when every coefficient
    vanishes (``a(alpha) = 0``, and ``b(i) = 0`` for a special root).
    """

    root: tuple[int, ...]             # alpha_i
    beta: tuple[int, ...]             # alpha_i, or 2 alpha_i for a special root
    coroot: tuple[int, ...]           # numerators of alpha_i^ ...
    coroot_den: int                   # ... over this common denominator
    special: bool                     # alpha_i^ in 2 Lambda^
    q_alpha: QLaurent
    q_alpha_minus_1: QLaurent
    qi: Fraction | None               # b(i) of the component, for a special root
    factor: GroupAlgebraElement
    neg_factor: GroupAlgebraElement


@dataclass(frozen=True)
class HeckeParams:
    """Exact q-exponents: a(alpha) per simple root, b(i) per type-B component.

    ``alpha_exp[i]`` is the exponent of ``q_alpha`` for the i-th simple
    root (base order); ``qi_exp`` holds the (ci, exponent of ``q_i``) pairs,
    sorted by component ci, and construction accepts them as a mapping too.
    Validation enforces conjugation-invariance of ``alpha_exp``, that
    ``q_i`` is present exactly for components whose special simple root has
    coroot in 2 Lambda^, and that the square roots occurring in the
    commutation rule stay inside quarter-integer powers of q.

    Construction also builds the per-simple table ``simples``: one
    :class:`SimpleCommutation` per simple root, in base order, holding the
    integer root and coroot, the special flag, ``q_alpha``, ``q_i`` and the
    factor of the commutation rule.  :meth:`q_alpha` reads from it.  Nothing
    in it depends on a lattice vector.
    """

    datum: BasedRootDatum
    alpha_exp: tuple[Fraction, ...]
    qi_exp: tuple[tuple[int, Fraction], ...] = ()
    # built once in __post_init__ from the fields above, never written again
    simples: tuple[SimpleCommutation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.datum
        if len(self.alpha_exp) != d.num_simples():
            raise InvalidParameters("need one exponent per simple root")
        object.__setattr__(self, "alpha_exp", tuple(Fraction(a) for a in self.alpha_exp))
        qi_exp = {ci: Fraction(b) for ci, b in dict(self.qi_exp).items()}
        object.__setattr__(self, "qi_exp", tuple(sorted(qi_exp.items())))
        for cls in _simple_conjugacy_classes(d):
            vals = {self.alpha_exp[i] for i in cls}
            if len(vals) > 1:
                raise InvalidParameters("conjugate simple roots carry unequal exponents")
        flags = [coroot_in_2Lambda(coroot) for _, coroot in d.simple_pairs()]
        # component index -> simple index of its 2Lambda^ special root
        special = {_simple_component(d, i): i for i, f in enumerate(flags) if f}
        for ci in qi_exp:
            if ci not in special:
                raise InvalidParameters(f"component {ci} admits no q_i parameter")
        for ci in special:
            if ci not in qi_exp:
                raise InvalidParameters(f"component {ci} requires a q_i parameter")
        for ci, si in special.items():
            a = self.alpha_exp[si]
            b = qi_exp[ci]
            for e in ((a + b) / 2, (a - b) / 2):
                if (4 * e).denominator != 1:
                    raise InvalidParameters(
                        f"(a(alpha) +- b(i))/2 = {e} is not a quarter-integer")
        qi = {si: qi_exp[ci] for ci, si in special.items()}
        object.__setattr__(self, "simples", tuple(
            self._simple_commutation(i, flags[i], qi.get(i)) for i in range(d.num_simples())))

    def _simple_commutation(self, i: int, special: bool, qi: Fraction | None) -> SimpleCommutation:
        d = self.datum
        root = d.simple_roots()[i]
        coroot = d.simple_pairs()[i][1]
        den = lcm(*(x.denominator for x in coroot))
        qa = QLaurent.q_power(self.alpha_exp[i])
        qa_minus_1 = qa - QLaurent.one()
        factor = GroupAlgebraElement.const(d.rank, qa_minus_1)
        if special:
            a = self.alpha_exp[i]
            factor = factor + GroupAlgebraElement.monomial(
                tuple(-x for x in root), QLaurent.q_power((a + qi) / 2) - QLaurent.q_power((a - qi) / 2))
        return SimpleCommutation(
            root=root,
            beta=tuple(2 * x for x in root) if special else root,
            coroot=tuple(x.numerator * (den // x.denominator) for x in coroot),
            coroot_den=den,
            special=special,
            q_alpha=qa,
            q_alpha_minus_1=qa_minus_1,
            qi=qi,
            factor=factor,
            neg_factor=-factor,
        )

    def q_alpha(self, i: int) -> QLaurent:
        return self.simples[i].q_alpha


# ---------------------------------------------------------------------------
# The commutation rule
# ---------------------------------------------------------------------------

def commute_zu_ga(lam: Sequence[int], i: int, d: BasedRootDatum, p: HeckeParams) -> GroupAlgebraElement:
    """The lattice-part correction Z_lam U_s - U_s Z_{s lam} for s = s_i.

    The quotient is built as the geometric sum of the module docstring,
    with the left factor of the rule already multiplied into each term:
    factor * Z_v has the terms c Z_{v + mu} for each c Z_mu of the factor.
    """
    rec = p.simples[i]
    # lam may hold Fractions: pair it exactly, and make it an int vector only after
    n = sum(x * y for x, y in zip(lam, rec.coroot))
    if n % rec.coroot_den:
        raise ValueError(f"{lam} pairs non-integrally with the coroot of simple {i}")
    n //= rec.coroot_den
    if not n:
        return GroupAlgebraElement._trusted(d.rank, {})
    if rec.special:
        if n % 2:
            raise ValueError("coroot in 2 Lambda^ forces even pairings; malformed lattice vector")
        n //= 2
    lam = _int_vec(lam)
    beta = rec.beta
    ks = range(n) if n > 0 else range(n, 0)
    t: dict[tuple[int, ...], QLaurent] = {}
    # the factor's shifts, 0 and -alpha, differ mod beta = 2 alpha: no keys collide
    for mu, c in (rec.factor if n > 0 else rec.neg_factor)._t.items():
        v = tuple(x + y for x, y in zip(lam, mu))
        for k in ks:
            t[tuple(x - k * y for x, y in zip(v, beta))] = c
    return GroupAlgebraElement._trusted(d.rank, t)


# ---------------------------------------------------------------------------
# Hecke elements
# ---------------------------------------------------------------------------

class HeckeElement:
    """Normal-form element ``sum_w b_w U_w`` with b_w in the lattice algebra.

    The algebra is ``params``; ``datum`` is ``params.datum``, and a
    constructor given another datum raises ValueError.
    """

    __slots__ = ("params", "_t")

    def __init__(self, datum: BasedRootDatum, params: HeckeParams,
                 terms: Mapping[WeylElement, GroupAlgebraElement] | None = None):
        if datum is not params.datum and datum != params.datum:
            raise ValueError("datum mismatch: the parameters were validated on another datum")
        t = {w: b for w, b in terms.items() if not b.is_zero()} if terms else {}
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_t", t)

    @property
    def datum(self) -> BasedRootDatum:
        return self.params.datum

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("HeckeElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, d, p) -> "HeckeElement":
        return cls(d, p)

    @classmethod
    def one(cls, d, p) -> "HeckeElement":
        return cls(d, p, {WeylElement.identity(d.rank): GroupAlgebraElement.one(d.rank)})

    @classmethod
    def from_z(cls, d, p, lam: Sequence[int], coeff: QLaurent | None = None) -> "HeckeElement":
        ga = GroupAlgebraElement.monomial(lam, coeff or QLaurent.one())
        return cls(d, p, {WeylElement.identity(d.rank): ga})

    @classmethod
    def from_u(cls, d, p, w: WeylElement, coeff: GroupAlgebraElement | None = None) -> "HeckeElement":
        return cls(d, p, {w: coeff or GroupAlgebraElement.one(d.rank)})

    @classmethod
    def u_simple(cls, d, p, i: int) -> "HeckeElement":
        return cls.from_u(d, p, d.simple_reflection(i))

    # -- structure ----------------------------------------------------------

    def terms(self) -> list[tuple[WeylElement, GroupAlgebraElement]]:
        return sorted(self._t.items(), key=lambda kv: (kv[0].perm, kv[0].signs))

    def is_zero(self) -> bool:
        return not self._t

    def _check(self, o: "HeckeElement"):
        if self.params is not o.params and self.params != o.params:
            raise ValueError("datum mismatch" if self.datum != o.datum else "parameter mismatch")

    def __add__(self, o: "HeckeElement") -> "HeckeElement":
        self._check(o)
        t = dict(self._t)
        for w, b in o._t.items():
            t[w] = t.get(w, GroupAlgebraElement.zero(self.datum.rank)) + b
        return HeckeElement(self.datum, self.params, t)

    def __sub__(self, o: "HeckeElement") -> "HeckeElement":
        return self + (-o)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.datum, self.params, {w: -b for w, b in self._t.items()})

    def scale(self, c: QLaurent) -> "HeckeElement":
        return HeckeElement(self.datum, self.params, {w: b.scale(c) for w, b in self._t.items()})

    def ga_mul_left(self, b: GroupAlgebraElement) -> "HeckeElement":
        return HeckeElement(self.datum, self.params, {w: b * c for w, c in self._t.items()})

    def __eq__(self, o) -> bool:
        return (isinstance(o, HeckeElement)
                and (self.params is o.params or self.params == o.params)
                and self._t == o._t)

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __repr__(self):
        if not self._t:
            return "He(0)"
        return "He(" + " + ".join(f"[{b!r}]U{w.perm, w.signs}" for w, b in self.terms()) + ")"

    def __mul__(self, o: "HeckeElement") -> "HeckeElement":
        return he_mul(self, o)


def _u_simple_times(i: int, z: HeckeElement) -> HeckeElement:
    """Left multiplication U_{s_i} * z, renormalised."""
    d, p = z.datum, z.params
    rec = p.simples[i]
    s = d.simple_reflection(i)
    act = s.act
    alpha = rec.root
    rank = d.rank
    out: dict[WeylElement, GroupAlgebraElement] = {}

    def add(w, b):
        out[w] = out[w] + b if w in out else b

    for v, c in z._t.items():
        sc = GroupAlgebraElement._trusted(rank, {act(mu): x for mu, x in c._t.items()})
        # minus the sum of coeff * (Z_{s mu} U_s - U_s Z_mu), gathered in one dict
        corr: dict[tuple[int, ...], QLaurent] = {}
        for mu, coeff in c._t.items():
            neg = -coeff
            for vec, x in commute_zu_ga(act(mu), i, d, p)._t.items():
                y = x * neg
                acc = corr.get(vec)
                corr[vec] = y if acc is None else acc + y
        sv = s * v
        # l(s_i v) > l(v) exactly when v^-1(alpha_i) is a positive root;
        # v^-1 sends x to (signs[j] * x[perm[j]])_j
        if d.root_sign(tuple(sg * alpha[pj] for pj, sg in zip(v.perm, v.signs))) == 1:
            add(sv, sc)
        else:
            add(v, sc.scale(rec.q_alpha_minus_1))
            add(sv, sc.scale(rec.q_alpha))
        corr = {vec: x for vec, x in corr.items() if not x.is_zero()}
        if corr:
            add(v, GroupAlgebraElement._trusted(rank, corr))
    return HeckeElement(d, p, out)


def he_mul(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Product in normal form (lattice parts pushed to the left)."""
    x._check(y)
    d, p = x.datum, x.params
    out = HeckeElement.zero(d, p)
    for w, b in x._t.items():
        word = reduced_word(w, d)
        acc = y
        for letter in reversed(word):
            acc = _u_simple_times(letter, acc)
        out = out + acc.ga_mul_left(b)
    return out


def is_central(x: HeckeElement) -> bool:
    """Whether x commutes with every U_{s_i} and every Z_{e_j} generator."""
    d, p = x.datum, x.params
    if d.weyl_order() > WEYL_ENUM_GUARD:
        raise ValueError("Weyl group exceeds the enumeration guard")
    for i in range(d.num_simples()):
        u = HeckeElement.u_simple(d, p, i)
        if he_mul(x, u) != he_mul(u, x):
            return False
    for j in range(d.rank):
        e = [0] * d.rank
        e[j] = 1
        z = HeckeElement.from_z(d, p, e)
        if he_mul(x, z) != he_mul(z, x):
            return False
    return True


# ---------------------------------------------------------------------------
# Extension by the R-group
# ---------------------------------------------------------------------------

class Cocycle:
    """A 2-cocycle on a finite group of signed permutations, values in Q^x."""

    def __init__(self, group: Sequence[WeylElement], table: Mapping[tuple[WeylElement, WeylElement], Fraction] | None = None):
        self.group = tuple(group)
        if table is None:
            table = {(r, rp): Fraction(1) for r in group for rp in group}
        self.table = {k: Fraction(v) for k, v in table.items()}
        for r in self.group:
            for rp in self.group:
                if (r, rp) not in self.table:
                    raise ValueError("cocycle table is incomplete")
                if self.table[(r, rp)] == 0:
                    raise ValueError("cocycle values must be nonzero")
        for r in self.group:
            for rp in self.group:
                for rpp in self.group:
                    lhs = self.table[(r, rp)] * self.table[(r * rp, rpp)]
                    rhs = self.table[(rp, rpp)] * self.table[(r, rp * rpp)]
                    if lhs != rhs:
                        raise ValueError("2-cocycle identity fails")

    def __call__(self, r: WeylElement, rp: WeylElement) -> Fraction:
        return self.table[(r, rp)]

    def __eq__(self, o):
        return isinstance(o, Cocycle) and set(self.group) == set(o.group) and self.table == o.table


class ExtendedHeckeElement:
    """Element ``sum_r h_r J_r`` of the twisted semidirect product.

    As for :class:`HeckeElement`, ``datum`` is ``params.datum``.
    """

    __slots__ = ("params", "cocycle", "_t")

    def __init__(self, datum: BasedRootDatum, params: HeckeParams, cocycle: Cocycle,
                 terms: Mapping[WeylElement, HeckeElement] | None = None):
        if datum is not params.datum and datum != params.datum:
            raise ValueError("datum mismatch: the parameters were validated on another datum")
        for r in cocycle.group:
            for root, _ in datum.pos_roots:
                if datum.root_sign(r.act(root)) != 1:
                    raise ValueError(
                        "R-group element does not preserve the positive roots")
        terms = terms or {}
        if any(r not in cocycle.group for r in terms):
            raise ValueError("term index outside the stored R-group")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "cocycle", cocycle)
        for h in terms.values():
            h._check(self)   # every term lies in this algebra; _check reads .params
        object.__setattr__(self, "_t", {r: h for r, h in terms.items() if not h.is_zero()})

    @property
    def datum(self) -> BasedRootDatum:
        return self.params.datum

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ExtendedHeckeElement is immutable")

    @classmethod
    def from_hecke(cls, h: HeckeElement, cocycle: Cocycle) -> "ExtendedHeckeElement":
        e = WeylElement.identity(h.datum.rank)
        return cls(h.datum, h.params, cocycle, {e: h})

    @classmethod
    def j_r(cls, d, p, cocycle: Cocycle, r: WeylElement) -> "ExtendedHeckeElement":
        return cls(d, p, cocycle, {r: HeckeElement.one(d, p)})

    def terms(self):
        return sorted(self._t.items(), key=lambda kv: (kv[0].perm, kv[0].signs))

    def is_zero(self):
        return not self._t

    def __eq__(self, o):
        return (isinstance(o, ExtendedHeckeElement)
                and (self.params is o.params or self.params == o.params)
                and self.cocycle == o.cocycle and self._t == o._t)

    def __add__(self, o):
        self._compat(o)
        t = dict(self._t)
        for r, h in o._t.items():
            t[r] = t.get(r, HeckeElement.zero(self.datum, self.params)) + h
        return ExtendedHeckeElement(self.datum, self.params, self.cocycle, t)

    def __neg__(self):
        return ExtendedHeckeElement(self.datum, self.params, self.cocycle,
                                    {r: -h for r, h in self._t.items()})

    def __sub__(self, o):
        return self + (-o)

    def _compat(self, o: "ExtendedHeckeElement"):
        if (self.params is not o.params and self.params != o.params) or self.cocycle != o.cocycle:
            raise ValueError("incompatible extended algebra data")

    def __repr__(self):
        return "ExtHe(" + " + ".join(f"[{h!r}]J{r.perm, r.signs}" for r, h in self.terms()) + ")"


def twist_hecke(r: WeylElement, h: HeckeElement) -> HeckeElement:
    """Conjugation action of an R-group element: U_w -> U_{r w r^-1}, Z_lam -> Z_{r lam}."""
    rinv = r.inverse()
    t = {}
    for w, b in h._t.items():
        t[r * w * rinv] = b.apply_lattice_map(r.act)
    return HeckeElement(h.datum, h.params, t)


def ext_mul(x: ExtendedHeckeElement, y: ExtendedHeckeElement) -> ExtendedHeckeElement:
    """Product with J_r h = (r.h) J_r and J_r J_r' = eta(r, r') J_{r r'}."""
    x._compat(y)
    out = ExtendedHeckeElement(x.datum, x.params, x.cocycle)
    for r, h in x._t.items():
        for rp, hp in y._t.items():
            eta = x.cocycle(r, rp)
            prod = he_mul(h, twist_hecke(r, hp)).scale(QLaurent.const(eta))
            out = out + ExtendedHeckeElement(x.datum, x.params, x.cocycle, {r * rp: prod})
    return out


# ---------------------------------------------------------------------------
# Module exponents: tempered / square-integrable chamber criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentChar:
    """A monomial character lam -> zeta(lam) q^<lam, nu>.

    ``zeta`` is a root-of-unity tag (any hashable label; always unitary)
    and ``nu`` a rational vector.  The real part used by the chamber
    criteria is the vector -nu.
    """

    zeta: str
    nu: tuple[Fraction, ...]

    def real_part(self) -> tuple[Fraction, ...]:
        return tuple(-x for x in self.nu)


def tempered_check(exponents: Sequence[ExponentChar], d: BasedRootDatum) -> bool:
    """Real parts lie in the closed negative obtuse chamber spanned by the simple coroots."""
    covecs = [tuple(c) for _, c in d.simple_pairs()]
    for e in exponents:
        coeffs = solve_in_span(covecs, e.real_part())
        if coeffs is None or any(c > 0 for c in coeffs):
            return False
    return True


def sqint_check(exponents: Sequence[ExponentChar], central: Sequence[Sequence[int]],
                d: BasedRootDatum) -> bool:
    """Square-integrability modulo the central sublattice generated by ``central``.

    Requires: central generators together with the simple roots span a
    finite-index submodule of the lattice; every real part is a strictly
    negative combination of the simple coroots; and the characters are
    unitary on the central sublattice (nu orthogonal to it).
    """
    roots = [tuple(r) for r, _ in d.simple_pairs()]
    gens = [tuple(Fraction(x) for x in z) for z in central] + roots
    if d.rank > 0 and matrix_rank(gens) != d.rank:
        return False
    covecs = [tuple(c) for _, c in d.simple_pairs()]
    for e in exponents:
        coeffs = solve_in_span(covecs, e.real_part())
        if coeffs is None or any(c >= 0 for c in coeffs):
            return False
        for z in central:
            if pair(z, e.nu) != 0:
                return False
    return True

