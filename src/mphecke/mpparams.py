"""Parameter calculus for metaplectic Bernstein blocks.

Inertial classes of Weil-group representations are abstract records: a
dimension d, the order t of the unramified stabiliser, self-duality, and
two type flags (whether the base point, and the other self-dual twist,
factor through the relevant classical type).  A normed parameter is a
multiplicity assignment to such classes with total dimension 2n.

From one normed parameter the module enumerates every Bernstein block:
the anchor choices S (per self-dual class a pair (a+, a-) with a
GL-multiplicity balancing the size-parity identity), the alternating
characters of the component group of the anchor parameter, the emitted
extended Hecke presentation per class, the matched classical group, and
the partition of all blocks by the central sign into the plus and minus
special orthogonal towers.

Size-parity identity.  With kappa = 1 for a type-carrying member and 0
otherwise, member (a, kappa) contributes sum_{k=1..a}(2k - kappa), i.e.
a(a+1) or a^2; a choice (a+, a-, m_gl) is admissible iff

    m - 2 m_gl = contrib(a+, kappa) + contrib(a-, kappa_minus).

Emitted parameters.  A self-dual class with at least one non-type member
or a nonempty anchor occurrence yields the odd-orthogonal datum of size
m - m_O + 1 with long exponents t, special exponent
t*(a+ + a- + 1 - (kappa + kappa_-)/2) and companion exponent
|t*(a+ - a- + (kappa_- - kappa)/2)|; both-type classes with empty anchor
occurrence give the even-orthogonal datum of size m with equal exponents
t extended by the outer involution; non-self-dual classes give the
GL_m datum with equal exponents t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Mapping

from .jsonio import check_field_types, frac_to_json


class ParameterError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Inertial classes and normed parameters
# ---------------------------------------------------------------------------

_CLASS_FIELDS = (("label", str), ("d", int), ("t", int), ("self_dual", bool),
                 ("type_plus", bool), ("type_minus", bool))


@dataclass(frozen=True)
class InertialClass:
    label: str
    d: int = 1
    t: int = 1
    self_dual: bool = False
    type_plus: bool = False
    type_minus: bool = False

    def __post_init__(self):
        check_field_types(self, _CLASS_FIELDS, ParameterError)
        if self.d < 1 or self.t < 1:
            raise ParameterError("d and t must be positive")
        if not self.self_dual and (self.type_plus or self.type_minus):
            raise ParameterError("type flags are only meaningful for self-dual classes")

    @property
    def kappa_plus(self) -> int:
        return 1 if self.type_plus else 0

    @property
    def kappa_minus(self) -> int:
        return 1 if self.type_minus else 0

    def member_of_type(self, minus: bool) -> bool:
        return self.type_minus if minus else self.type_plus


def _class_by_label(classes: tuple[InertialClass, ...], label: str) -> InertialClass:
    for c in classes:
        if c.label == label:
            return c
    raise KeyError(label)


@dataclass(frozen=True)
class NormedParameter:
    """Multiplicities m(rho) per inertial class with sum of dimensions 2n.

    For a non-self-dual class the stored multiplicity counts the base
    member alone; its dual contributes the same again, so the class adds
    2*d*m to the total dimension, against d*m for a self-dual class.
    """

    n: int
    classes: tuple[InertialClass, ...]
    mult: tuple[tuple[str, int], ...]
    by_label: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_field_types(self, (("n", int),), ParameterError)
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ParameterError("duplicate class labels")
        object.__setattr__(self, "mult", tuple((l, m) for l, m in self.mult))
        object.__setattr__(self, "by_label", dict(self.mult))
        for l, m in self.mult:
            if type(m) is not int:
                raise ParameterError(f"'multiplicity' of class {l!r} must be an integer, got {m!r}")
        if set(self.by_label) - set(labels):
            raise ParameterError("multiplicity for unknown class")
        total = 0
        for c in self.classes:
            m = self.m(c.label)
            if m < 0:
                raise ParameterError("multiplicities must be >= 0")
            total += c.d * m * (1 if c.self_dual else 2)
        if total != 2 * self.n:
            raise ParameterError(f"dimension identity fails: {total} != {2 * self.n}")

    def m(self, label: str) -> int:
        return self.by_label.get(label, 0)

    def cls(self, label: str) -> InertialClass:
        return _class_by_label(self.classes, label)

    def support(self) -> list[InertialClass]:
        return [c for c in self.classes if self.m(c.label) > 0]

    def self_dual_support(self) -> list[InertialClass]:
        return [c for c in self.support() if c.self_dual]

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "n": self.n,
            "classes": [
                {"label": c.label, "d": c.d, "t": c.t, "self_dual": c.self_dual,
                 "type_plus": c.type_plus, "type_minus": c.type_minus,
                 "multiplicity": self.m(c.label)}
                for c in self.classes
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "NormedParameter":
        classes = []
        mult = []
        for c in data["classes"]:
            classes.append(InertialClass(
                c["label"], c.get("d", 1), c.get("t", 1), c.get("self_dual", False),
                c.get("type_plus", False), c.get("type_minus", False)))
            mult.append((c["label"], c["multiplicity"]))
        return cls(data["n"], tuple(classes), tuple(mult))


# ---------------------------------------------------------------------------
# Jordan data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class JordEntry:
    label: str
    minus: bool
    a: int


@dataclass(frozen=True)
class DiscreteParameter:
    classes: tuple[InertialClass, ...]
    jord: tuple[JordEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "jord", tuple(sorted(self.jord)))
        labels = {c.label for c in self.classes}
        for e in self.jord:
            if e.label not in labels:
                raise ParameterError(f"jord entry for unknown class {e.label!r}")
            if e.a < 1:
                raise ParameterError("block sizes must be positive")

    def cls(self, label: str) -> InertialClass:
        return _class_by_label(self.classes, label)

    def members(self) -> list[tuple[str, bool]]:
        return list(dict.fromkeys((e.label, e.minus) for e in self.jord))

    def member_blocks(self, label: str, minus: bool) -> list[int]:
        return sorted(e.a for e in self.jord if e.label == label and e.minus == minus)

    def member_of_type(self, label: str, minus: bool) -> bool:
        return self.cls(label).member_of_type(minus)


def without_holes(p: DiscreteParameter) -> bool:
    """Whether every member's blocks form the full staircase 2k - kappa, k = 1..a."""
    for label, minus in p.members():
        kappa = 1 if p.member_of_type(label, minus) else 0
        blocks = p.member_blocks(label, minus)
        expected = [2 * k - kappa for k in range(1, len(blocks) + 1)]
        if blocks != expected:
            return False
    return True


def jord_from_x(label: str, x, minus: bool = False) -> list[JordEntry]:
    """Jordan blocks attached to a reducibility point x: sizes 2x + 1 - 2l.

    x in {0, 1/2} contributes the empty set; 2x must be an integer.
    """
    x = Fraction(x)
    if (2 * x).denominator != 1:
        raise ParameterError(f"2x must be an integer, got x = {x}")
    if x < 0:
        raise ParameterError("x must be >= 0")
    out = []
    for ell in range(1, int(x) + 1):
        a = 2 * x + 1 - 2 * ell
        out.append(JordEntry(label, minus, int(a)))
    return out


def x_from_jord(p: DiscreteParameter, label: str, minus: bool = False) -> Fraction:
    """The nonnegative reducibility point read off a discrete parameter.

    a is the largest block of the member, falling back to 0 for an absent
    non-type member and -1 for an absent type member; x = (a + 1)/2.
    """
    blocks = p.member_blocks(label, minus)
    if blocks:
        a = max(blocks)
    else:
        a = -1 if p.member_of_type(label, minus) else 0
    return Fraction(a + 1, 2)


def first_occurrence_x(n: int, m_zeta: int) -> Fraction:
    """Reducibility point of the trivial class from a first-occurrence index."""
    if m_zeta < 1 or m_zeta % 2 == 0:
        raise ParameterError("first-occurrence index must be odd and positive")
    x = abs(Fraction(2 * n - (m_zeta - 1) + 1, 2))
    assert (x - Fraction(1, 2)).denominator == 1, "result must be a strict half-integer"
    return x


# ---------------------------------------------------------------------------
# Alternating characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AltChar:
    signs: tuple[tuple[JordEntry, int], ...]

    def sign(self, e: JordEntry) -> int:
        return dict(self.signs)[e]

    def to_json(self) -> list:
        return [[e.label, e.minus, e.a, s] for e, s in self.signs]


def _class_chars(c: InertialClass, ap: int, am: int) -> list[tuple[tuple, int]]:
    """The alternating characters on staircases of ap plus and am minus blocks
    of c, each as its signs in Jordan order with their product.  Down a
    member's staircase eps(block k) = (-1)^(k-1) eps(block 1); the first
    sign is free for a type member present and -1 otherwise.
    """
    members = ((False, ap, c.kappa_plus), (True, am, c.kappa_minus))
    chars = []
    for firsts in itertools.product(*[(1, -1) if a and kappa else (-1,) for _, a, kappa in members]):
        signs = tuple((JordEntry(c.label, minus, 2 * k - kappa), first * (-1) ** (k - 1))
                      for (minus, a, kappa), first in zip(members, firsts) for k in range(1, a + 1))
        chars.append((signs, prod(s for _, s in signs)))
    return chars


def _joined(chars) -> tuple[AltChar, int]:
    """The character made of per-class characters in label order, with its central value."""
    return AltChar(sum((signs for signs, _ in chars), ())), prod(z for _, z in chars)


def enumerate_alt_chars(p: DiscreteParameter) -> list[AltChar]:
    """All alternating characters on the Jordan blocks of p.

    They are the products of the per-class characters of ``_class_chars``,
    over the classes in label order, because p.jord is sorted by label
    first; so the count is 2^(number of type members present).
    """
    if not without_holes(p):
        raise ParameterError("parameter has holes; characters are undefined")
    per_class = [_class_chars(p.cls(l), len(p.member_blocks(l, False)), len(p.member_blocks(l, True)))
                 for l in sorted({e.label for e in p.jord})]
    return [_joined(chars)[0] for chars in itertools.product(*per_class)]


def epsilon_Z(e: AltChar) -> int:
    """Value of the character at the central element: product over all blocks."""
    return prod(s for _, s in e.signs)


# ---------------------------------------------------------------------------
# Anchor choices S
# ---------------------------------------------------------------------------

def member_dim(a: int, kappa: int) -> int:
    """sum_{k=1..a} (2k - kappa) = a^2 (kappa = 1) or a(a+1) (kappa = 0)."""
    return a * a if kappa else a * (a + 1)


@dataclass(frozen=True)
class SChoice:
    entries: tuple[tuple[str, int, int, int], ...]   # (label, a_plus, a_minus, m_gl)

    def get(self, label: str) -> tuple[int, int, int]:
        for l, ap, am, mg in self.entries:
            if l == label:
                return ap, am, mg
        raise KeyError(label)

    def anchors(self) -> dict[str, tuple[int, int]]:
        """label -> (a+, a-)."""
        return {l: (ap, am) for l, ap, am, _ in self.entries}

    def to_json(self) -> list:
        return [[l, ap, am, mg] for l, ap, am, mg in self.entries]


def _class_choices(cls: InertialClass, m: int) -> list[tuple[int, int, int]]:
    """Every (a+, a-, m_gl) of the size-parity identity, in sorted order.  A
    member's dimension grows with a, so each loop stops at the first a that
    leaves a negative rest."""
    out = []
    for ap in itertools.count():
        left = m - member_dim(ap, cls.kappa_plus)
        if left < 0:
            return out
        for am in itertools.count():
            rest = left - member_dim(am, cls.kappa_minus)
            if rest < 0:
                break
            if rest % 2 == 0:
                out.append((ap, am, rest // 2))


Choices = list[tuple[InertialClass, list[tuple[int, int, int]]]]


def _anchor_choices(p0: NormedParameter) -> Choices:
    """Each self-dual class of the support with its (a+, a-, m_gl) choices."""
    return [(c, _class_choices(c, p0.m(c.label))) for c in p0.self_dual_support()]


def enumerate_S(p0: NormedParameter, choices: Choices | None = None) -> list[SChoice]:
    """All anchor choices: per self-dual class every (a+, a-, m_gl) solving
    the size-parity identity, combined multiplicatively across classes.

    ``choices`` is :func:`_anchor_choices` of ``p0``, if the caller has it;
    here and in the counts below it saves building it again.
    """
    choices = _anchor_choices(p0) if choices is None else choices
    per_class = [[(c.label,) + triple for triple in triples] for c, triples in choices]
    return [SChoice(tuple(combo)) for combo in itertools.product(*per_class)]


# The most records one call may list: blocks for enumerate_blocks, rows for
# verify_match.  Both counts are products over the classes, so a few
# classes of high multiplicity reach millions (4^10 anchor choices for ten
# both-type classes of multiplicity 6).
ENUMERATION_GUARD = 100_000


def count_blocks(p0: NormedParameter, choices: Choices | None = None) -> int:
    """The number of blocks of p0, without enumerating them.

    The anchor choices are a product over the self-dual classes, and an
    anchor's characters number 2^(type members present), a product too:
    so the count is the product over classes of the sum, over the class's
    choices, of 2^(number of type members with a > 0).
    """
    choices = _anchor_choices(p0) if choices is None else choices
    total = 1
    for c, triples in choices:
        total *= sum(2 ** ((ap > 0 and c.type_plus) + (am > 0 and c.type_minus))
                     for ap, am, _ in triples)
    return total


def count_match_rows(p0: NormedParameter, choices: Choices | None = None) -> int:
    """len(verify_match(p0)["rows"]): |S| times the size of the support."""
    choices = _anchor_choices(p0) if choices is None else choices
    return prod(len(triples) for _, triples in choices) * len(p0.support())


def _guard(count: int, what: str) -> int:
    if count > ENUMERATION_GUARD:
        raise ParameterError(
            f"{count} {what} exceed the enumeration guard of {ENUMERATION_GUARD}")
    return count


def anchor_parameter(p0: NormedParameter, S: SChoice) -> DiscreteParameter:
    """The discrete parameter of the anchor block determined by S."""
    jord = []
    for c in p0.self_dual_support():
        ap, am, _ = S.get(c.label)
        for k in range(1, ap + 1):
            jord.append(JordEntry(c.label, False, 2 * k - c.kappa_plus))
        for k in range(1, am + 1):
            jord.append(JordEntry(c.label, True, 2 * k - c.kappa_minus))
    return DiscreteParameter(p0.classes, tuple(jord))


# ---------------------------------------------------------------------------
# Hecke presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MpHeckePresentation:
    """Presentation data for one tensor factor of a block's Hecke algebra.

    ``kind`` is one of GL, SO_odd, SO_even_ext; ``size`` the size label of
    the underlying datum; ``special``/``qi`` the distinguished short-root and
    companion exponents for odd-orthogonal shapes of positive rank (else
    None); ``scale`` the base-field rescaling t.  The per-simple-root
    q-exponents follow from these: every long exponent is ``scale`` and an
    odd-orthogonal datum ends with ``special`` (:attr:`exponents`), so the
    record stores none of them and compares in constant time.

    Every exponent lies in (1/2)Z.  The module stores it as an ``int`` when
    it is integral and otherwise as a ``Fraction`` of denominator 2.  Either
    compares and hashes as the rational it is (``1 == Fraction(1)`` and
    ``hash(Fraction(n)) == hash(n)``), so a record holding ``Fraction``s of
    the same values is equal to it and hashes alike.
    """

    kind: str
    size: int
    special: int | Fraction | None
    qi: int | Fraction | None
    scale: int

    def rank(self) -> int:
        if self.kind == "GL":
            return self.size - 1
        if self.kind == "SO_odd":
            return (self.size - 1) // 2
        return self.size // 2

    @property
    def exponents(self) -> tuple[int | Fraction, ...]:
        """The q-exponent of each simple root: ``scale`` on every long root, then
        ``special`` on the short root of SO_odd.  The extended even datum has one
        exponent per simple root from rank 2 up, and none below."""
        r = self.rank()
        if self.kind == "SO_odd":
            return (self.scale,) * (r - 1) + (self.special,) if r >= 1 else ()
        if self.kind == "SO_even_ext" and r < 2:
            return ()
        return (self.scale,) * r

    @property
    def extended(self) -> bool:
        """Whether the outer involution extends the datum."""
        return self.kind == "SO_even_ext"

    def display(self) -> str:
        body = ", ".join(_q_str(e) for e in self.exponents)
        if self.qi is not None:
            return f"{body}; {_q_str(self.qi)}" if body else f"; {_q_str(self.qi)}"
        return body

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "exponents": [frac_to_json(e) for e in self.exponents],
            "special": frac_to_json(self.special) if self.special is not None else None,
            "qi": frac_to_json(self.qi) if self.qi is not None else None,
            "scale": self.scale,
            "extended": self.extended,
        }


def _q_str(e: int | Fraction) -> str:
    return "q" if e == 1 else f"q^{frac_to_json(e)}"


def _half(n: int) -> int | Fraction:
    """n/2: an int when n is even, else a Fraction of denominator 2."""
    return Fraction(n, 2) if n % 2 else n // 2


def hecke_for_block(p0: NormedParameter, S: SChoice, cls: InertialClass) -> MpHeckePresentation:
    """The Hecke-algebra factor attached to one inertial class of a block."""
    m = p0.m(cls.label)
    t = cls.t
    if not cls.self_dual:
        return MpHeckePresentation("GL", m, None, None, t)
    ap, am, _ = S.get(cls.label)
    kp, km = cls.kappa_plus, cls.kappa_minus
    if kp and km and ap == 0 and am == 0:
        return MpHeckePresentation("SO_even_ext", m, None, None, t)
    m_O = member_dim(ap, kp) + member_dim(am, km)
    if m_O > m or (m - m_O) % 2:
        raise ParameterError("anchor choice inconsistent with the multiplicity")
    size = m - m_O + 1
    if size < 3:
        return MpHeckePresentation("SO_odd", size, None, None, t)
    return MpHeckePresentation("SO_odd", size, _half(t * (2 * (ap + am + 1) - (kp + km))),
                               _half(t * abs(2 * (ap - am) + (km - kp))), t)


def classical_match(cls: InertialClass, m: int) -> tuple[str, int]:
    """The classical group whose principal-type tower matches the class."""
    if not cls.self_dual:
        return "GL", m
    if not cls.type_plus and not cls.type_minus:
        return "SO_odd", m + 1
    if cls.type_plus != cls.type_minus:
        return "U", m
    return ("O_even", m) if m % 2 == 0 else ("Sp", m - 1)


def classical_hecke(group: str, size: int, a_plus: int, a_minus: int) -> MpHeckePresentation:
    """Unequal-parameter presentations of the classical reference towers.

    SO_odd(2n+1): exponents q, ..., q, q^(a+ + a- + 1); q^|a+ - a-|.
    O_even(2n), (a+, a-) != (0, 0), and Sp(2n): q, ..., q, q^(a+ + a-);
    q^|a+ - a-|; O_even at (0, 0) is the extended even datum with equal
    exponents.  U(n): q, ..., q, q^(a+ + a- + 1/2); q^|a+ - a- +
    (-1)^n / 2|.  All on the odd-orthogonal datum of the size cut down by
    the anchor dimensions m_plus + m_minus.
    """
    ap, am = int(a_plus), int(a_minus)
    if ap < 0 or am < 0:
        raise ParameterError("a+ and a- must be >= 0")
    if group == "SO_odd":
        if size % 2 == 0:
            raise ParameterError("SO_odd size must be odd")
        m = size - 1
        mp, mm = member_dim(ap, 0), member_dim(am, 0)
        special = ap + am + 1
        qi = abs(ap - am)
    elif group == "O_even":
        if size % 2:
            raise ParameterError("O_even size must be even")
        m = size
        if ap == 0 and am == 0:
            return MpHeckePresentation("SO_even_ext", m, None, None, 1)
        mp, mm = member_dim(ap, 1), member_dim(am, 1)
        special = ap + am
        qi = abs(ap - am)
    elif group == "Sp":
        if size % 2:
            raise ParameterError("Sp size must be even")
        m = size + 1
        mp, mm = member_dim(ap, 1), member_dim(am, 1)
        special = ap + am
        qi = abs(ap - am)
    elif group == "U":
        m = size
        kp, km = (1, 0) if size % 2 else (0, 1)
        mp, mm = member_dim(ap, kp), member_dim(am, km)
        special = _half(2 * (ap + am) + 1)
        qi = _half(abs(2 * (ap - am) + (-1) ** size))
    else:
        raise ParameterError(f"unknown classical group {group!r}")
    cut = m - mp - mm
    if cut < 0 or cut % 2:
        raise ParameterError("anchor dimensions inconsistent with the group size")
    if cut == 0:
        return MpHeckePresentation("SO_odd", 1, None, None, 1)
    return MpHeckePresentation("SO_odd", cut + 1, special, qi, 1)


def _times(t: int, e: int | Fraction) -> int | Fraction:
    """t*e, an int when it is integral."""
    x = t * e
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _scaled(p: MpHeckePresentation, t: int) -> MpHeckePresentation:
    return MpHeckePresentation(
        p.kind, p.size,
        _times(t, p.special) if p.special is not None else None,
        _times(t, p.qi) if p.qi is not None else None,
        p.scale * t)


def _class_match(p0: NormedParameter, S: SChoice, cls: InertialClass) -> tuple[str, bool, bool]:
    """(matched group, matched, swapped) for one class under the anchor choice S.

    A class that is not self-dual matches its GL factor by definition: no
    independent GL formula is compared.
    """
    group, gsize = classical_match(cls, p0.m(cls.label))
    if not cls.self_dual:
        return group, True, False
    mp = hecke_for_block(p0, S, cls)
    ap, am, _ = S.get(cls.label)
    for swap in (False, True):
        args = (am, ap) if swap else (ap, am)
        try:
            classical = classical_hecke(group, gsize, *args)
        except ParameterError:
            continue
        if mp == _scaled(classical, cls.t):
            return group, True, swap
    return group, False, False


def verify_match(p0: NormedParameter) -> dict:
    """Compare the emitted presentations against the matched classical towers.

    For every anchor choice and every class of the support the metaplectic
    presentation must coincide with the classical one after rescaling the
    classical exponents by t; the unitary-type comparison may need the
    argument order (a+, a-) swapped, which is recorded.  The rows of a
    class that is not self-dual are matched by definition: its GL factor
    has no independent formula to be compared with.  Mismatches are
    reported, never raised.  A class's comparison depends on S only
    through the class's (a+, a-), so it is made once per (class, a+, a-).
    More than ENUMERATION_GUARD rows raise ParameterError.
    """
    choices = _anchor_choices(p0)
    _guard(count_match_rows(p0, choices), "match rows")
    rows = []
    mismatches = 0
    found: dict[tuple, tuple[str, bool, bool]] = {}
    support = p0.support()
    for S in enumerate_S(p0, choices):
        s_json = S.to_json()
        anchors = S.anchors()
        for cls in support:
            key = (cls.label, anchors.get(cls.label))
            if key not in found:
                found[key] = _class_match(p0, S, cls)
            group, matched, swapped = found[key]
            rows.append({"S": s_json, "class": cls.label, "group": group,
                         "matched": matched, "swapped": swapped})
            mismatches += 0 if matched else 1
    return {"schema": "v1", "mismatches": mismatches, "rows": rows}


# ---------------------------------------------------------------------------
# Blocks, central signs and the two orthogonal towers
# ---------------------------------------------------------------------------

class BlockTable:
    """The Bernstein blocks of a normed parameter, as a product of per-class factors.

    ``factors``: per self-dual class of the support, in support order, the
    class and, per (a+, a-, m_gl) choice, its S entry, presentation and
    ``_class_chars``.  ``fixed``: the presentation of each non-self-dual
    class; ``matches``: each support class's classical match.  A block is
    one choice per factor (S in ``itertools.product`` order over the
    support), then one character per factor (in that order over the
    classes sorted by label).  A factor with no choice leaves no blocks.
    """

    def __init__(self, factors: tuple, fixed: dict[str, MpHeckePresentation],
                 matches: dict[str, tuple[str, int]]):
        self.factors, self.fixed, self.matches = factors, fixed, matches

    def records(self):
        """Yield one record per block: S, epsilon, epsilon_Z, hecke and classical_match."""
        by_label = sorted(range(len(self.factors)), key=lambda i: self.factors[i][0].label)
        for options in itertools.product(*(choices for _, choices in self.factors)):
            S = SChoice(tuple(entry for entry, _, _ in options))
            hecke = {**self.fixed, **{c.label: o[1] for (c, _), o in zip(self.factors, options)}}
            for chars in itertools.product(*(options[i][2] for i in by_label)):
                eps, sign = _joined(chars)
                yield {"S": S, "epsilon": eps, "epsilon_Z": sign, "hecke": dict(hecke),
                       "classical_match": dict(self.matches)}


def enumerate_blocks(p0: NormedParameter) -> BlockTable:
    """Every Bernstein block of p0, as per-class factors.

    A class's presentation and characters depend on S only through its
    (a+, a-), so each is built once per choice, and none when some class
    has no choice.  More than ENUMERATION_GUARD blocks raise ParameterError.
    """
    choices = _anchor_choices(p0)
    if not _guard(count_blocks(p0, choices), "blocks"):
        return BlockTable(tuple((c, ()) for c, _ in choices), {}, {})
    support = p0.support()
    factors = tuple((c, tuple((entry, hecke_for_block(p0, SChoice((entry,)), c),
                               _class_chars(c, *entry[1:3]))
                              for entry in ((c.label,) + triple for triple in triples)))
                    for c, triples in choices)
    fixed = {c.label: hecke_for_block(p0, SChoice(()), c) for c in support if not c.self_dual}
    return BlockTable(factors, fixed, {c.label: classical_match(c, p0.m(c.label)) for c in support})


def split_so(p0: NormedParameter) -> dict[int, list[dict]]:
    """Partition of all (S, epsilon) blocks by the central sign."""
    parts: dict[int, list[dict]] = {1: [], -1: []}
    for block in enumerate_blocks(p0).records():
        parts[block["epsilon_Z"]].append(block)
    return parts


# ---------------------------------------------------------------------------
# The Weil-representation blocks
# ---------------------------------------------------------------------------

TRIVIAL_CLASS = InertialClass("1", d=1, t=1, self_dual=True,
                              type_plus=False, type_minus=False)


def weil_example(n: int) -> dict:
    """The two metaplectic blocks of the rank-n Weil representation.

    The even block sits over the anchor-free choice (0, 0): the odd
    orthogonal datum of size 2n+1, exponents q (n times) and companion
    q^0, central sign +1.  The odd block sits over (1, 0): the computed
    presentation has n-2 long exponents q, special exponent q^2 and
    companion q; the commonly displayed parameter string
    "q, ..., q ((n-1) times); q^2" disagrees with that computation, and the
    report carries both with a flag instead of silently adopting either.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    p0 = NormedParameter(n, (TRIVIAL_CLASS,), (("1", 2 * n),))

    s_plus = SChoice((("1", 0, 0, n),))
    even = hecke_for_block(p0, s_plus, TRIVIAL_CLASS)
    s_minus = SChoice((("1", 1, 0, n - 1),))
    odd = hecke_for_block(p0, s_minus, TRIVIAL_CLASS)

    even_reference = ", ".join(["q"] * n) + "; q^0"
    odd_reference = ", ".join(["q"] * (n - 1)) + "; q^2" if n >= 2 else "; q^2"

    return {
        "schema": "v1",
        "even": {
            "S": s_plus.to_json(),
            "epsilon_Z": _class_chars(TRIVIAL_CLASS, 0, 0)[0][1],
            "presentation": even.to_json(),
            "display": even.display(),
            "reference_display": even_reference,
            "display_matches_reference": even.display() == even_reference,
        },
        "odd": {
            "S": s_minus.to_json(),
            "epsilon_Z": _class_chars(TRIVIAL_CLASS, 1, 0)[0][1],
            "presentation": odd.to_json(),
            "display": odd.display(),
            "reference_display": odd_reference,
            "display_matches_reference": odd.display() == odd_reference,
        },
    }
