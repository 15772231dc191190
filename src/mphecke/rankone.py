"""Rank-one intertwining algebra, modelled exactly.

The algebra lives over rational functions in one variable ``X`` with
q-power coefficients.  It is generated over them by one symbol ``J``
subject to

    J h(X) = h(X^-1) J          and          J^2 = c'' * mu^-1,

where ``mu`` is the rank-one reducibility function

    mu = c' * (1-X)(1-X^-1)/((1-X q^-a)(1-X^-1 q^-a))
            * (1+X)(1+X^-1)/((1+X q^-b)(1+X^-1 q^-b))

with exponents ``a >= b >= 0``.  Both normalising constants are fixed to
1 and neither is a parameter: the quadratic-relation computation below is
homogeneous in ``c = c''/c'``, so nothing is lost (only the combination c
enters, through J^2 * mu and the square roots c^(1/2) that cancel in every
verified identity).

``J`` has at most simple poles at ``X = +-1``.  Its leading behaviour
there is pinned only up to sign:

    (X-1) J  at X=+1  ->  w_1  = eps_1/2 * (1-q^-a)(1+q^-b)
    (X+1) J  at X=-1  ->  w_-1 = eps_-1/2 * (1+q^-a)(1-q^-b)

with eps_1, eps_-1 in {+-1} (their squares are forced by J^2 = mu^-1).
The regularised generator is

    T = R + (q^(a+b) - 1) * X (X - beta) / (X^2 - 1),
    beta = (q^b - q^a) / (q^(a+b) - 1),
    R = -eps_1 q^(a+b) J            if eps_1 * b != eps_-1 * b,
    R = -eps_1 q^(a+b) X J          if eps_1 * b == eps_-1 * b,

and satisfies (T + 1)(T - q^(a+b)) = 0.  The X-factor in the second
branch is exactly what makes the poles of J cancel inside T when the two
boundary signs agree; at b = 0 the condition degenerates to equality and
that branch applies.

Verification is two-fold: the quadratic relation is expanded symbolically
in the (1, J)-basis, and the pole cancellation of T at X = +-1 is checked
against the sign data.  Mismatched signs leave a nonzero residue term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .laurent import GroupAlgebraElement, QLaurent, RationalFunction, rf_normalize


class InconsistentSigns(ValueError):
    """The supplied boundary signs violate the squared-specialisation identities."""


def _fr(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("exponents must be exact rationals")
    return Fraction(x)


def _x_poly(coeffs: dict[int, QLaurent]) -> GroupAlgebraElement:
    return GroupAlgebraElement(1, {(k,): c for k, c in coeffs.items()})


def _rf(num: dict[int, QLaurent], den: dict[int, QLaurent] | None = None) -> RationalFunction:
    n = _x_poly(num)
    d = _x_poly(den) if den else GroupAlgebraElement.one(1)
    return rf_normalize(n, d)


ONE = QLaurent.one()
MINUS_ONE = QLaurent.const(-1)


# ---------------------------------------------------------------------------
# The mu function
# ---------------------------------------------------------------------------

class MuFunction(NamedTuple):
    """mu for (a, b), its inverse, and its zeros and poles as X-values with multiplicity.

    An X-value is encoded (sign, e) meaning ``sign * q^e``.  The generic
    zero list is {1, 1, -1, -1} and the generic pole list
    {q^a, q^-a, -q^b, -q^-b}; coincidences (a = 0 or b = 0) cancel.
    """

    a: Fraction
    b: Fraction
    value: RationalFunction
    inverse: RationalFunction
    zeros: tuple[tuple[tuple[int, Fraction], int], ...]
    poles: tuple[tuple[tuple[int, Fraction], int], ...]


def _root_product(scale: QLaurent, roots: list) -> GroupAlgebraElement:
    """``scale * prod (X - sign q^e)^mult`` over the ``((sign, e), mult)`` list."""
    out = GroupAlgebraElement.const(1, scale)
    for (sign, e), mult in roots:
        factor = _x_poly({1: ONE, 0: QLaurent.q_power(e).scale(-sign)})
        for _ in range(mult):
            out = out * factor
    return out


def mu_build(a, b) -> MuFunction:
    """The rank-one reducibility function and its inverse in canonical form.

    Requires a >= b >= 0.  Pairing each factor of mu with its X -> X^-1
    twin gives

        mu = q^(a+b) (X-1)^2 (X+1)^2 / ((X-q^a)(X-q^-a)(X+q^b)(X+q^-b)).

    With the coincident roots cancelled (``zeros`` and ``poles``) the two
    sides are coprime, and either side as a denominator is monic in X with
    a unit constant term, so ``value`` and ``inverse`` are already the
    forms :func:`rf_normalize` gives and need no gcd.  Symmetry under
    X -> X^-1 is asserted on the canonical form.
    """
    a, b = _fr(a), _fr(b)
    if not (a >= b >= 0):
        raise ValueError(f"need a >= b >= 0, got a={a}, b={b}")
    # q^-a is formed before q^-b, so an exponent off (1/4)Z is reported by
    # q_power as -a, else -b: rankone-verify's error text, which the seed-1
    # block-calculus digest in bench/digests.json records.
    scale_inv = QLaurent.q_power(-a) * QLaurent.q_power(-b)
    zeros, poles = _zeros_poles(a, b)
    value = RationalFunction(_root_product(scale_inv ** -1, zeros), _root_product(ONE, poles))
    inverse = RationalFunction(_root_product(scale_inv, poles), _root_product(ONE, zeros))
    assert value.bar() == value, "mu must be symmetric under X -> X^-1"
    return MuFunction(a, b, value, inverse, zeros, poles)


def _zeros_poles(a: Fraction, b: Fraction) -> tuple[tuple, tuple]:
    zeros: dict[tuple[int, Fraction], int] = {}
    poles: dict[tuple[int, Fraction], int] = {}

    def put(d, key, mult=1):
        d[key] = d.get(key, 0) + mult

    put(zeros, (1, Fraction(0)), 2)
    put(zeros, (-1, Fraction(0)), 2)
    put(poles, (1, a))
    put(poles, (1, -a))
    put(poles, (-1, b))
    put(poles, (-1, -b))
    for key in sorted(set(zeros) | set(poles)):
        c = min(zeros.get(key, 0), poles.get(key, 0))
        if c:
            zeros[key] -= c
            poles[key] -= c
    z = sorted((k, v) for k, v in zeros.items() if v > 0)
    p = sorted((k, v) for k, v in poles.items() if v > 0)
    return tuple(z), tuple(p)


# ---------------------------------------------------------------------------
# The two-dimensional algebra over rational functions
# ---------------------------------------------------------------------------

class RankOneElement(NamedTuple):
    """An element f(X) + g(X) J in the (1, J)-basis."""

    f: RationalFunction
    g: RationalFunction


class RankOneAlgebra:
    """Multiplication table of the (1, J)-module over K(X).

    (f1 + g1 J)(f2 + g2 J)
        = (f1 f2 + g1 * bar(g2) * mu^-1) + (f1 g2 + g1 * bar(f2)) J,

    with bar the substitution X -> X^-1.
    """

    def __init__(self, mu: MuFunction):
        self.mu = mu
        self.mu_inv = mu.inverse
        self.squares = _squared_specialisations(mu)

    def zero(self) -> RankOneElement:
        return RankOneElement(RationalFunction.zero(), RationalFunction.zero())

    def one(self) -> RankOneElement:
        return RankOneElement(RationalFunction.one(), RationalFunction.zero())

    def scalar(self, c: QLaurent) -> RankOneElement:
        return RankOneElement(RationalFunction.const(c), RationalFunction.zero())

    def from_f(self, f: RationalFunction) -> RankOneElement:
        return RankOneElement(f, RationalFunction.zero())

    def j(self) -> RankOneElement:
        return RankOneElement(RationalFunction.zero(), RationalFunction.one())

    def x(self) -> RankOneElement:
        return self.from_f(_rf({1: ONE}))

    def add(self, u: RankOneElement, v: RankOneElement) -> RankOneElement:
        return RankOneElement(u.f + v.f, u.g + v.g)

    def sub(self, u: RankOneElement, v: RankOneElement) -> RankOneElement:
        return RankOneElement(u.f - v.f, u.g - v.g)

    def mul(self, u: RankOneElement, v: RankOneElement) -> RankOneElement:
        f = u.f * v.f + u.g * v.g.bar() * self.mu_inv
        g = u.f * v.g + u.g * v.f.bar()
        return RankOneElement(f, g)

    def is_zero(self, u: RankOneElement) -> bool:
        return u.f.is_zero() and u.g.is_zero()


# ---------------------------------------------------------------------------
# The regularised generator and its quadratic relation
# ---------------------------------------------------------------------------

def boundary_scalars(a: Fraction, b: Fraction, eps1: int, epsm1: int) -> tuple[QLaurent, QLaurent]:
    """Leading scalars of (X-1)J at X=1 and (X+1)J at X=-1 for given signs."""
    half = Fraction(1, 2)
    w1 = (ONE - QLaurent.q_power(-a)) * (ONE + QLaurent.q_power(-b))
    wm1 = (ONE + QLaurent.q_power(-a)) * (ONE - QLaurent.q_power(-b))
    return w1.scale(half * eps1), wm1.scale(half * epsm1)


def _uses_x_branch(b: Fraction, eps1: int, epsm1: int) -> bool:
    # branch condition: eps1 * b == epsm1 * b, which degenerates to the
    # equality branch at b = 0 (both sides vanish)
    return eps1 * b == epsm1 * b


def build_Ts(a, b, eps1: int, epsm1: int) -> RankOneElement:
    """The regularised generator T for parameters (a, b) and boundary signs.

    f-part: (q^(a+b) - 1) X (X - beta) / (X^2 - 1) with
    beta = (q^b - q^a)/(q^(a+b) - 1); its X -> X^-1 twist satisfies
    f + bar(f) = q^(a+b) - 1, which is exactly what the quadratic relation
    requires of the diagonal part.

    g-part: -eps1 q^(a+b) (times X when the signs agree or b = 0).
    """
    a, b = _fr(a), _fr(b)
    if not (a >= b >= 0):
        raise ValueError("need a >= b >= 0")
    if a == 0:
        raise ValueError("need a > 0 (q^(a+b) - 1 must be invertible)")
    if eps1 not in (1, -1) or epsm1 not in (1, -1):
        raise ValueError("signs must be +-1")
    Q = QLaurent.q_power(a + b)
    qb_minus_qa = QLaurent.q_power(b) - QLaurent.q_power(a)
    f = _rf({2: Q - ONE, 1: -qb_minus_qa}, {2: ONE, 0: MINUS_ONE})
    coeff = Q.scale(-eps1)
    if _uses_x_branch(b, eps1, epsm1):
        g = _rf({1: coeff})
    else:
        g = _rf({0: coeff})
    return RankOneElement(f, g)


def _squared_specialisations(mu: MuFunction) -> tuple[QLaurent, QLaurent]:
    """(X-1)(X^-1-1) mu^-1 at X = 1 and (X+1)(X^-1+1) mu^-1 at X = -1, with no gcd.

    For s = +-1, (X - s)(X^-1 - s) = -s (X - s)^2 / X, and -s/X is -1 at
    X = s.  The square cancels the double zero of mu at s if mu has one
    (a > 0 for s = 1, b > 0 for s = -1), and what is left of
    mu^-1 = q^-(a+b) prod (X - p)^m / prod (X - z)^m is regular at s;
    otherwise mu^-1 is regular at s and the square makes the value 0.
    """
    values = []
    for sign in (1, -1):
        point = QLaurent.const(sign)
        if ((sign, 0), 2) not in mu.zeros:
            values.append(QLaurent.zero())
            continue
        rest = _root_product(ONE, [z for z in mu.zeros if z[0] != (sign, 0)])
        values.append(-mu.inverse.num.eval1(point).exact_div(rest.eval1(point)))
    return values[0], values[1]


def _check_squared_specialisations(alg: RankOneAlgebra, w1: QLaurent, wm1: QLaurent):
    """The squares of the boundary scalars must match (X -+ 1)(X^-1 -+ 1) mu^-1 at X = +-1."""
    for point, value, w in ((ONE, alg.squares[0], w1), (MINUS_ONE, alg.squares[1], wm1)):
        if value != w * w:
            raise InconsistentSigns(
                f"specialisation square at X={point} is {RationalFunction.const(value)}, signs give {w * w}")


def verify_quadratic(a, b, eps1: int, epsm1: int, build_signs: tuple[int, int] | None = None) -> bool:
    """Machine check of (T + 1)(T - q^(a+b)) = 0.

    ``(eps1, epsm1)`` are the boundary signs of J.  The element T is built
    with the same signs unless ``build_signs`` overrides them (used to
    model a construction that disagrees with the actual polar behaviour of
    J; the expansion then leaves a nonzero residue term and the check
    returns False).

    Returns True iff both coordinates of the symbolic expansion vanish
    and the poles of J cancel inside T at X = +-1.
    """
    return _quadratic_holds(RankOneAlgebra(mu_build(a, b)), eps1, epsm1, build_signs)


def _quadratic_holds(alg: RankOneAlgebra, eps1: int, epsm1: int,
                     build_signs: tuple[int, int] | None = None) -> bool:
    a, b = alg.mu.a, alg.mu.b
    w1, wm1 = boundary_scalars(a, b, eps1, epsm1)
    _check_squared_specialisations(alg, w1, wm1)

    bs = build_signs if build_signs is not None else (eps1, epsm1)
    T = build_Ts(a, b, *bs)
    Q = QLaurent.q_power(a + b)
    prod = alg.mul(alg.add(T, alg.one()), alg.sub(T, alg.scalar(Q)))
    if not alg.is_zero(prod):
        return False

    for point, w in ((ONE, w1), (MINUS_ONE, wm1)):
        res = T.f.residue1(point) + T.g.eval1(point).scale(w)
        if not res.is_zero():
            return False
    return True


def j_square_check(a, b) -> bool:
    """The defining relation in the model: (0 + 1*J)^2 == (mu^-1, 0)."""
    mu = mu_build(a, b)
    alg = RankOneAlgebra(mu)
    jj = alg.mul(alg.j(), alg.j())
    return jj.f == alg.mu_inv and jj.g.is_zero()


def quadratic_report(a, b) -> list[dict]:
    """Sweep all boundary-sign pairs for one (a, b) against one mu; rows for the CLI.

    Zeros and poles are ``[sign, e, mult]`` lists.
    """
    alg = RankOneAlgebra(mu_build(a, b))
    zeros = [[s, e, m] for (s, e), m in alg.mu.zeros]
    poles = [[s, e, m] for (s, e), m in alg.mu.poles]
    return [{
        "a": alg.mu.a,
        "b": alg.mu.b,
        "eps1": eps1,
        "epsm1": epsm1,
        "quadratic_ok": _quadratic_holds(alg, eps1, epsm1),
        "mu_zeros": zeros,
        "mu_poles": poles,
    } for eps1 in (1, -1) for epsm1 in (1, -1)]
