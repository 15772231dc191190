"""Computations the benchmark checks the program against.

None of these call into ``mphecke``: each recomputes an answer from the
defining formulas with plain ``Fraction`` and tuple arithmetic, so a
fault in the program's algebra cannot make its own check pass.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod


# ---------------------------------------------------------------------------
# Rank one: (T + 1)(T - q^(a+b)) in the (1, J) basis at u = 2
# ---------------------------------------------------------------------------

def q_power_at_u2(e: Fraction) -> Fraction:
    """q^e with q = u^4 evaluated at u = 2, for e in (1/4)Z."""
    k = e * 4
    if k.denominator != 1:
        raise ValueError(f"exponent {e} is not in (1/4)Z")
    return Fraction(2) ** int(k)


def rankone_verdict(a: Fraction, b: Fraction, eps1: int, epsm1: int,
                    build_signs: tuple[int, int] | None, x: Fraction) -> bool:
    """The verdict of the rank-one check, from the formulas of ``rankone``.

    T = f + g J with f = ((Q-1) X^2 - (q^b - q^a) X)/(X^2 - 1) and
    g = -e1 Q (times X when e1*b == e-1*b), where (e1, e-1) are the build
    signs.  The product uses J h(X) = h(1/X) J and J^2 = 1/mu, and is
    evaluated at u = 2 and the given point X.  The pole of J at X = +-1
    has leading scalar w(+-1) fixed by the actual signs (eps1, epsm1); T is
    regular there iff res_{X=+-1} f + g(+-1) w(+-1) = 0.
    """
    be1, bem1 = build_signs if build_signs is not None else (eps1, epsm1)
    qa, qb, Q = q_power_at_u2(a), q_power_at_u2(b), q_power_at_u2(a + b)
    x_branch = be1 * b == bem1 * b

    def f(t):
        return ((Q - 1) * t * t - (qb - qa) * t) / (t * t - 1)

    def g(t):
        return -be1 * Q * (t if x_branch else 1)

    def mu(t):
        return ((1 - t) * (1 - 1 / t) / ((1 - t / qa) * (1 - 1 / (t * qa)))
                * (1 + t) * (1 + 1 / t) / ((1 + t / qb) * (1 + 1 / (t * qb))))

    xi = 1 / x
    # (f1 + g1 J)(f2 + g2 J) = (f1 f2 + g1 g2(1/X) / mu) + (f1 g2 + g1 f2(1/X)) J
    f1, g1 = f(x) + 1, g(x)
    f2, g2 = f(x) - Q, g(x)
    one_part = f1 * f2 + g1 * g(xi) / mu(x)
    j_part = f1 * g2 + g1 * (f(xi) - Q)
    if one_part or j_part:
        return False
    w1 = Fraction(eps1, 2) * (1 - 1 / qa) * (1 + 1 / qb)
    wm1 = Fraction(epsm1, 2) * (1 + 1 / qa) * (1 - 1 / qb)
    res1 = ((Q - 1) - (qb - qa)) / 2 + g(Fraction(1)) * w1
    resm1 = -((Q - 1) + (qb - qa)) / 2 + g(Fraction(-1)) * wm1
    return res1 == 0 and resm1 == 0


def sample_point(rng, a: Fraction, b: Fraction) -> Fraction:
    """A random positive rational X away from 1 and the poles of mu at u = 2."""
    avoid = {Fraction(1), q_power_at_u2(a), 1 / q_power_at_u2(a)}
    while True:
        x = Fraction(rng.randint(2, 10 ** 9), rng.randint(2, 10 ** 9))
        if x not in avoid:
            return x


# ---------------------------------------------------------------------------
# Hecke algebras at u = 1: the group algebra Q[Lambda x| W] (x| R)
# ---------------------------------------------------------------------------
# A signed permutation is (perm, signs) with e_i -> signs[i] e_{perm[i]}.

def sp_act(w, v):
    perm, signs = w
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] += signs[i] * x
    return tuple(out)


def sp_mul(w, w2):
    """(w w2) acts as w after w2."""
    perm, signs = w
    perm2, signs2 = w2
    return (tuple(perm[perm2[i]] for i in range(len(perm))),
            tuple(signs2[i] * signs[perm2[i]] for i in range(len(perm))))


def sp_inv(w):
    perm, signs = w
    n = len(perm)
    p, s = [0] * n, [1] * n
    for i in range(n):
        p[perm[i]] = i
        s[perm[i]] = signs[i]
    return tuple(p), tuple(s)


def _add(out, key, c):
    c = out.get(key, 0) + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def group_algebra_product(x: dict, y: dict) -> dict:
    """(Z_lam w)(Z_mu w') = Z_{lam + w mu} w w' on {(lam, w): c} dicts."""
    out: dict = {}
    for (lam, w), c in x.items():
        for (mu, w2), c2 in y.items():
            wmu = sp_act(w, mu)
            _add(out, (tuple(a + b for a, b in zip(lam, wmu)), sp_mul(w, w2)), c * c2)
    return out


def extended_product(x: dict, y: dict, eta) -> dict:
    """(Z_lam w J_r)(Z_mu w' J_r') = eta(r, r') Z_{lam + w r mu} (w r w' r^-1) J_{r r'}."""
    out: dict = {}
    for (lam, w, r), c in x.items():
        rinv = sp_inv(r)
        for (mu, w2, r2), c2 in y.items():
            wrmu = sp_act(w, sp_act(r, mu))
            key = (tuple(a + b for a, b in zip(lam, wrmu)),
                   sp_mul(w, sp_mul(sp_mul(r, w2), rinv)), sp_mul(r, r2))
            _add(out, key, eta(r, r2) * c * c2)
    return out


# ---------------------------------------------------------------------------
# Block calculus: brute-force counts and closed-form group orders
# ---------------------------------------------------------------------------

def member_size(a: int, kappa: int) -> int:
    """sum_{k=1..a} (2k - kappa), summed term by term."""
    return sum(2 * k - kappa for k in range(1, a + 1))


def alternating_count(members: list[tuple[int, int]]) -> int:
    """Alternating characters of one anchor, by trying every sign vector.

    ``members`` lists (number of blocks, kappa) per member.  Signs must
    alternate down each member's staircase, and a member with kappa = 0
    starts with -1.
    """
    spans, pos = [], 0
    for nblocks, kappa in members:
        spans.append((pos, nblocks, kappa))
        pos += nblocks
    count = 0
    for bits in range(2 ** pos):
        signs = [-1 if bits >> i & 1 else 1 for i in range(pos)]
        ok = True
        for start, nblocks, kappa in spans:
            if nblocks and kappa == 0 and signs[start] != -1:
                ok = False
            for k in range(start + 1, start + nblocks):
                if signs[k] != -signs[k - 1]:
                    ok = False
        count += ok
    return count


def brute_force_blocks(param: dict) -> tuple[int, int, int]:
    """(anchor choices, blocks, support size) of a normed parameter in its JSON form.

    Anchor choices are all (a+, a-, m_gl) per self-dual class with
    m - 2 m_gl = size(a+, kappa+) + size(a-, kappa-); blocks are the
    anchor choices weighted by their alternating characters.
    """
    support = [c for c in param["classes"] if c["multiplicity"] > 0]
    per_class = []
    for c in support:
        if not c["self_dual"]:
            continue
        m, kp, km = c["multiplicity"], int(c["type_plus"]), int(c["type_minus"])
        per_class.append([
            [(ap, kp), (am, km)]
            for ap in range(m + 1) for am in range(m + 1) for mgl in range(m + 1)
            if m - 2 * mgl == member_size(ap, kp) + member_size(am, km)])
    n_s, n_blocks = 0, 0
    for combo in itertools.product(*per_class):
        n_s += 1
        n_blocks += alternating_count([mem for members in combo for mem in members])
    return n_s, n_blocks, len(support)


def label_weyl_order(label: str) -> int:
    """|W| of a component label by the closed formulas (A_k, B_k, C_k, D_k, empty)."""
    if label == "empty":
        return 1
    letter, k = label[0], int(label[1:])
    if letter == "A":
        return factorial(k + 1)
    if letter in "BC":
        return 2 ** k * factorial(k)
    if letter == "D":
        return 2 ** (k - 1) * factorial(k)
    raise ValueError(label)


def gl_r_order(descriptor: dict) -> int:
    """|R| for a GL ambient: a symmetric group S_k per line that is not gl_singular."""
    return prod(factorial(line["k"]) for line in descriptor["lines"] if not line["gl_singular"])
