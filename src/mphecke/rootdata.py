"""Classical based root data and their Weyl groups as signed permutations.

A datum carries an explicit list of positive (root, coroot) pairs inside
``Z^rank`` with the standard pairing, a base, and per-component metadata
(type letter, size, orbit rescaling ``t``).  Roots are int tuples and
coroots ``Fraction`` tuples (a coroot is rational once ``t > 1``); the
classical data and the classified ones come from one component emitter.
Weyl elements are concrete signed permutations, so lengths, actions and
reduced words are exact integer computations and word reduction is
verification rather than definition.

Degenerate components keep their labels: a B_1 or C_1 component is a
single root, a D_1 component is an empty root system occupying one
lattice slot, and D_2 is two orthogonal roots under one label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def _vec(xs: Iterable) -> Vec:
    return tuple(Fraction(x) for x in xs)


def pair(a: Sequence, b: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# Signed permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylElement:
    """A signed permutation of coordinates: e_i -> signs[i] * e_{perm[i]}."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise ValueError("not a permutation")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        return cls(tuple(range(n)), (1,) * n)

    @property
    def rank(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.rank)) and all(s == 1 for s in self.signs)

    def act(self, v: Sequence) -> tuple:
        """The image of v, with no coercion: ints stay ints, Fractions stay Fractions."""
        out = [0] * self.rank
        for i, x in enumerate(v):
            out[self.perm[i]] = self.signs[i] * x
        return tuple(out)

    def __mul__(self, o: "WeylElement") -> "WeylElement":
        """Composition: (self*o) acts as self after o."""
        perm = tuple(self.perm[o.perm[i]] for i in range(self.rank))
        signs = tuple(o.signs[i] * self.signs[o.perm[i]] for i in range(self.rank))
        return WeylElement(perm, signs)

    def inverse(self) -> "WeylElement":
        perm = [0] * self.rank
        signs = [1] * self.rank
        for i in range(self.rank):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return WeylElement(tuple(perm), tuple(signs))


def reflection(root: Sequence, coroot: Sequence, rank: int) -> WeylElement:
    """The reflection v -> v - <v, coroot> root, as a signed permutation."""
    root = _vec(root)
    coroot = _vec(coroot)
    perm = [0] * rank
    signs = [1] * rank
    for i in range(rank):
        img = [Fraction(1) if j == i else Fraction(0) for j in range(rank)]
        c = coroot[i]
        img = [x - c * r for x, r in zip(img, root)]
        support = [j for j, x in enumerate(img) if x]
        if len(support) != 1 or abs(img[support[0]]) != 1:
            raise ValueError("reflection is not a signed permutation on this lattice")
        perm[i] = support[0]
        signs[i] = 1 if img[support[0]] > 0 else -1
    return WeylElement(tuple(perm), tuple(signs))


# ---------------------------------------------------------------------------
# Based root data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    letter: str          # "A", "B", "C", "D" or "empty"
    k: int               # subscript of the type label
    scale: int           # orbit rescaling t (roots are t * standard)
    slots: tuple[int, ...]

    @property
    def label(self) -> str:
        if self.letter == "empty":
            return "empty"
        return f"{self.letter}{self.k}"

    def weyl_order(self) -> int:
        if self.letter == "empty":
            return 1
        k = self.k
        if self.letter == "A":
            return factorial(k + 1)
        if self.letter in ("B", "C"):
            return 2 ** k * factorial(k)
        if self.letter == "D":
            return 2 ** (k - 1) * factorial(k) if k >= 1 else 1
        raise ValueError(self.letter)


@dataclass(frozen=True)
class BasedRootDatum:
    rank: int
    # (root, coroot): stored as an int root in Z^rank and a Fraction coroot in Q^rank
    pos_roots: tuple[tuple[tuple[int, ...], Vec], ...]
    base: tuple[int, ...]                    # indices into pos_roots
    components: tuple[Component, ...] = ()
    # built once in __post_init__ from the fields above, never written again
    _simple_reflections: tuple[WeylElement, ...] = field(init=False, repr=False, compare=False)
    _root_signs: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _simple_roots: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = []
        for root, coroot in self.pos_roots:
            if len(root) != self.rank or len(coroot) != self.rank:
                raise ValueError("root length mismatch")
            int_root = tuple(map(int, root))
            if int_root != tuple(root):
                raise ValueError("roots must lie in the lattice Z^rank")
            coroot = _vec(coroot)
            if pair(int_root, coroot) != 2:
                raise ValueError(f"<a, a^> != 2 for {root}, {coroot}")
            pos.append((int_root, coroot))
        object.__setattr__(self, "pos_roots", tuple(pos))
        roots = {r for r, _ in self.pos_roots}
        for r in roots:
            # as this runs over every root, it also catches a root whose half is one
            if tuple(2 * x for x in r) in roots:
                raise ValueError("root system is not reduced")
            if tuple(-x for x in r) in roots:
                raise ValueError("positive roots contain an opposite pair")
        # every positive root is a nonnegative integer combination of the base
        simples = [self.pos_roots[i][0] for i in self.base]
        if simples and matrix_rank(simples) != len(simples):
            raise ValueError("base is not linearly independent")
        for r, _ in self.pos_roots:
            coeffs = solve_in_span(simples, r)
            if coeffs is None or any(c < 0 or c.denominator != 1 for c in coeffs):
                raise ValueError(f"root {r} is not a nonnegative base combination")
        object.__setattr__(self, "_simple_reflections", tuple(
            reflection(root, coroot, self.rank) for root, coroot in self.simple_pairs()))
        signs = {r: 1 for r in roots}
        signs.update((tuple(-x for x in r), -1) for r in roots)
        object.__setattr__(self, "_root_signs", signs)
        object.__setattr__(self, "_simple_roots", tuple(self.pos_roots[i][0] for i in self.base))

    # -- views ---------------------------------------------------------------

    def simple_pairs(self) -> list[tuple[tuple[int, ...], Vec]]:
        return [self.pos_roots[i] for i in self.base]

    def simple_reflection(self, i: int) -> WeylElement:
        return self._simple_reflections[i]

    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        """The simple roots, in base order."""
        return self._simple_roots

    def num_simples(self) -> int:
        return len(self.base)

    def root_sign(self, v: Sequence) -> int | None:
        """+1 / -1 if v is a positive/negative root of the datum, else None.

        ``v`` may hold ints or Fractions: ``hash(Fraction(n)) == hash(n)``.
        """
        return self._root_signs.get(v)

    def weyl_order(self) -> int:
        out = 1
        for c in self.components:
            out *= c.weyl_order()
        return out

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "components": [
                {"type": c.label, "size": len(c.slots), "t": c.scale, "slots": list(c.slots)}
                for c in self.components
            ],
        }


@dataclass(frozen=True)
class DiagramAutomorphism:
    """An automorphism of the datum permuting the base; carried as its lattice map."""

    map: WeylElement
    datum: BasedRootDatum

    def __post_init__(self):
        simples = set(self.datum.simple_roots())
        if any(self.map.act(r) not in simples for r in simples):
            raise ValueError("automorphism does not permute the base")
        # pairings are preserved by any signed permutation acting on both sides


# ---------------------------------------------------------------------------
# Construction of the classical data
# ---------------------------------------------------------------------------

def classical_datum(kind: str, size: int) -> tuple[BasedRootDatum, DiagramAutomorphism | None]:
    """Standard datum for GL_m, SO_odd(2n+1), Sp(2n), SO_even(2n), O_even(2n).

    O_even returns the SO_even datum together with the order-2 diagram
    automorphism (the outer flip); all other kinds return (datum, None).
    A size with no roots keeps the label "empty", except SO_even(2),
    which is D1.
    """
    if kind == "GL":
        if size < 1:
            raise ValueError("GL size must be >= 1")
        letter, n = "A", size
    elif kind == "SO_odd":
        if size < 1 or size % 2 == 0:
            raise ValueError("SO_odd size must be odd and >= 1")
        letter, n = "B", (size - 1) // 2
    elif kind == "Sp":
        if size < 0 or size % 2:
            raise ValueError("Sp size must be even")
        letter, n = "C", size // 2
    elif kind in ("SO_even", "O_even"):
        if size < 0 or size % 2:
            raise ValueError("even orthogonal size must be even")
        letter, n = "D", size // 2
        if kind == "O_even" and n < 1:
            raise ValueError("O_even needs size >= 2")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    k = n - 1 if letter == "A" else n
    if k == 0:
        letter = "empty"
    slots = tuple(range(n))
    pos: list = []
    base: list[int] = []
    _emit_component(pos, base, letter, k, 1, slots, n)
    datum = BasedRootDatum(n, tuple(pos), tuple(base), (Component(letter, k, 1, slots),))
    if kind != "O_even":
        return datum, None
    flip = WeylElement(tuple(range(n)), tuple([1] * (n - 1) + [-1]))
    return datum, DiagramAutomorphism(flip, datum)


def build_O_datum(components: Sequence[tuple[str, int, int]], ambient_rank: int) -> BasedRootDatum:
    """Assemble the rescaled datum from classified components.

    ``components`` is a list of (type_label, size, t) laid out on
    consecutive coordinate slots of Z^ambient_rank; labels are one of
    A{k-1} (on k slots), B{k}, C{k}, D{k}, B1, C1, D1, "empty".  A type-C
    component is emitted with type label B: its rescaled long root becomes
    the short root of a B-shaped system.  Roots are t * standard and
    coroots standard / t, so <a, a^> = 2 always holds.
    """
    pos: list = []
    base: list[int] = []
    comps: list[Component] = []
    offset = 0
    for label, size, t in components:
        letter, sub = parse_label(label)
        if letter == "A" and sub != size - 1:
            raise ValueError(f"A-component {label} must occupy {sub + 1} slots, got {size}")
        if letter in ("B", "C", "D") and sub != size:
            raise ValueError(f"component {label} must occupy {sub} slots, got {size}")
        if offset + size > ambient_rank:
            raise ValueError("component supports overlap the ambient rank")
        slots = tuple(range(offset, offset + size))
        emitted_letter = "B" if letter == "C" else letter
        _emit_component(pos, base, emitted_letter, sub, t, slots, ambient_rank)
        comps.append(Component(emitted_letter, sub, t, slots))
        offset += size
    return BasedRootDatum(ambient_rank, tuple(pos), tuple(base), tuple(comps))


def parse_label(label: str) -> tuple[str, int]:
    if label == "empty":
        return "empty", 0
    letter = label[0]
    if letter not in "ABCD":
        raise ValueError(f"bad component label {label!r}")
    return letter, int(label[1:])


def _emit_component(pos, base, letter, k, t, slots, n):
    """Append one component's positive (root, coroot) pairs to ``pos`` and its base to ``base``.

    The component lies on ``slots`` of Z^n.  Each standard positive root
    v (e_i - e_j; also e_i + e_j outside type A, e_i in type B and 2 e_i
    in type C) gives the root t * v and the coroot 2 v / (t <v, v>).
    """
    if letter == "empty" or (letter == "D" and k == 1):
        return
    m = len(slots)

    def add(v: dict[int, int], simple: bool):
        norm = t * sum(c * c for c in v.values())
        root, coroot = [0] * n, [Fraction(0)] * n
        for j, c in v.items():
            root[slots[j]] = t * c
            coroot[slots[j]] = Fraction(2 * c, norm)
        if simple:
            base.append(len(pos))
        pos.append((tuple(root), tuple(coroot)))

    for i in range(m):
        for j in range(i + 1, m):
            add({i: 1, j: -1}, j == i + 1)
            if letter != "A":
                add({i: 1, j: 1}, letter == "D" and j == m - 1 and i == m - 2)
    if letter in ("B", "C"):
        c = 1 if letter == "B" else 2
        for i in range(m):
            add({i: c}, i == m - 1)


# ---------------------------------------------------------------------------
# Weyl group operations
# ---------------------------------------------------------------------------

def weyl_length(w: WeylElement, d: BasedRootDatum) -> int:
    """Number of positive roots sent to negative roots by w."""
    if w.rank != d.rank:
        raise ValueError("rank mismatch")
    count = 0
    for r, _ in d.pos_roots:
        if d.root_sign(w.act(r)) == -1:
            count += 1
    return count


def reduced_word(w: WeylElement, d: BasedRootDatum) -> list[int]:
    """A reduced word for w in the simple reflections of d.

    Uses the descent recursion: l(w s_i) < l(w) exactly when w(alpha_i)
    is negative.  The returned list multiplies left-to-right to w and has
    length weyl_length(w, d); an element outside the Weyl group of the
    datum raises ValueError.
    """
    simples = d.simple_roots()
    word: list[int] = []
    cur = w
    for _ in range(len(d.pos_roots) + 1):
        if cur.is_identity():
            word.reverse()
            return word
        for i, root in enumerate(simples):
            if d.root_sign(cur.act(root)) == -1:
                word.append(i)
                cur = cur * d.simple_reflection(i)
                break
        else:
            raise ValueError("element is not in the Weyl group of the datum")
    raise ValueError("element is not in the Weyl group of the datum")


def braid_order(i: int, j: int, d: BasedRootDatum) -> int:
    """Order of s_i s_j for two distinct simple reflections."""
    if i == j:
        raise ValueError("need two distinct simple roots")
    prod = d.simple_reflection(i) * d.simple_reflection(j)
    cur = prod
    for m in range(1, 7):
        if cur.is_identity():
            if m not in (2, 3, 4):
                raise ValueError(f"unexpected braid order {m}")
            return m
        cur = cur * prod
    raise ValueError("braid order exceeds classical bound")


def coroot_in_2Lambda(coroot: Sequence) -> bool:
    """Whether the coroot lies in 2 * Z^rank (every coordinate an even integer)."""
    for x in coroot:
        x = Fraction(x)
        if x.denominator != 1 or x.numerator % 2:
            return False
    return True


WEYL_ENUM_GUARD = 10_000


def weyl_enumerate(d: BasedRootDatum) -> list[WeylElement]:
    """All elements of the Weyl group of d (guarded closure of the simples)."""
    order = d.weyl_order()
    if order > WEYL_ENUM_GUARD:
        raise ValueError(f"Weyl group of order {order} exceeds enumeration guard")
    gens = [d.simple_reflection(i) for i in range(d.num_simples())]
    return group_closure(gens, d.rank, WEYL_ENUM_GUARD)


def group_closure(gens: Sequence[WeylElement], rank: int, guard: int = WEYL_ENUM_GUARD) -> list[WeylElement]:
    seen = {WeylElement.identity(rank)}
    frontier = [WeylElement.identity(rank)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = w * g
                if x not in seen:
                    if len(seen) >= guard:
                        raise ValueError("group closure exceeds guard")
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(seen, key=lambda w: (w.perm, w.signs))


def _signed_points(w: WeylElement) -> tuple[int, ...]:
    """w as a permutation of the 2n signed points: i is e_i, n + i is -e_i."""
    n = w.rank
    img = [0] * (2 * n)
    for i, (p, s) in enumerate(zip(w.perm, w.signs)):
        img[i], img[n + i] = (p, n + p) if s == 1 else (n + p, p)
    return tuple(img)


def group_order(gens: Sequence[WeylElement], rank: int, guard: int = WEYL_ENUM_GUARD) -> int:
    """|<gens>| without listing the group: Schreier-Sims on the 2*rank signed points.

    The deterministic form (Sims 1970; Seress, Permutation Group
    Algorithms, CUP 2003, section 4.2): a base b_0, b_1, ... and per level i
    the strong generators fixing b_0..b_{i-1}, with a transversal of the
    orbit of b_i.  Level i is complete when every Schreier generator
    u_{s beta}^-1 s u_beta sifts to the identity through the levels below
    it; a residue that does not becomes a new strong generator.  The
    order is the product of the orbit lengths.  Past ``guard`` it raises
    the same ValueError as ``group_closure``, so order == guard passes.
    """
    ident = tuple(range(2 * rank))

    def mul(a, b):          # a after b
        return tuple(a[x] for x in b)

    def inv(a):
        out = [0] * len(a)
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    base: list[int] = []
    strong: list[tuple[int, ...]] = []
    for g in gens:
        g = _signed_points(g)
        if g != ident:
            if all(g[b] == b for b in base):
                base.append(next(x for x in ident if g[x] != x))
            strong.append(g)
    levels: list[dict[int, tuple]] = [{} for _ in base]   # orbit point -> (u, u^-1)
    level_gens: list[list[tuple]] = [[] for _ in base]

    def rebuild(i: int):
        sgens = [g for g in strong if all(g[b] == b for b in base[:i])]
        orbit = {base[i]: (ident, ident)}
        frontier = [base[i]]
        while frontier:
            nxt = []
            for beta in frontier:
                u = orbit[beta][0]
                for g in sgens:
                    gamma = g[beta]
                    if gamma not in orbit:
                        v = mul(g, u)
                        orbit[gamma] = (v, inv(v))
                        nxt.append(gamma)
            frontier = nxt
        level_gens[i] = sgens
        levels[i] = orbit
        if prod(len(lv) for lv in levels) > guard:
            raise ValueError("group closure exceeds guard")

    def sift(h, j: int):
        """Strip h level by level from j on: (residue, level where it stopped)."""
        while j < len(base) and h != ident:
            step = levels[j].get(h[base[j]])
            if step is None:
                break
            h = mul(step[1], h)
            j += 1
        return h, j

    def schreier_residue(i: int):
        for beta, (u, _) in levels[i].items():
            for g in level_gens[i]:
                h, j = sift(mul(levels[i][g[beta]][1], mul(g, u)), i + 1)
                if h != ident:
                    return h, j
        return None, None

    for i in range(len(base)):
        rebuild(i)
    i = len(base) - 1
    while i >= 0:
        residue, j = schreier_residue(i)
        if residue is None:
            i -= 1
            continue
        strong.append(residue)
        if j == len(base):
            base.append(next(x for x in ident if residue[x] != x))
            levels.append({})
            level_gens.append([])
        for level in range(i + 1, j + 1):
            rebuild(level)
        i = j
    return prod(len(lv) for lv in levels)


# ---------------------------------------------------------------------------
# Exact linear algebra helpers
# ---------------------------------------------------------------------------

def _row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place on the first ``ncols`` columns.

    Returns the pivot columns; pivot row i holds a 1 in column i of the
    result and zeros above and below it.
    """
    piv_cols: list[int] = []
    r = 0
    for col in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(col)
        r += 1
    return piv_cols


def solve_in_span(vectors: Sequence[Vec], target: Sequence) -> list[Fraction] | None:
    """Coefficients c with sum c_i vectors[i] == target, or None (exact).

    Free variables are set to zero.
    """
    if not vectors:
        return [] if all(Fraction(x) == 0 for x in target) else None
    m = len(vectors)
    rows = [[Fraction(v[i]) for v in vectors] + [Fraction(target[i])]
            for i in range(len(vectors[0]))]
    piv_cols = _row_reduce(rows, m)
    if any(row[m] for row in rows[len(piv_cols):]):
        return None
    coeffs = [Fraction(0)] * m
    for i, col in enumerate(piv_cols):
        coeffs[col] = rows[i][m]
    return coeffs


def matrix_rank(rows: Sequence[Sequence]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    return len(_row_reduce(mat, len(mat[0])))
