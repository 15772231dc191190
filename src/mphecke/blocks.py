"""Classification of Bernstein blocks from declarative descriptors.

A descriptor lists, for a cuspidal pair in normalised position, one line
per inertial family of GL factors: block size d, multiplicity k, and four
analytic flags (whether the GL-adjacent reducibility function is singular,
whether the boundary one has a pole, and the two self-conjugacy flags).
From these the engine computes the components of the zero root system,
the R-group, the semidirect-product orders and the Hecke parameters.  The
analytic content of the flags is an input, never recomputed: the case
analysis itself is what this module implements.

Coordinates: line i with multiplicity k_i occupies k_i consecutive slots
of Z^N, N = sum k_i; a_{i,j} denotes f_j - f_{j+1} within the block for
j < k_i and f_{k_i} for the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .hecke import HeckeParams, InvalidParameters
from .jsonio import check_field_types
from .rootdata import (
    Component,
    WeylElement,
    build_O_datum,
    component_base,
    group_order,
    parse_label,
)

AMBIENTS = ("Mp", "Sp", "SO_odd", "SO_even", "O_even", "U", "GL")

# ambient kinds whose relative root system is of type B (the boundary
# weight is itself a root even when the semisimple anchor is trivial)
_TYPE_B_AMBIENTS = ("SO_odd", "U")


class DescriptorError(ValueError):
    pass


class InvalidInvariants(ValueError):
    pass


_LINE_FIELDS = (("d", int), ("k", int), ("gl_singular", bool), ("boundary_pole", bool),
                ("self_dual_T", bool), ("tau_T", bool))


@dataclass(frozen=True)
class CuspidalLine:
    d: int
    k: int
    gl_singular: bool
    boundary_pole: bool
    self_dual_T: bool
    tau_T: bool = False

    def __post_init__(self):
        check_field_types(self, _LINE_FIELDS, DescriptorError)
        if self.d < 1 or self.k < 1:
            raise DescriptorError("line sizes must be positive")
        if self.boundary_pole and not self.self_dual_T:
            raise DescriptorError("a boundary pole forces self-conjugacy")


@dataclass(frozen=True)
class BlockDescriptor:
    ambient: str
    h_rank: int
    lines: tuple[CuspidalLine, ...]

    def __post_init__(self):
        if self.ambient not in AMBIENTS:
            raise DescriptorError(f"unknown ambient {self.ambient!r}")
        check_field_types(self, (("h_rank", int),), DescriptorError)
        if self.h_rank < 0:
            raise DescriptorError("h_rank must be >= 0")
        if self.ambient in ("SO_even", "O_even") and self.h_rank == 1:
            raise DescriptorError("even orthogonal ambient requires h_rank != 1")
        object.__setattr__(self, "lines", tuple(self.lines))

    @property
    def ambient_rank(self) -> int:
        return sum(line.k for line in self.lines)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "ambient": self.ambient,
            "h_rank": self.h_rank,
            "lines": [
                {"d": l.d, "k": l.k, "gl_singular": l.gl_singular,
                 "boundary_pole": l.boundary_pole, "self_dual_T": l.self_dual_T,
                 "tau_T": l.tau_T}
                for l in self.lines
            ],
        }

    @classmethod
    def from_json(cls, data) -> "BlockDescriptor":
        lines = tuple(
            CuspidalLine(l["d"], l["k"], l["gl_singular"], l["boundary_pole"], l["self_dual_T"],
                         l.get("tau_T", False))
            for l in data["lines"])
        return cls(str(data["ambient"]), data["h_rank"], lines)


@dataclass(frozen=True)
class ClassifiedComponent:
    line: int
    label: str                       # "Bk", "Ck", "Dk", "A{k-1}", "B1", "C1", "empty"
    base: tuple[tuple[int, ...], ...]  # root vectors in Z^N
    slots: tuple[int, ...]

    def weyl_order(self) -> int:
        letter, k = parse_label(self.label)
        return Component(letter, k, 1, self.slots).weyl_order()


@dataclass(frozen=True)
class ClassifiedBlock:
    descriptor: BlockDescriptor
    components: tuple[ClassifiedComponent, ...]
    w_o_order: int
    r_generators: tuple[WeylElement, ...]
    r_order: int
    wmo_order: int
    r_report: tuple[dict, ...] = field(default=(), compare=False)
    r_external: bool = False

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "components": [
                {"line": c.line, "type": c.label, "base": [list(v) for v in c.base]}
                for c in self.components
            ],
            "w_o_order": self.w_o_order,
            "r_order": self.r_order,
            "wmo_order": self.wmo_order,
            "r_group": [dict(r) for r in self.r_report],
            "r_includes_external_generators": self.r_external,
        }


# ---------------------------------------------------------------------------
# helpers for the coordinate slots
# ---------------------------------------------------------------------------

def _line_offsets(bd: BlockDescriptor) -> list[int]:
    offs, cur = [], 0
    for line in bd.lines:
        offs.append(cur)
        cur += line.k
    return offs


def _boundary_is_double(bd: BlockDescriptor) -> bool:
    """Whether the boundary root is 2 a_{i,k_i} (anchor trivial, non-B ambient)."""
    return bd.h_rank == 0 and bd.ambient not in _TYPE_B_AMBIENTS and bd.ambient != "GL"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def classify(bd: BlockDescriptor, extra_r_generators: Sequence[WeylElement] = ()) -> ClassifiedBlock:
    """Compute the zero-root-system components and the R-group data.

    Per line: with the GL-adjacent function singular, a boundary pole
    gives type B_k (or C_k over a rank-0 anchor away from type-B
    ambients); no pole with the self-conjugacy flags gives D_k; otherwise
    A_{k-1}.  With the GL-adjacent function regular the first k-1 roots
    are removed from the component, leaving k copies of B_1/C_1 in the
    pole case and the empty system otherwise.  GL ambients only produce
    A_{k-1} or empty.  Degenerate labels (B1, C1, D1, D2) are kept.
    """
    n = bd.ambient_rank
    offs = _line_offsets(bd)
    double = _boundary_is_double(bd)
    gl = bd.ambient == "GL"
    comps: list[ClassifiedComponent] = []
    for i, line in enumerate(bd.lines):
        off, k = offs[i], line.k
        slots = tuple(range(off, off + k))
        consult_tau = bd.ambient == "SO_even" and line.d % 2 == 1
        if line.boundary_pole and not gl:
            letter = "C" if double else "B"
            if line.gl_singular:
                specs = [(f"{letter}{k}", slots)]
            else:
                specs = [(f"{letter}1", (s,)) for s in slots]
        elif line.self_dual_T and not gl and (line.tau_T or not consult_tau):
            specs = [(f"D{k}" if line.gl_singular else "empty", slots)]
        else:
            specs = [(f"A{k - 1}" if line.gl_singular and k >= 2 else "empty", slots)]
        comps.extend(ClassifiedComponent(i, label, component_base(label, s, n), s)
                     for label, s in specs)

    w_o = 1
    for c in comps:
        w_o *= c.weyl_order()
    gens, report, external = _r_group_data(bd, comps, extra_r_generators)
    r_order = group_order(gens, n)
    return ClassifiedBlock(bd, tuple(comps), w_o, tuple(gens), r_order, w_o * r_order,
                           tuple(report), external)


def _r_group_data(bd: BlockDescriptor, comps: Sequence[ClassifiedComponent],
                  extra: Sequence[WeylElement]):
    n = bd.ambient_rank
    offs = _line_offsets(bd)
    gens: list[WeylElement] = []
    report: list[dict] = []

    def transposition(p: int, q: int) -> WeylElement:
        perm = list(range(n))
        perm[p], perm[q] = q, p
        return WeylElement(tuple(perm), (1,) * n)

    def flip(p: int) -> WeylElement:
        signs = [1] * n
        signs[p] = -1
        return WeylElement(tuple(range(n)), tuple(signs))

    d_lines = {c.line for c in comps if c.label.startswith("D")}
    for i, line in enumerate(bd.lines):
        off, k = offs[i], line.k
        entry: dict = {"line": i}
        if bd.ambient == "GL":
            if not line.gl_singular and k >= 2:
                for j in range(k - 1):
                    gens.append(transposition(off + j, off + j + 1))
                entry.update(kind="symmetric", degree=k)
            else:
                entry.update(kind="trivial")
            report.append(entry)
            continue
        if line.gl_singular:
            if i in d_lines:
                gens.append(flip(off + k - 1))
                entry.update(kind="order2", generator="boundary flip")
            else:
                entry.update(kind="trivial")
        else:
            names = []
            for j in range(k - 1):
                gens.append(transposition(off + j, off + j + 1))
            if k >= 2:
                names.append(f"symmetric({k})")
            if line.self_dual_T and k >= 2:
                p, q = off + k - 2, off + k - 1
                gens.append(transposition(p, q) * flip(p) * flip(q))
                names.append("twisted swap")
            if line.self_dual_T and not line.boundary_pole:
                gens.append(flip(off + k - 1))
                names.append("boundary flip")
            entry.update(kind="+".join(names) if names else "trivial")
        report.append(entry)

    if bd.ambient in ("SO_even",):
        eligible = [i for i, line in enumerate(bd.lines)
                    if line.d % 2 == 1 and line.self_dual_T and not line.tau_T]
        if len(eligible) >= 2:
            first = eligible[0]
            for j in eligible[1:]:
                w = flip(offs[first] + bd.lines[first].k - 1) * flip(offs[j] + bd.lines[j].k - 1)
                gens.append(w)
            report.append({"line": None, "kind": "even boundary-flip products",
                           "lines": eligible})

    gens.extend(extra)
    return gens, report, bool(extra)


# ---------------------------------------------------------------------------
# Hecke parameters from a classified block
# ---------------------------------------------------------------------------

def hecke_from_block(cb: ClassifiedBlock, invariants: Sequence[tuple[Fraction, Fraction]]) -> HeckeParams:
    """The Hecke parameters of a classified block; its R-group generators,
    which extend the algebra, are ``cb.r_generators``.

    ``invariants`` lists one exponent pair (a_s, a_{s,-}) per simple root
    of the classified components, flattened in component order; the
    parameters are q_alpha = q^(a_s + a_{s,-}) per root and
    q_i = q^(a_s - a_{s,-}) per type-B component.  A nonzero a_{s,-} is
    legal only on the short root of a type-B component (after the C -> B
    conversion); anywhere else it raises InvalidInvariants.  So does an
    R-group generator that carries a simple root to one with other
    parameters.
    """
    datum = build_O_datum([(c.label, len(c.slots), 1) for c in cb.components],
                          cb.descriptor.ambient_rank)
    flat = [(Fraction(a), Fraction(b)) for a, b in invariants]
    if len(flat) != datum.num_simples():
        raise InvalidInvariants(
            f"need {datum.num_simples()} exponent pairs, got {len(flat)}")

    alpha_exp: list[Fraction] = []
    qi_exp: dict[int, Fraction] = {}
    pairs = iter(flat)
    for ci, (c, comp) in enumerate(zip(cb.components, datum.components)):
        for j in range(len(c.base)):
            a, am = next(pairs)
            if not (a >= am >= 0):
                raise InvalidInvariants("exponents must satisfy a_s >= a_{s,-} >= 0")
            # at t = 1 the short root e_i of a type-B component has coroot 2 e_i in 2*Lambda^
            is_short_b = comp.letter == "B" and j == len(c.base) - 1
            if am != 0 and not is_short_b:
                raise InvalidInvariants(
                    "a_{s,-} != 0 is only allowed on the short root of a type-B component")
            alpha_exp.append(a + am)
            if is_short_b:
                qi_exp[ci] = a - am
    try:
        params = HeckeParams(datum, tuple(alpha_exp), qi_exp)  # conjugacy + q_i placement
    except InvalidParameters as e:
        raise InvalidInvariants(str(e))
    _check_r_keeps_parameters(params, cb.r_generators)
    return params


def _check_r_keeps_parameters(params: HeckeParams, r_generators: Sequence[WeylElement]) -> None:
    """R acts on the Hecke algebra only if it keeps the parameters.

    Each generator r must carry every simple root alpha_i to a simple root
    alpha_j, up to sign, with a(alpha_j) = a(alpha_i), and a simple root
    carrying q_i to one carrying the same q_i.
    """
    simples = params.datum.simple_roots()
    alpha_exp, table = params.alpha_exp, params.simples
    index = {}
    for i, root in enumerate(simples):
        index[root] = index[tuple(-x for x in root)] = i
    for r in r_generators:
        for i, root in enumerate(simples):
            j = index.get(r.act(root))
            if j is None:
                raise InvalidInvariants("an R-group generator does not permute the simple roots")
            if alpha_exp[j] != alpha_exp[i] or table[j].qi != table[i].qi:
                raise InvalidInvariants(
                    f"an R-group generator carries simple root {i} to simple root {j}, "
                    "which has other parameters")
