"""The three workloads: seeded inputs, the timed operation, its check.

Each workload builds one round of operations from a seeded
``random.Random``; a run times passes over that round.  A round has a
fixed make-up (the same number of operations of each kind, whatever the
seed), and the parts of an input that set its cost (the rank-one scale g,
the Weyl elements and lattice vectors of a Hecke triple) come from a fixed
stream, so a round costs the same whatever the seed and the share of failed
operations is the same in every run.  The seed draws the rest: signs,
coefficients, block descriptors, the checks' evaluation points and the order.
``run`` is the only timed call; ``check`` and ``record`` run outside the
timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import reference as ref


@dataclass
class Op:
    kind: str
    args: tuple
    # A known program fault makes this operation fail on every run.
    known_fault: bool = False


class Raised:
    """Output of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text})"


# Source of each workload's fixed program objects.  ``run.py`` executes it
# in the benchmark process and, for setup_s, in fresh interpreters.
SETUP = {
    "rankone-sweep": "import mphecke.rankone\nfixed = None\n",
    "hecke-relations": """\
from fractions import Fraction as F
import mphecke.hecke as hk
from mphecke.rootdata import WeylElement, build_O_datum, classical_datum
a2 = classical_datum("GL", 3)[0]
b2 = classical_datum("SO_odd", 5)[0]
a1a1 = build_O_datum([("A1", 2, 1), ("A1", 2, 1)], 4)
d2 = classical_datum("SO_even", 4)[0]
fixed = {
    "A2": (a2, hk.HeckeParams(a2, (F(1), F(1)))),
    "B2": (b2, hk.HeckeParams(b2, (F(1), F(2)), {0: F(1)})),
    "A1xA1": (a1a1, hk.HeckeParams(a1a1, (F(1), F(3, 2)))),
    "D2": (d2, hk.HeckeParams(d2, (F(1), F(1)))),
    "flip": WeylElement((0, 1), (1, -1)),
}
fixed["cocycle"] = hk.Cocycle([WeylElement.identity(2), fixed["flip"]])
""",
    "block-calculus": "import mphecke.cli\nfixed = None\n",
}


def build_fixed(name: str):
    scope: dict = {}
    exec(SETUP[name], scope)
    return scope["fixed"]


# ---------------------------------------------------------------------------
# rankone-sweep
# ---------------------------------------------------------------------------

class RankOneSweep:
    """verify_quadratic on (a, b) in (1/4)Z with 0 <= b <= a, a > 0, seeded signs.

    (a, b) = g * (a', b') / 4 for a reduced shape (a', b') and a scale g
    with g * a' <= 12, so a <= 3.  The cost of a call is set mostly by the
    shape (the polynomials live in u^g), but g still moves it by up to a
    third, so g comes from a fixed stream while the signs, the order and
    the checks' evaluation points change with the seed.  The list of
    shapes is chosen so that one shape of nearly constant cost straddles
    the median (3/4 : 1/4) and another the 90th percentile (5/4 : 1) of a
    round; a percentile that fell between two shapes of different cost
    would jump from run to run.
    """

    MAX_A4 = 12
    EDGE = [(1, 0)] * 6 + [(1, 1)] * 5            # b = 0 or b = a
    MEDIAN = [(3, 1)] * 7
    # small nonzero b against larger a
    MID = [(2, 1), (5, 1), (5, 3), (7, 1), (7, 3), (9, 1), (11, 1)]
    # a = 5/4, b = 1 at g = 1 only: its cost rises with g, which would spread
    # the shape across the 90th percentile
    TAIL = [(5, 4)] * 5
    # negative controls: T built with eps1 flipped; they cost what MEDIAN costs
    CONTROLS = [(3, 1)] * 2
    SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def __init__(self, fixed, rng, check_rng, workdir: Path):
        import mphecke.rankone
        self.rankone = mphecke.rankone
        self.rng = rng
        self.shapes = random.Random("rankone-sweep:shapes")
        self.check_rng = check_rng

    def _op(self, shape, control=False, max_g=None):
        a1, b1 = shape
        g = self.shapes.randint(1, max_g or self.MAX_A4 // a1)
        eps1, epsm1 = self.rng.choice(self.SIGNS)
        build = (-eps1, epsm1) if control else None
        return Op("control" if control else "verify", (F(g * a1, 4), F(g * b1, 4), eps1, epsm1, build))

    def make_round(self) -> list[Op]:
        ops = [self._op(s) for s in self.EDGE + self.MEDIAN + self.MID]
        ops += [self._op(s, max_g=1) for s in self.TAIL]
        ops += [self._op(s, control=True) for s in self.CONTROLS]
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        a, b, eps1, epsm1, build = op.args
        return self.rankone.verify_quadratic(a, b, eps1, epsm1, build_signs=build)

    def check(self, op: Op, out) -> bool:
        a, b, eps1, epsm1, build = op.args
        if not isinstance(out, bool):
            return False
        if op.kind == "control" and out:
            return False
        x = ref.sample_point(self.check_rng, a, b)
        return out == ref.rankone_verdict(a, b, eps1, epsm1, build, x)

    def record(self, op: Op, out):
        a, b, eps1, epsm1, build = op.args
        return [str(a), str(b), eps1, epsm1, build, out]


# ---------------------------------------------------------------------------
# hecke-relations
# ---------------------------------------------------------------------------

def _hecke_u1(h) -> dict:
    """A Hecke element at u = 1 as {(lam, (perm, signs)): c}."""
    out: dict = {}
    for w, b in h.terms():
        for lam, c in b.terms():
            v = sum(coeff for _, coeff in c.items())
            if v:
                out[(lam, (w.perm, w.signs))] = v
    return out


def _ext_u1(x) -> dict:
    out: dict = {}
    for r, h in x.terms():
        for (lam, w), c in _hecke_u1(h).items():
            out[(lam, w, (r.perm, r.signs))] = c
    return out


def _hecke_json(h):
    return [[list(w.perm), list(w.signs), b.to_json()] for w, b in h.terms()]


def _ext_json(x):
    return [[list(r.perm), list(r.signs), _hecke_json(h)] for r, h in x.terms()]


class HeckeRelations:
    """Relation checks in affine Hecke algebras and one twisted extension.

    A round: five times over, for each of A2, B2 (with a q_i parameter,
    so both branches of the commutation rule run) and A1xA1, associativity
    of he_mul on triples of a fixed (lattice degree, terms) mix, with Weyl
    elements from the whole group, and associativity of ext_mul over the
    D2 flip R-group; then the quadratic and braid relations of the simple
    generators.  Every product is kept and checked at u = 1 against the
    group algebra Q[Lambda x| W].

    The cost of a triple follows its Weyl elements and lattice vectors (one
    degree-1 B2 triple takes from 0.6 ms to 0.3 s), so these come from a
    fixed stream and every seed gets the same shapes; the seed draws the
    coefficients (a sign and size, and u^0 or u^4) and the order.
    """

    # (lattice degree, terms per element) of each associativity triple in a
    # round.  B2 keeps to degree 1: its degree-2 triples vary in cost by up
    # to 50x from one triple to the next, and a few of them would set the
    # time of a whole run.
    MIX = {
        "A2": [(1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1), (2, 2)],
        "B2": [(1, 1), (1, 1), (1, 1), (1, 1), (1, 2)],
        "A1xA1": [(1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1), (2, 2)],
    }
    TYPES = tuple(MIX)
    EXT_MIX = [(1, 1), (1, 1), (2, 1)]
    COPIES = 5

    def __init__(self, fixed, rng, check_rng, workdir: Path):
        import mphecke.hecke
        from mphecke.laurent import GroupAlgebraElement, QLaurent
        from mphecke.rootdata import WeylElement, braid_order, weyl_enumerate
        self.hk = mphecke.hecke
        self.GA, self.QL, self.WE = GroupAlgebraElement, QLaurent, WeylElement
        self.fixed = fixed
        self.rng = rng
        self.shapes = random.Random("hecke-relations:shapes")
        self.weyl = {name: weyl_enumerate(fixed[name][0]) for name in self.TYPES + ("D2",)}
        self.relations = []
        for name in self.TYPES:
            d, _ = fixed[name]
            for i in range(d.num_simples()):
                self.relations.append(Op("quadratic", (name, i)))
            for i, j in itertools.combinations(range(d.num_simples()), 2):
                self.relations.append(Op("braid", (name, i, j, braid_order(i, j, d))))

    def _element(self, name, degree, nterms):
        d, p = self.fixed[name]
        out = self.hk.HeckeElement.zero(d, p)
        for _ in range(nterms):
            w = self.shapes.choice(self.weyl[name])
            lam = tuple(self.shapes.randint(-degree, degree) for _ in range(d.rank))
            coeff = self.QL({4 * self.rng.randint(0, 1): F(self.rng.choice((-3, -2, -1, 1, 2, 3)))})
            out = out + self.hk.HeckeElement.from_u(d, p, w, self.GA.monomial(lam, coeff))
        return out

    def _ext_element(self, degree, nterms):
        d, p = self.fixed["D2"]
        e, flip = self.WE.identity(2), self.fixed["flip"]
        terms = {r: self._element("D2", degree, nterms) for r in (e, flip)}
        return self.hk.ExtendedHeckeElement(d, p, self.fixed["cocycle"], terms)

    def make_round(self) -> list[Op]:
        ops = []
        for _ in range(self.COPIES):
            for name in self.TYPES:
                for degree, nterms in self.MIX[name]:
                    ops.append(Op("assoc", (name,) + tuple(self._element(name, degree, nterms) for _ in range(3))))
            for degree, nterms in self.EXT_MIX:
                ops.append(Op("ext-assoc", tuple(self._ext_element(degree, nterms) for _ in range(3))))
        ops += self.relations
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        """(verdict, [(x, y, x*y), ...]) with every product the check made."""
        mul = self.hk.he_mul
        if op.kind == "assoc":
            _, x, y, z = op.args
            xy, yz = mul(x, y), mul(y, z)
            lhs, rhs = mul(xy, z), mul(x, yz)
            return lhs == rhs, [(x, y, xy), (xy, z, lhs), (y, z, yz), (x, yz, rhs)]
        if op.kind == "ext-assoc":
            x, y, z = op.args
            emul = self.hk.ext_mul
            xy, yz = emul(x, y), emul(y, z)
            lhs, rhs = emul(xy, z), emul(x, yz)
            return lhs == rhs, [(x, y, xy), (xy, z, lhs), (y, z, yz), (x, yz, rhs)]
        name, i = op.args[:2]
        d, p = self.fixed[name]
        ui = self.hk.HeckeElement.u_simple(d, p, i)
        if op.kind == "quadratic":
            one = self.hk.HeckeElement.one(d, p)
            x, y = ui + one, ui - one.scale(p.q_alpha(i))
            lhs = mul(x, y)
            return lhs.is_zero(), [(x, y, lhs)]
        j, m = op.args[2:]
        uj = self.hk.HeckeElement.u_simple(d, p, j)
        products = []
        left, right = ui, uj
        for k in range(1, m):
            nl, nr = (uj, ui) if k % 2 else (ui, uj)
            products.append((left, nl, mul(left, nl)))
            products.append((right, nr, mul(right, nr)))
            left, right = products[-2][2], products[-1][2]
        return left == right, products

    def check(self, op: Op, out) -> bool:
        if isinstance(out, Raised) or out[0] is not True:
            return False
        if op.kind == "ext-assoc":
            eta = lambda r, r2: 1   # the cocycle of this R-group is trivial
            return all(_ext_u1(xy) == ref.extended_product(_ext_u1(x), _ext_u1(y), eta)
                       for x, y, xy in out[1])
        return all(_hecke_u1(xy) == ref.group_algebra_product(_hecke_u1(x), _hecke_u1(y))
                   for x, y, xy in out[1])

    def record(self, op: Op, out):
        if isinstance(out, Raised):
            return [op.kind, out]
        to_json = _ext_json if op.kind == "ext-assoc" else _hecke_json
        return [op.kind, out[0], [to_json(xy) for _, _, xy in out[1]]]


# ---------------------------------------------------------------------------
# block-calculus
# ---------------------------------------------------------------------------

# the normed-parameter pool of the acceptance suite (criteria 5-9)
POOL_CLASSES = (
    {"label": "gl", "d": 1, "t": 1, "self_dual": False, "type_plus": False, "type_minus": False},
    {"label": "ff", "d": 1, "t": 1, "self_dual": True, "type_plus": False, "type_minus": False},
    {"label": "tf", "d": 1, "t": 1, "self_dual": True, "type_plus": True, "type_minus": False},
    {"label": "ft", "d": 1, "t": 2, "self_dual": True, "type_plus": False, "type_minus": True},
    {"label": "tt", "d": 1, "t": 1, "self_dual": True, "type_plus": True, "type_minus": True},
    {"label": "tt2", "d": 1, "t": 2, "self_dual": True, "type_plus": True, "type_minus": True},
)


def pool_parameters(max_2n: int) -> list[dict]:
    out = []
    weights = [c["d"] * (1 if c["self_dual"] else 2) for c in POOL_CLASSES]
    for n2 in range(2, max_2n + 1, 2):
        for ms in itertools.product(*[range(n2 // w + 1) for w in weights]):
            if sum(m * w for m, w in zip(ms, weights)) == n2 and any(ms):
                out.append({"schema": "v1", "n": n2 // 2,
                            "classes": [dict(c, multiplicity=m) for c, m in zip(POOL_CLASSES, ms)]})
    return out


AMBIENTS = ("Mp", "Sp", "SO_odd", "SO_even", "O_even", "U", "GL")

MALFORMED = {
    # a float literal anywhere in the input is rejected
    "float-literal": '{"schema": "v1", "ambient": "Mp", "h_rank": 1, "lines": '
                     '[{"d": 1.0, "k": 2, "gl_singular": true, "boundary_pole": true, '
                     '"self_dual_T": true}]}',
    # 2 * 3 = 6 is not 2n = 4
    "dimension-identity": json.dumps({"schema": "v1", "n": 2, "classes": [
        {"label": "1", "d": 1, "t": 1, "self_dual": True, "multiplicity": 3}]}),
    # S_8 has 40320 elements, past the Weyl enumeration guard of 10000
    "r-group-guard": json.dumps({"schema": "v1", "ambient": "GL", "h_rank": 0, "lines": [
        {"d": 1, "k": 8, "gl_singular": False, "boundary_pole": False, "self_dual_T": False}]}),
}


class BlockCalculus:
    """In-process CLI invocations: mphecke.cli.main(argv), stdout captured.

    A round runs mp-enumerate and mp-match on every parameter of the pool
    (2n <= 8, 1189 parameters), blocks-classify on seeded descriptors,
    and four malformed inputs that must exit 2.  Two of those hit known
    faults and exit 1 with a traceback today.
    """

    MAX_2N = 8
    N_DESCRIPTORS = 150
    MAX_RANK = 4          # bounds the R-group at 2^4 * 4! = 384 elements

    def __init__(self, fixed, rng, check_rng, workdir: Path):
        import mphecke.cli
        self.cli = mphecke.cli
        self.rng = rng
        self.dir = workdir / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.params = {}
        for i, param in enumerate(pool_parameters(self.MAX_2N)):
            path = self._write(f"param-{i}.json", json.dumps(param))
            self.params[path] = param
        self.expected = {}
        self.descriptors = {}
        self.malformed = [
            Op("expect-2", ("blocks-classify", self._write("float.json", MALFORMED["float-literal"]))),
            Op("expect-2", ("mp-enumerate", self._write("dim.json", MALFORMED["dimension-identity"]))),
            Op("expect-2", ("blocks-classify", self._write("s8.json", MALFORMED["r-group-guard"])),
               known_fault=True),
            # exponents 4/3, 5/3 leave (1/4)Z
            Op("expect-2", ("rankone-verify", "--grid", "1..2", "--step", "1/3"), known_fault=True),
        ]

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def _descriptor(self) -> dict:
        ambient = self.rng.choice(AMBIENTS)
        h_ranks = (0, 2, 3) if ambient in ("SO_even", "O_even") else (0, 1, 2, 3)
        lines, budget = [], self.MAX_RANK
        while budget and (not lines or self.rng.random() < 0.5) and len(lines) < 3:
            k = self.rng.randint(1, budget)
            budget -= k
            self_dual = self.rng.random() < 0.7
            lines.append({"d": self.rng.randint(1, 3), "k": k,
                          "gl_singular": self.rng.random() < 0.5,
                          "boundary_pole": self_dual and self.rng.random() < 0.5,
                          "self_dual_T": self_dual, "tau_T": self.rng.random() < 0.5})
        return {"schema": "v1", "ambient": ambient, "h_rank": self.rng.choice(h_ranks), "lines": lines}

    def make_round(self) -> list[Op]:
        ops = [Op(verb, (verb, path)) for path in self.params for verb in ("mp-enumerate", "mp-match")]
        for i in range(self.N_DESCRIPTORS):
            desc = self._descriptor()
            path = self._write(f"descriptor-{i}.json", json.dumps(desc))
            self.descriptors[path] = desc
            ops.append(Op("blocks-classify", ("blocks-classify", path)))
        ops += self.malformed
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        """(exit code, stdout) of one CLI invocation."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(op.args))
            except SystemExit as e:
                code = e.code
            except Exception as e:   # an uncaught exception exits 1 from the shell
                return 1, Raised(e)
        return code, out.getvalue()

    def check(self, op: Op, out) -> bool:
        code, stdout = out
        if op.kind == "expect-2":
            return code == 2
        if code != 0:
            return False
        data = json.loads(stdout)
        path = op.args[1]
        if op.kind == "blocks-classify":
            desc = self.descriptors[path]
            w_o = 1
            for comp in data["components"]:
                w_o *= ref.label_weyl_order(comp["type"])
            if data["w_o_order"] != w_o or data["wmo_order"] != w_o * data["r_order"]:
                return False
            return desc["ambient"] != "GL" or data["r_order"] == ref.gl_r_order(desc)
        if path not in self.expected:
            self.expected[path] = ref.brute_force_blocks(self.params[path])
        n_s, n_blocks, n_support = self.expected[path]
        if op.kind == "mp-enumerate":
            return data["count"] == n_blocks == len(data["blocks"])
        return data["mismatches"] == 0 and len(data["rows"]) == n_s * n_support

    def record(self, op: Op, out):
        code, stdout = out
        argv = [Path(a).name if a.endswith(".json") else a for a in op.args]
        return [argv, code, stdout]


WORKLOADS = {
    "rankone-sweep": RankOneSweep,
    "hecke-relations": HeckeRelations,
    "block-calculus": BlockCalculus,
}
