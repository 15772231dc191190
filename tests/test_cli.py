import hashlib
import json

from fractions import Fraction as F

import pytest

from mphecke import cli
from mphecke.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weil_example(capsys):
    code, out, _ = run(capsys, "weil-example", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["even"]["presentation"]["exponents"] == [1, 1]
    assert data["even"]["presentation"]["qi"] == 0
    assert data["odd"]["presentation"]["special"] == 2
    assert data["odd"]["display_matches_reference"] is False


def test_weil_example_deterministic(capsys):
    _, out1, _ = run(capsys, "weil-example", "--n", "3")
    _, out2, _ = run(capsys, "weil-example", "--n", "3")
    assert out1 == out2


def test_rankone_verify_small_grid(capsys):
    code, out, _ = run(capsys, "rankone-verify", "--grid", "1/2..1")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"]
    seen = {(r["a"], r["b"]) for r in data["results"]}
    assert seen == {("1/2", "1/2"), (1, "1/2"), (1, 1)}


def test_rankone_bad_grid(capsys):
    code, _, err = run(capsys, "rankone-verify", "--grid", "nonsense")
    assert code == 2 and "grid" in err


@pytest.mark.parametrize("option, value", [("--step", "1/0"), ("--grid", "1/0..2")])
def test_rankone_zero_denominator_exits_2(capsys, option, value):
    code, out, err = run(capsys, "rankone-verify", option, value)
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


def test_grid_is_counted_before_it_is_built(capsys, monkeypatch):
    # 1/2..1 at the default step 1/2 has 2 points
    _, full, _ = run(capsys, "rankone-verify", "--grid", "1/2..1")
    monkeypatch.setattr(cli, "GRID_GUARD", 2)
    assert run(capsys, "rankone-verify", "--grid", "1/2..1") == (0, full, "")
    monkeypatch.setattr(cli, "GRID_GUARD", 1)
    code, out, err = run(capsys, "rankone-verify", "--grid", "1/2..1")
    assert code == 2 and out == "" and "2 points exceeds the grid guard of 1" in err
    # the count alone decides: a grid of about 10^20 points is refused without building it
    with pytest.raises(cli.InputError, match="400000000000000000001 points"):
        cli.parse_grid(f"0..{10 ** 20}", F(1, 4))


def test_grid_guard_bounds_the_pairs_of_the_sweep(capsys, monkeypatch):
    # one quadratic_report, of four rows, per pair a >= b: p (p + 1) / 2 pairs for p positive points
    monkeypatch.setattr(cli, "GRID_GUARD", 3)
    code, out, _ = run(capsys, "rankone-verify", "--grid", "1/2..3/2")
    assert code == 0 and len(json.loads(out)["results"]) == 4 * 3 * 4 // 2
    monkeypatch.setattr(cli, "GRID_GUARD", 2)
    assert run(capsys, "rankone-verify", "--grid", "1/2..3/2")[0] == 2
    monkeypatch.undo()
    # at about 13 ms per pair, the largest accepted grid runs in minutes, not hours
    assert cli.GRID_GUARD * (cli.GRID_GUARD + 1) // 2 <= 10_000
    assert len(cli.parse_grid(f"1..{cli.GRID_GUARD}", F(1))) == cli.GRID_GUARD
    with pytest.raises(cli.InputError, match=f"grid of {cli.GRID_GUARD + 1} points exceeds"):
        cli.parse_grid(f"0..{cli.GRID_GUARD}", F(1))


@pytest.mark.parametrize("spec, step", [("0..0", "1"), ("1/2..3", "1/2"), ("-1..7/3", "2/3"),
                                        ("0..1", "3/4"), ("1..2", "1/3"), ("-5/4..5/4", "1/4")])
def test_grid_points_match_stepping_from_lo(spec, step):
    lo, hi = map(F, spec.split(".."))
    step = F(step)
    stepped = []
    x = lo
    while x <= hi:
        stepped.append(x)
        x += step
    assert cli.parse_grid(spec, step) == stepped


def test_hecke_check(capsys):
    code, out, _ = run(capsys, "hecke-check", "--max-rank", "2")
    assert code == 0
    assert json.loads(out)["all_ok"]


def test_hecke_check_selecting_no_datum_exits_2(capsys):
    # every datum of the suite has rank 2 or more
    code, out, err = run(capsys, "hecke-check", "--max-rank", "1")
    assert code == 2 and out == "" and "selects no datum" in err


def test_blocks_classify(tmp_path, capsys):
    spec = {
        "schema": "v1",
        "ambient": "Mp",
        "h_rank": 1,
        "lines": [{"d": 1, "k": 3, "gl_singular": True, "boundary_pole": True,
                   "self_dual_T": True, "tau_T": False}],
    }
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "blocks-classify", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["components"][0]["type"] == "B3"
    assert data["wmo_order"] == 48


def test_blocks_classify_invariant_violation(tmp_path, capsys):
    spec = {
        "schema": "v1", "ambient": "SO_even", "h_rank": 1,
        "lines": [{"d": 1, "k": 2, "gl_singular": True, "boundary_pole": False,
                   "self_dual_T": True, "tau_T": True}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "blocks-classify", str(path))
    assert code == 2 and "descriptor" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "blocks-classify", "/nonexistent/x.json")
    assert code == 2


def phi0_spec(**kw):
    base = {
        "schema": "v1",
        "n": 2,
        "classes": [{"label": "1", "d": 1, "t": 1, "self_dual": True,
                     "type_plus": False, "type_minus": False, "multiplicity": 4}],
    }
    base.update(kw)
    return base


def test_mp_enumerate(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi0_spec()))
    code, out, _ = run(capsys, "mp-enumerate", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4   # 4 anchor choices, each with one character
    assert all(b["epsilon_Z"] in (1, -1) for b in data["blocks"])


def test_mp_match(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi0_spec()))
    code, out, _ = run(capsys, "mp-match", str(path))
    assert code == 0
    assert json.loads(out)["mismatches"] == 0


def test_dimension_identity_rejected(tmp_path, capsys):
    spec = phi0_spec()
    spec["classes"][0]["multiplicity"] = 3
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "mp-enumerate", str(path))
    assert code == 2 and "identity" in err


def test_float_literal_rejected(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text('{"schema": "v1", "n": 0.3, "classes": []}')
    code, _, err = run(capsys, "mp-enumerate", str(path))
    assert code == 2 and "0.3" in err


def test_bad_schema_version(tmp_path, capsys):
    spec = phi0_spec(schema="v99")
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "mp-enumerate", str(path))
    assert code == 2 and "schema" in err


def descriptor_spec():
    return {"schema": "v1", "ambient": "Mp", "h_rank": 1,
            "lines": [{"d": 1, "k": 3, "gl_singular": True, "boundary_pole": True,
                       "self_dual_T": True, "tau_T": False}]}


# (verb, the object holding the field, field, a value of the wrong JSON type)
MISTYPED_FIELDS = [
    ("mp-enumerate", "spec", "n", True),
    ("mp-enumerate", "class", "multiplicity", "1/2"),
    ("mp-match", "class", "multiplicity", "4"),
    ("mp-enumerate", "class", "d", "x"),
    ("mp-enumerate", "class", "d", True),
    ("mp-match", "class", "t", [1]),
    ("mp-enumerate", "class", "self_dual", "false"),
    ("mp-match", "class", "type_plus", 0),
    ("mp-enumerate", "class", "type_minus", None),
    ("blocks-classify", "spec", "h_rank", "x"),
    ("blocks-classify", "spec", "h_rank", False),
    ("blocks-classify", "line", "d", True),
    ("blocks-classify", "line", "k", "3"),
    ("blocks-classify", "line", "gl_singular", "true"),
    ("blocks-classify", "line", "boundary_pole", 1),
    ("blocks-classify", "line", "self_dual_T", "yes"),
    ("blocks-classify", "line", "tau_T", "false"),
]


@pytest.mark.parametrize("verb, where, key, value", MISTYPED_FIELDS,
                         ids=[f"{v}-{k}-{x!r}" for v, _, k, x in MISTYPED_FIELDS])
def test_mistyped_field_exits_2(tmp_path, capsys, verb, where, key, value):
    """An integer field must be a JSON integer, not a bool or a string; a
    flag must be a JSON bool.  Anything else is malformed input."""
    spec = descriptor_spec() if verb == "blocks-classify" else phi0_spec()
    holder = {"spec": spec, "class": spec.get("classes", [{}])[0], "line": spec.get("lines", [{}])[0]}
    holder[where][key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, verb, str(path))
    assert (code, out) == (2, "") and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["mp-enumerate", "mp-match"])
@pytest.mark.parametrize("label", [None, 1, True, ["1"]], ids=repr)
def test_non_string_label_exits_2(tmp_path, capsys, verb, label):
    """A class label must be a JSON string: null is not the class "None",
    nor 1 the class "1"."""
    spec = phi0_spec()
    spec["classes"][0]["label"] = label
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, verb, str(path))
    assert (code, out) == (2, "") and "'label'" in err and "Traceback" not in err


def test_out_flag_writes_identical_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "weil-example", "--n", "1", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "weil-example", "--n", "1", "--out", str(target))
    assert code == 2 and out == "" and err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_pretty_flag(capsys):
    code, out, _ = run(capsys, "weil-example", "--n", "1", "--pretty")
    assert code == 0 and out.startswith("{\n")


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # main parses every call with the same parser: no flag of one call may
    # reach the next, and a parse error leaves nothing behind
    alone = run(capsys, "weil-example", "--n", "1")
    assert alone[0] == 0 and not alone[1].startswith("{\n")
    assert run(capsys, "weil-example", "--n", "1", "--pretty")[1].startswith("{\n")
    assert run(capsys, "weil-example", "--n", "1") == alone
    target = tmp_path / "report.json"
    assert run(capsys, "weil-example", "--n", "1", "--out", str(target))[:2] == alone[:2]
    target.unlink()
    assert run(capsys, "weil-example", "--n", "1") == alone
    assert not target.exists()
    with pytest.raises(SystemExit) as exc:
        main(["weil-example", "--n", "x", "--pretty"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "weil-example", "--n", "1") == alone


def test_byte_determinism_across_processes(tmp_path):
    # identical inputs must give byte-identical output even under different
    # hash seeds (no reliance on set/dict iteration order)
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mphecke

    spec = phi0_spec()
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(spec))
    # The package may not be installed (the suite can run from a source
    # tree via PYTHONPATH), and the child must import the very code this
    # process tested, so point it at the directory holding that package.
    package_root = str(Path(mphecke.__file__).resolve().parent.parent)
    # a run that writes no bytecode cache keeps its children from writing one
    # into the source tree
    keep = {k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE",) if k in os.environ}
    outs = []
    for seed in ("0", "42"):
        proc = subprocess.run(
            [sys.executable, "-m", "mphecke.cli", "mp-enumerate", str(path)],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": package_root, **keep},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# SHA-256 of the exact stdout bytes of each verb.  The inputs are the two
# example inputs of README.md (the block descriptor and phi0_spec()).
GOLDEN_STDOUT = [
    (("weil-example", "--n", "3"),
     "178fa0c194c6aca6d2633cb97bd41f35e07de59d464ccd3ed7ff1028a4f5baa0"),
    (("rankone-verify", "--grid", "1/2..1"),
     "97fd337a7819b2170782c86b2641ab26c541f258f8bc9feab50caac3c4e34d7e"),
    (("hecke-check", "--max-rank", "2"),
     "cf66065947dd85193c098ac4e5610ef70d7aad58722f843e9d54e93e6d06af2e"),
    (("mp-enumerate", "{phi}"),
     "88f1a2bd6e0f6f5d256ac69a6a35435376cf45b3dc16c387c704d612d025fe14"),
    (("mp-match", "{phi}"),
     "7ba7be50751c655adbb0b1a5b4b900b6e4906853e7290d831c51095f9e435b34"),
    (("blocks-classify", "{descriptor}"),
     "33ac7cf9d0f9463dfe06a7423c192c5e5f3ecef79eeb5caaba1e6b8589228daf"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=[a[0] for a, _ in GOLDEN_STDOUT])
def test_golden_stdout_bytes(tmp_path, capsys, argv, digest):
    descriptor = {
        "schema": "v1", "ambient": "Mp", "h_rank": 1,
        "lines": [{"d": 1, "k": 3, "gl_singular": True, "boundary_pole": True,
                   "self_dual_T": True, "tau_T": False}],
    }
    inputs = {"phi": phi0_spec(), "descriptor": descriptor}
    paths = {}
    for name, spec in inputs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    code, out, _ = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
