"""Serialization round trips, canonical bytes, CLI exit codes and determinism."""

import json
import os
import time

import pytest

from purecoalg import (
    ParseError,
    ZZ,
    dual_of_algebra,
    monogenic_algebra,
    set_like,
    standard_circle,
    standard_point,
    truncated_polynomial_algebra,
)
from purecoalg import serialize as sz
from purecoalg.cli import run_command

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data(name):
    return os.path.join(DATA, name)


def sset_to_obj(x):
    """The canonical file object of a simplicial set; the package only reads these files."""
    return {
        "dimension": x.dimension_bound,
        "levels": [list(level) for level in x.levels],
        "faces": [{"n": n, "i": i, "map": dict(sorted(x.faces[(n, i)].items()))} for (n, i) in sorted(x.faces)],
        "degeneracies": [
            {"n": n, "j": j, "map": dict(sorted(x.degeneracies[(n, j)].items()))}
            for (n, j) in sorted(x.degeneracies)
        ],
    }


def test_coalgebra_round_trip_values():
    for c in (
        set_like(ZZ, ["a", "b"]),
        dual_of_algebra(truncated_polynomial_algebra(ZZ, 3)),
        dual_of_algebra(monogenic_algebra(ZZ, [2, 0])),
    ):
        obj = sz.coalgebra_to_obj(c)
        back = sz.coalgebra_from_obj(json.loads(sz.canonical_dumps(obj)))
        assert back.delta == c.delta and back.counit == c.counit


def test_canonical_files_round_trip_bytes():
    for name in os.listdir(DATA):
        path = data(name)
        text = open(path, encoding="utf-8").read()
        obj = json.loads(text)
        if name.endswith("-collapse.json"):
            continue
        if "mult" in obj:
            again = sz.canonical_dumps(sz.algebra_to_obj(sz.algebra_from_obj(obj)))
        elif "delta" in obj:
            again = sz.canonical_dumps(sz.coalgebra_to_obj(sz.coalgebra_from_obj(obj)))
        elif "levels" in obj:
            again = sz.canonical_dumps(sset_to_obj(sz.sset_from_obj(obj)))
        else:
            continue
        assert again == text, name


def test_parse_rejects_fraction_over_z():
    obj = sz.coalgebra_to_obj(set_like(ZZ, ["a"]))
    obj["delta"] = [[0, 0, 0, "1/2"]]
    with pytest.raises(ParseError):
        sz.coalgebra_from_obj(obj)


def test_parse_validates_axioms():
    from purecoalg import ValidationError

    obj = {
        "ring": {"kind": "Z"},
        "rank": 2,
        "delta": [[0, 0, 0, "1"], [1, 0, 1, "1"]],
        "counit": ["1", "0"],
    }
    with pytest.raises(ValidationError):
        sz.coalgebra_from_obj(obj)


def test_shipped_sqrt2_dual_validates():
    c = sz.load_coalgebra(data("sqrt2-dual.json"))
    assert c.rank == 2 and c.validate().overall


def test_lattice_round_trip():
    from purecoalg import Lattice

    lat = Lattice.from_rows(ZZ, 3, [[2, 4, 0], [0, 3, 1]])
    obj = sz.lattice_to_obj(lat)
    assert sz.lattice_from_obj(obj, ZZ) == lat


def test_cli_exit_codes():
    code, _ = run_command(["pointed", data("sqrt2-dual.json")], "coalg")
    assert code == 1
    code, text = run_command(["grouplikes", data("setlike2.json")], "coalg")
    assert code == 0 and "group-like count: 2" in text
    code, text = run_command(["homology", data("circle.json"), "-N", "1"], "sset")
    assert code == 0 and text == "H0=Z, H1=Z"
    code, _ = run_command(["pointed", data("no-such-file.json")], "coalg")
    assert code == 2
    code, text = run_command(["check", data("zx3-dual.json")], "coalg")
    assert code == 0


def test_cli_reports_deterministic():
    for argv, prog in (
        (["grouplikes", data("setlike2.json")], "coalg"),
        (["components", data("zx3-dual.json")], "coalg"),
        (["check", data("zxz-algebra.json")], "binomial"),
        (["homology", data("rp2.json"), "-N", "2"], "sset"),
    ):
        first = run_command(argv, prog)
        second = run_command(argv, prog)
        assert first == second


def test_cli_wedge_and_purify(tmp_path):
    sub = tmp_path / "line.json"
    sub.write_text(sz.canonical_dumps({"ambient_rank": 3, "basis": [["1", "0", "0"]]}))
    code, text = run_command(
        ["wedge", data("zx3-dual.json"), "--sub", str(sub), "--sub", str(sub)], "coalg"
    )
    assert code == 0 and "rank 2" in text

    doubled = tmp_path / "doubled.json"
    doubled.write_text(sz.canonical_dumps({"ambient_rank": 3, "basis": [["2", "0", "0"]]}))
    code, text = run_command(["purify", data("zx3-dual.json"), "--sub", str(doubled)], "coalg")
    assert code == 0 and "(1, 0, 0)" in text


@pytest.mark.parametrize("ambient", [True, -2, sz.MAX_RANK + 1], ids=["boolean", "negative", "too-large"])
def test_cli_refuses_a_bad_lattice_ambient_rank_before_reading_rows(tmp_path, ambient):
    point = tmp_path / "point.json"
    point.write_text(sz.canonical_dumps(sz.coalgebra_to_obj(set_like(ZZ, ["a"]))))
    sub = tmp_path / "sub.json"
    sub.write_text(sz.canonical_dumps({"ambient_rank": ambient, "basis": [["1"]]}))
    code, text = run_command(["purify", str(point), "--sub", str(sub)], "coalg")
    assert code == 2 and text.startswith("error: ") and "ambient_rank" in text


def test_cli_tensor_and_dual(tmp_path):
    out = tmp_path / "tensor.json"
    code, text = run_command(
        ["tensor", data("zx2-dual.json"), data("zx2-dual.json"), "-o", str(out)], "coalg"
    )
    assert code == 0
    product = sz.load_coalgebra(str(out))
    assert product.rank == 4

    code, text = run_command(["dual", data("zx2-dual.json")], "coalg")
    assert code == 0 and '"mult"' in text


def test_cli_smap_checks():
    code, text = run_command(["check", data("interval-collapse.json"), "--we", "-N", "1"], "smap")
    assert code == 0 and "yes" in text
    code, text = run_command(["check", data("interval-collapse.json"), "--cof"], "smap")
    assert code == 1


def test_cli_binomial_env_override(monkeypatch):
    monkeypatch.setenv("COALG_PRIMES", "2")
    code, text = run_command(["check", data("zxz-algebra.json")], "binomial")
    assert code == 0 and "p=2" in text and "p=3" not in text


def test_cli_corpus_generate(tmp_path):
    out = tmp_path / "corp"
    code, text = run_command(
        ["generate", "--seed", "5", "--count", "4", "--out", str(out)], "corpus"
    )
    assert code == 0
    manifest = json.load(open(out / "manifest-5.json"))
    assert len(manifest) == 4
    for record in manifest:
        c = sz.load_coalgebra(str(out / record["file"]))
        assert c.rank == record["rank"]


def test_cli_corpus_refuses_a_max_rank_out_of_range(tmp_path):
    out = tmp_path / "corp"
    for bad in (0, -3):
        code, text = run_command(["generate", "--seed", "5", "--max-rank", str(bad), "--out", str(out)], "corpus")
        assert (code, text) == (2, f"error: --max-rank must be at least 1, got {bad}")
    code, text = run_command(["generate", "--seed", "5", "--max-rank", str(sz.MAX_RANK + 1)], "corpus")
    assert (code, text) == (2, f"error: --max-rank {sz.MAX_RANK + 1} exceeds the bound {sz.MAX_RANK}")
    assert not out.exists()
    code, text = run_command(["generate", "--seed", "1", "--count", "-3", "--out", str(out)], "corpus")
    assert (code, text) == (2, "error: --count must be at least 0, got -3")
    assert not out.exists()
    code, text = run_command(["generate", "--seed", "5", "--count", "2", "--max-rank", "1"], "corpus")
    assert code == 0 and text.startswith("generated 2 coalgebras")
    code, text = run_command(["generate", "--seed", "1", "--count", "0"], "corpus")
    assert (code, text) == (0, "generated 0 coalgebras (seed 1)")


def test_factoring_past_the_primality_bound_is_refused(tmp_path):
    """Z[x]/(x^2 - N) with N = 2 * (10^40 + 121): the cofactor 10^40 + 121 has no certified primality test."""
    cofactor = 10**40 + 121
    path = _write(tmp_path, sz.coalgebra_to_obj(dual_of_algebra(monogenic_algebra(ZZ, [2 * cofactor, 0]))))
    assert run_command(["check", path], "coalg")[0] == 0
    for verb in ("grouplikes", "pointed"):
        code, text = run_command([verb, path], "coalg")
        assert code == 2 and text.startswith(f"error: cannot factor {cofactor}:")


def test_unsupported_ring_exit_code(tmp_path):
    from purecoalg import prime_field

    c = dual_of_algebra(truncated_polynomial_algebra(prime_field(5), 2))
    path = tmp_path / "fp.json"
    path.write_text(sz.canonical_dumps(sz.coalgebra_to_obj(c)))
    code, _ = run_command(["check", str(path)], "binomial")
    assert code == 3


def test_sset_chains_cli(tmp_path):
    out = tmp_path / "chains.json"
    code, text = run_command(["chains", data("circle.json"), "--ring", "Z", "-o", str(out)], "sset")
    assert code == 0 and "1, 2, 3" in text
    obj = json.load(open(out))
    assert obj["dimension"] == 2


def _write(tmp_path, obj, name="hostile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_rejects_oversized_rank_before_allocating(tmp_path):
    path = _write(tmp_path, {"ring": {"kind": "Z"}, "rank": 100000, "delta": [], "counit": []})
    code, text = run_command(["check", path], "coalg")
    assert code == 2 and f"exceeds the bound {sz.MAX_RANK}" in text
    path = _write(tmp_path, {"ring": {"kind": "Z"}, "rank": 100000, "mult": [], "unit": []})
    code, text = run_command(["check", path], "binomial")
    assert code == 2 and f"exceeds the bound {sz.MAX_RANK}" in text


def test_cli_rejects_duplicate_delta_triples(tmp_path):
    obj = sz.coalgebra_to_obj(set_like(ZZ, ["a", "b"]))
    obj["delta"].append(list(obj["delta"][0]))
    code, text = run_command(["check", _write(tmp_path, obj)], "coalg")
    assert code == 2 and "duplicate delta entry" in text


def test_cli_rejects_boolean_indices(tmp_path):
    obj = sz.coalgebra_to_obj(set_like(ZZ, ["a", "b"]))
    assert obj["delta"][1] == [1, 1, 1, "1"]
    obj["delta"][1] = [True, True, True, "1"]  # read by isinstance(True, int) as index 1
    code, text = run_command(["check", _write(tmp_path, obj)], "coalg")
    assert code == 2 and "not booleans" in text
    obj = sz.coalgebra_to_obj(set_like(ZZ, ["a"]))
    obj["rank"] = True
    code, text = run_command(["check", _write(tmp_path, obj)], "coalg")
    assert code == 2 and "not a boolean" in text


@pytest.mark.parametrize("verb", [["validate"], ["homology", "-N", "1"]], ids=["validate", "homology"])
def test_sset_verbs_report_malformed_files_alike(tmp_path, verb):
    good = sz.load_json(data("circle.json"))
    no_dimension = {key: value for key, value in good.items() if key != "dimension"}
    no_face_index = dict(good, faces=[{key: value for key, value in rec.items() if key != "i"}
                                      for rec in good["faces"]])
    for obj, message in ((no_dimension, "error: missing field 'dimension' in simplicial set"),
                         (no_face_index, "error: missing field 'i' in face record")):
        code, text = run_command([verb[0], _write(tmp_path, obj), *verb[1:]], "sset")
        assert (code, text) == (2, message)


def test_sset_rejects_an_oversized_level_fast(tmp_path):
    import time

    points = [f"p{i}" for i in range(10000)]
    path = _write(tmp_path, {"dimension": 0, "levels": [points], "faces": [], "degeneracies": []})
    for argv in (["homology", path, "-N", "5"], ["validate", path], ["chains", path]):
        start = time.perf_counter()
        code, text = run_command(argv, "sset")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and text == f"error: simplicial set level 0 has 10000 simplices, above the bound {sz.MAX_RANK}"
    path = _write(tmp_path, {"dimension": 0, "levels": [points[: sz.MAX_RANK]], "faces": [], "degeneracies": []})
    assert run_command(["validate", path], "sset")[0] == 0


def test_sset_rejects_an_oversized_dimension_before_reading_levels(tmp_path):
    import time

    bound = sz.MAX_DIMENSION
    over = _write(tmp_path, sset_to_obj(standard_point(bound + 1)), "over.json")
    huge = _write(tmp_path, {"dimension": 10**6, "levels": None, "faces": [], "degeneracies": []}, "huge.json")
    for path, d in ((over, bound + 1), (huge, 10**6)):
        for argv in (["validate", path], ["chains", path], ["homology", path, "-N", "1"]):
            code, text = run_command(argv, "sset")
            assert (code, text) == (2, f"error: simplicial set dimension {d} exceeds the bound {bound}")
    # a one-vertex set at the bound passes well inside a second
    at = _write(tmp_path, sset_to_obj(standard_point(bound)), "at.json")
    start = time.perf_counter()
    assert run_command(["validate", at], "sset")[0] == 0
    assert time.perf_counter() - start < 1.0


def test_degrees_are_checked_before_building_chains(monkeypatch):
    from purecoalg import cli

    def refuse(*args):
        raise AssertionError("chains built before the degree check")

    monkeypatch.setattr(cli, "chains_functor", refuse)
    monkeypatch.setattr(cli, "chains_map", refuse)
    code, text = run_command(["homology", data("circle.json"), "-N", "2"], "sset")
    assert (code, text) == (2, "error: degree 2 needs truncation dimension at least 3")
    code, text = run_command(["check", data("interval-collapse.json"), "--we", "-N", "2"], "smap")
    assert (code, text) == (2, "error: degree 2 needs truncation dimension at least 3")
    for bad in ("-1", "-7"):
        code, text = run_command(["homology", data("circle.json"), "-N", bad], "sset")
        assert (code, text) == (2, f"error: degree must be at least 0, got {bad}")
        code, text = run_command(["check", data("interval-collapse.json"), "--we", "-N", bad], "smap")
        assert (code, text) == (2, f"error: degree must be at least 0, got {bad}")


@pytest.mark.parametrize("argv, prog, env, message", [
    (["check", data("zxz-algebra.json"), "--primes", "2,x"], "binomial", None,
     "error: --primes entry 'x' is not an integer"),
    (["check", data("zxz-algebra.json"), "--primes", "2,,3"], "binomial", None,
     "error: --primes entry '' is not an integer"),
    (["check", data("zxz-algebra.json")], "binomial", "2,x",
     "error: COALG_PRIMES entry 'x' is not an integer"),
    (["chains", data("circle.json"), "--ring", "F7x"], "sset", None,
     "error: unknown ring flag 'F7x' (use Z, Q, Fp as F7, or Z[2,3])"),
], ids=["primes-letter", "primes-empty", "env-primes-letter", "ring-flag"])
def test_cli_names_a_bad_prime_list_or_ring_flag(monkeypatch, argv, prog, env, message):
    if env is not None:
        monkeypatch.setenv("COALG_PRIMES", env)
    assert run_command(argv, prog) == (2, message)


def test_cli_names_an_output_path_it_cannot_write(tmp_path):
    out = tmp_path / "missing" / "x.json"
    code, text = run_command(["tensor", data("zx2-dual.json"), data("zx2-dual.json"), "-o", str(out)], "coalg")
    assert code == 2 and text.startswith(f"error: cannot write {out}: ")
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, text = run_command(["generate", "--seed", "5", "--count", "1", "--out", str(blocker / "corp")], "corpus")
    assert code == 2 and text.startswith(f"error: cannot create {blocker / 'corp'}: ")


@pytest.mark.parametrize("error", [AssertionError("invariant broke"), ValueError("bad shape")],
                         ids=["assertion", "value"])
def test_internal_failures_exit_4(monkeypatch, error):
    from purecoalg import cli

    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "group_likes", fail)
    code, text = run_command(["grouplikes", data("setlike2.json")], "coalg")
    assert (code, text) == (4, f"internal error: {error!r}")
    code, text = run_command(["grouplikes", data("no-such-file.json")], "coalg")
    assert code == 2 and text.startswith("error: cannot read ")


def test_deeply_nested_json_is_invalid_input(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert run_command(["check", str(path)], "coalg") == (2, "error: invalid JSON: nested too deeply")


def test_a_file_past_the_byte_bound_is_refused_before_it_is_read(tmp_path, monkeypatch):
    path = tmp_path / "huge.json"
    path.touch()
    os.truncate(path, sz.MAX_FILE_BYTES + 1)  # sparse: no byte is written
    parsed = []
    monkeypatch.setattr(sz, "_loads", lambda text: parsed.append(text))
    code, text = run_command(["check", str(path)], "coalg")
    assert (code, text) == (2, f"error: {path} has {sz.MAX_FILE_BYTES + 1} bytes, above the bound {sz.MAX_FILE_BYTES}")
    assert "8388609 bytes" in text and parsed == []


def test_a_file_at_the_byte_bound_is_read(monkeypatch):
    size = os.path.getsize(data("zx3-dual.json"))
    want = run_command(["check", data("zx3-dual.json")], "coalg")
    assert want[0] == 0
    monkeypatch.setattr(sz, "MAX_FILE_BYTES", size)
    assert run_command(["check", data("zx3-dual.json")], "coalg") == want
    monkeypatch.setattr(sz, "MAX_FILE_BYTES", size - 1)
    assert run_command(["check", data("zx3-dual.json")], "coalg")[0] == 2


def test_malformed_names_are_invalid_input(tmp_path):
    coalgebra = sz.load_json(data("zx3-dual.json"))
    algebra = sz.load_json(data("zxz-algebra.json"))
    circle = sz.load_json(data("circle.json"))
    nested_level = dict(circle, levels=[[["v"]]] + circle["levels"][1:])
    list_image = dict(circle, faces=[dict(circle["faces"][0], map={k: [v] for k, v in circle["faces"][0]["map"].items()})]
                      + circle["faces"][1:])
    for argv, prog, obj, message in (
        (["check"], "coalg", dict(coalgebra, basis_names=3), "error: basis_names must list one string per basis vector"),
        (["check"], "binomial", dict(algebra, basis_names="ab"), "error: basis_names must list one string per basis vector"),
        (["validate"], "sset", nested_level, "error: level 0 of the simplicial set must be an array of names"),
        (["homology", "-N", "1"], "sset", list_image, "error: the map of a face record must send names to names"),
    ):
        path = _write(tmp_path, obj)
        assert run_command([argv[0], path, *argv[1:]], prog) == (2, message)


@pytest.mark.parametrize("table,record,where", [
    ("faces", {"n": 7, "i": 0, "map": {}}, "unexpected face d_0 on level 7"),
    ("faces", {"n": 0, "i": 0, "map": {}}, "unexpected face d_0 on level 0"),
    ("faces", {"n": 1, "i": 5, "map": {"e": "a"}}, "unexpected face d_5 on level 1"),
    ("degeneracies", {"n": 2, "j": 0, "map": {"s0(e)": "s0(e)"}}, "unexpected degeneracy s_0 on level 2"),
])
def test_sset_verbs_refuse_records_outside_the_truncation(tmp_path, table, record, where):
    obj = sz.load_json(data("interval.json"))
    obj[table].append(record)
    path = _write(tmp_path, obj, "interval.json")
    report = f"level names distinct: pass\nstructure maps total: FAIL at {where}\noverall: FAIL"
    assert run_command(["validate", path], "sset") == (1, report)
    error = f"error: simplicial identity failed: structure maps total: FAIL at {where}"
    assert run_command(["chains", path], "sset") == (2, error)
    assert run_command(["homology", path, "-N", "1"], "sset") == (2, error)
    collapse = dict(sz.load_json(data("interval-collapse.json")), codomain=data("point.json"))
    assert run_command(["check", _write(tmp_path, collapse, "collapse.json"), "--cof"], "smap") == (2, error)


def test_sset_verbs_report_a_failed_identity(tmp_path):
    obj = sz.load_json(data("interval.json"))
    obj["faces"][0]["map"]["e"] = "a"
    path = _write(tmp_path, obj, "interval.json")
    assert run_command(["validate", path], "sset") == (1, "\n".join([
        "level names distinct: pass",
        "structure maps total: pass",
        "face-face identities: FAIL at d_0 d_1 at 's1(e)' (level 2)",
        "degeneracy-degeneracy identities: pass",
        "face-degeneracy identities: FAIL at d_0 s_1 at 'e' (level 1)",
        "overall: FAIL",
    ]))
    assert run_command(["chains", path], "sset") == (
        2, "error: simplicial identity failed: face-face identities: FAIL at d_0 d_1 at 's1(e)' (level 2)")
    obj["levels"][0].append("a")
    del obj["faces"][1]
    assert run_command(["validate", _write(tmp_path, obj, "interval.json")], "sset") == (1, "\n".join([
        "level names distinct: FAIL at level 0",
        "structure maps total: FAIL at missing face d_1 on level 1",
        "overall: FAIL",
    ]))


@pytest.mark.parametrize("level,edit,message", [
    (1, {"e": "s0(a)"}, "commutes with structure maps: FAIL at face d_0 at 'e' (level 1)"),
    (0, {"b": "a"}, "commutes with structure maps: FAIL at face d_0 at 's0(b)' (level 1)"),
    (2, {"s1(e)": "ghost"}, "levelwise totality: FAIL at level 2 at 's1(e)'"),
])
def test_smap_check_refuses_a_map_that_is_not_simplicial(tmp_path, level, edit, message):
    interval = sz.load_json(data("interval.json"))
    maps = [{"n": n, "map": {s: s for s in names}} for n, names in enumerate(interval["levels"])]
    maps[level]["map"].update(edit)
    path = _write(tmp_path, {"domain": data("interval.json"), "codomain": data("interval.json"), "maps": maps},
                  "self.json")
    for flags in (["--cof"], ["--we", "-N", "1"]):
        assert run_command(["check", path, *flags], "smap") == (2, f"error: simplicial map check failed: {message}")


def test_homology_names_the_coefficient_ring():
    for ring, text in (("Z", "H0=Z, H1=Z/2, H2=0"), ("F2", "H0=F2, H1=F2, H2=F2"), ("Q", "H0=Q, H1=0, H2=0"),
                       ("F7", "H0=F7, H1=0, H2=0")):
        assert run_command(["homology", data("rp2.json"), "-N", "2", "--ring", ring], "sset") == (0, text)
    assert run_command(["homology", data("circle.json"), "-N", "1", "--ring", "Q"], "sset") == (0, "H0=Q, H1=Q")


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its first argument to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv, prog, sets, maps", [
    (["check", data("interval-collapse.json"), "--we", "-N", "1"], "smap", 2, 1),
    (["check", data("interval-collapse.json"), "--cof"], "smap", 2, 1),
    (["chains", data("circle.json")], "sset", 1, 0),
    (["homology", data("circle.json"), "-N", "1"], "sset", 1, 0),
    (["validate", data("circle.json")], "sset", 1, 0),
], ids=["smap-we", "smap-cof", "sset-chains", "sset-homology", "sset-validate"])
def test_each_simplicial_set_and_map_is_validated_once(monkeypatch, argv, prog, sets, maps):
    from purecoalg import simplicial
    from purecoalg.simplicial import SimplicialMap

    set_calls = _count_calls(monkeypatch, simplicial, "validate_sset")
    map_calls = _count_calls(monkeypatch, SimplicialMap, "validate")
    assert run_command(argv, prog)[0] in (0, 1)
    assert len(set_calls) == sets and len({id(x) for x in set_calls}) == sets
    assert len(map_calls) == maps


@pytest.mark.parametrize("argv, prog", [
    (["check", data("zxz-algebra.json")], "binomial"),
    (["dual", data("zxz-algebra.json")], "coalg"),
    (["check", data("zxz-algebra.json")], "coalg"),
    # a coalgebra file: C is checked when it is read, and its dual C* is the same identities transposed
    (["check", data("zx2-dual.json")], "binomial"),
    (["check", data("setlike2.json")], "binomial"),
    (["dual", data("zx2-dual.json")], "coalg"),
], ids=["binomial-algebra", "dual-algebra", "check-algebra", "binomial-coalgebra", "binomial-setlike",
        "dual-coalgebra"])
def test_each_algebra_and_coalgebra_file_is_validated_once(monkeypatch, argv, prog):
    """Coalgebras and algebras share one axiom kernel, and each command runs it once."""
    from purecoalg import coalgebra

    kernel_runs = _count_calls(monkeypatch, coalgebra, "_axiom_failures")
    assert run_command(argv, prog)[0] in (0, 1)
    assert len(kernel_runs) == 1


def test_an_algebra_file_is_still_checked_before_use(tmp_path):
    algebra = sz.load_json(data("zxz-algebra.json"))
    algebra["mult"].append([0, 1, 0, "1"])  # e_0 * e_1 = e_0 but e_1 * e_0 = 0
    path = _write(tmp_path, algebra)
    for argv, prog in ((["check", path], "binomial"), (["dual", path], "coalg")):
        code, text = run_command(argv, prog)
        assert code == 2 and text.startswith("error: algebra axiom failed: commutativity: FAIL at (i,j)=(0,1)")
    assert run_command(["check", path], "coalg")[0] == 1


def test_a_coalgebra_file_is_still_checked_before_binomial_check(tmp_path):
    coalg = sz.load_json(data("setlike2.json"))
    coalg["delta"].append([1, 0, 1, "1"])  # Delta(b) gains a (x) b but not b (x) a
    path = _write(tmp_path, coalg)
    code, text = run_command(["check", path], "binomial")
    assert (code, text) == (2, "error: coalgebra axiom failed: cocommutativity: FAIL at (i,j,k)=(1,0,1)")


def test_coalg_tensor_refuses_a_product_no_loader_reads_back(tmp_path):
    paths = []
    for m in (12, 13):
        paths.append(_write(tmp_path, sz.coalgebra_to_obj(set_like(ZZ, [f"p{i}" for i in range(m)])), f"set{m}.json"))
    start = time.perf_counter()
    code, text = run_command(["tensor", paths[1], paths[1]], "coalg")
    assert time.perf_counter() - start < 1
    assert (code, text) == (2, f"error: tensor product rank 169 exceeds the bound {sz.MAX_RANK}")
    out = str(tmp_path / "square.json")
    assert run_command(["tensor", paths[0], paths[0], "-o", out], "coalg") == (
        0, f"tensor product: rank 144 over Z\nwrote {out}")
    code, text = run_command(["check", out], "coalg")
    assert code == 0 and text.endswith("overall: pass")


def _interval_with(**edits):
    obj = sz.load_json(data("interval.json"))
    obj.update(edits)
    return obj


_INTERVAL = sz.load_json(data("interval.json"))


@pytest.mark.parametrize("obj, message", [
    ({"dimension": -1, "levels": [], "faces": [], "degeneracies": []},
     "error: simplicial set dimension must be nonnegative"),
    ({"dimension": -5, "levels": [], "faces": [], "degeneracies": []},
     "error: simplicial set dimension must be nonnegative"),
    (_interval_with(dimension=True), "error: simplicial set dimension must be an integer, not a boolean"),
    (_interval_with(faces=[dict(_INTERVAL["faces"][0], n=True)] + _INTERVAL["faces"][1:]),
     "error: face record n must be an integer, not a boolean"),
    (_interval_with(faces=[dict(_INTERVAL["faces"][0], i=False)] + _INTERVAL["faces"][1:]),
     "error: face record i must be an integer, not a boolean"),
    (_interval_with(degeneracies=[dict(_INTERVAL["degeneracies"][0], n=False)] + _INTERVAL["degeneracies"][1:]),
     "error: degeneracy record n must be an integer, not a boolean"),
    (_interval_with(degeneracies=[dict(_INTERVAL["degeneracies"][1], j=True)] + _INTERVAL["degeneracies"][1:]),
     "error: degeneracy record j must be an integer, not a boolean"),
    # a conflicting first d_0 on level 1, which the second record used to replace
    (_interval_with(faces=[dict(_INTERVAL["faces"][0], map={"e": "a", "s0(a)": "b", "s0(b)": "a"})]
                    + _INTERVAL["faces"]),
     "error: duplicate face record for n=1, i=0"),
    (_interval_with(degeneracies=_INTERVAL["degeneracies"] + [_INTERVAL["degeneracies"][2]]),
     "error: duplicate degeneracy record for n=1, j=1"),
], ids=["dimension-minus-1", "dimension-minus-5", "dimension-bool", "face-n-bool", "face-i-bool",
        "degeneracy-n-bool", "degeneracy-j-bool", "face-repeated", "degeneracy-repeated"])
def test_sset_verbs_refuse_malformed_records(tmp_path, obj, message):
    path = _write(tmp_path, obj, "interval.json")
    for argv in (["validate", path], ["chains", path], ["homology", path, "-N", "0"]):
        assert run_command(argv, "sset") == (2, message)
    collapse = dict(sz.load_json(data("interval-collapse.json")), codomain=data("point.json"))
    assert run_command(["check", _write(tmp_path, collapse, "collapse.json"), "--cof"], "smap") == (2, message)


@pytest.mark.parametrize("edit, message", [
    (lambda maps: maps + [maps[0]], "error: duplicate simplicial map level 0"),
    (lambda maps: [dict(maps[0], n=False)] + maps[1:], "error: simplicial map level n must be an integer, not a boolean"),
], ids=["level-repeated", "level-bool"])
def test_smap_check_refuses_malformed_levels(tmp_path, edit, message):
    collapse = sz.load_json(data("interval-collapse.json"))
    obj = dict(collapse, domain=data("interval.json"), codomain=data("point.json"), maps=edit(collapse["maps"]))
    path = _write(tmp_path, obj, "collapse.json")
    for flags in (["--cof"], ["--we", "-N", "1"]):
        assert run_command(["check", path, *flags], "smap") == (2, message)


def test_a_self_map_file_loads_and_checks_its_set_once(monkeypatch, tmp_path):
    """Domain = codomain = one file: one parse, one validate_sset, one normalized complex, the verdicts of two copies."""
    from purecoalg import simplicial

    interval = sz.load_json(data("interval.json"))
    maps = [{"n": n, "map": {s: s for s in names}} for n, names in enumerate(interval["levels"])]
    same = _write(tmp_path, {"domain": data("interval.json"), "codomain": data("interval.json"), "maps": maps},
                  "self.json")
    copy = _write(tmp_path, interval, "copy.json")
    apart = _write(tmp_path, {"domain": data("interval.json"), "codomain": copy, "maps": maps}, "apart.json")
    for flags in (["--cof"], ["--we", "-N", "1"]):
        want = run_command(["check", apart, *flags], "smap")
        assert want == (0, "cofibration: yes" if flags == ["--cof"] else "weak equivalence through degree 1: yes")
        loads = _count_calls(monkeypatch, sz, "load_sset")
        checks = _count_calls(monkeypatch, simplicial, "validate_sset")
        normals = _count_calls(monkeypatch, simplicial, "_normalized")
        assert run_command(["check", same, *flags], "smap") == want
        assert len(loads) == 1 and len(checks) == 1 and len(normals) == (1 if "--we" in flags else 0)
        monkeypatch.undo()
