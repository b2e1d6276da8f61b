"""Serialization round trips, canonical bytes, CLI exit codes and determinism."""

import json
import os

import pytest

from purecoalg import (
    ParseError,
    ZZ,
    dual_of_algebra,
    monogenic_algebra,
    set_like,
    standard_circle,
    truncated_polynomial_algebra,
)
from purecoalg import serialize as sz
from purecoalg.cli import run_command

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data(name):
    return os.path.join(DATA, name)


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
            again = sz.canonical_dumps(sz.sset_to_obj(sz.sset_from_obj(obj)))
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


def _write(tmp_path, obj):
    path = tmp_path / "hostile.json"
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
