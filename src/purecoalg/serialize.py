"""Canonical JSON formats for every object the command line exchanges.

All integers that are ring elements travel as decimal strings (rationals
as "a/b" in lowest terms) so consumers never lose precision; structural
indices stay JSON numbers.  Serialization is canonical: keys sorted,
sparse triples sorted, coefficients in lowest terms, two-space indent,
trailing newline.  Parsing the canonical text and reserializing is a
byte round trip, and parsing always validates the object.
"""

from __future__ import annotations

import json
import os

from .coalgebra import AlgebraPresentation, Coalgebra, CoalgebraMap
from .errors import ParseError, TooLarge, ValidationError
from .lattice import Lattice
from .matrix import Matrix
from .rings import Ring, ring_from_spec
from .simplicial import (
    FiniteSimplicialSet,
    SimplicialCoalgebra,
    SimplicialMap,
)

# A coalgebra or algebra of rank n is held as n^3 dense structure
# constants; 144, the rank of the tensor square of a rank-12 corpus
# coalgebra, keeps that below 3 million entries.
MAX_RANK = 144


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r} in {where}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"field {key!r} in {where} has the wrong type")
    return value


# --- matrices and lattices -----------------------------------------------------


def matrix_to_obj(mat: Matrix):
    return [[mat.ring.to_str(v) for v in row] for row in mat.rows]


def matrix_from_obj(obj, ring: Ring, ncols: int, where: str = "matrix") -> Matrix:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise ParseError(f"{where} must be an array of arrays")
    rows = []
    for r in obj:
        if len(r) != ncols:
            raise ParseError(f"{where} rows must have length {ncols}")
        rows.append([ring.parse(v) if isinstance(v, str) else ring.normalize(v) for v in r])
    return Matrix(ring, rows, ncols)


def lattice_to_obj(lat: Lattice):
    return {"ambient_rank": lat.ambient_rank, "basis": matrix_to_obj(lat.basis)}


def lattice_from_obj(obj, ring: Ring) -> Lattice:
    n = _expect(obj, "ambient_rank", int, "lattice")
    basis = matrix_from_obj(_expect(obj, "basis", list, "lattice"), ring, n, "lattice basis")
    return Lattice.from_rows(ring, n, basis.rows)


# --- coalgebras and algebras ------------------------------------------------------


def _sparse_to_obj(ring: Ring, mat: Matrix, n: int):
    triples = []
    for i, row in enumerate(mat.rows):
        for jk, v in enumerate(row):
            if v:
                j, k = divmod(jk, n)
                triples.append([i, j, k, ring.to_str(v)])
    triples.sort(key=lambda t: (t[0], t[1], t[2]))
    return triples


def coalgebra_to_obj(c: Coalgebra):
    obj = {
        "ring": c.ring.to_spec(),
        "rank": c.rank,
        "delta": _sparse_to_obj(c.ring, c.delta, c.rank),
        "counit": [c.ring.to_str(v) for v in c.counit],
    }
    if c.basis_names is not None:
        obj["basis_names"] = list(c.basis_names)
    return obj


def _rank(obj, where: str) -> int:
    """The declared rank, checked against MAX_RANK before anything is allocated."""
    n = _expect(obj, "rank", int, where)
    if isinstance(n, bool):
        raise ParseError(f"{where} rank must be an integer, not a boolean")
    if n < 0:
        raise ParseError("rank must be nonnegative")
    if n > MAX_RANK:
        raise TooLarge(f"{where} rank {n} exceeds the bound {MAX_RANK}")
    return n


def _dense_triples(obj, key: str, ring: Ring, n: int, where: str) -> list:
    """Sparse [i, j, k, coeff] triples as n^3 coefficients, flat at index (i*n + j)*n + k."""
    flat = [ring.zero] * (n * n * n)
    seen = set()
    for entry in _expect(obj, key, list, where):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(f"{key} entries must be [i, j, k, coeff], got {entry!r}")
        i, j, k, coeff = entry
        if any(isinstance(t, bool) for t in (i, j, k)):
            raise ParseError(f"{key} indices must be integers, not booleans, in {entry!r}")
        if not all(isinstance(t, int) and 0 <= t < n for t in (i, j, k)):
            raise ParseError(f"{key} indices out of range in {entry!r}")
        if (i, j, k) in seen:
            raise ParseError(f"duplicate {key} entry for indices {[i, j, k]}")
        seen.add((i, j, k))
        flat[(i * n + j) * n + k] = ring.parse(coeff) if isinstance(coeff, str) else ring.normalize(coeff)
    return flat


def coalgebra_from_obj(obj, validate: bool = True) -> Coalgebra:
    ring = ring_from_spec(_expect(obj, "ring", dict, "coalgebra"))
    n = _rank(obj, "coalgebra")
    flat = _dense_triples(obj, "delta", ring, n, "coalgebra")
    rows = [flat[i * n * n : (i + 1) * n * n] for i in range(n)]
    counit_obj = _expect(obj, "counit", list, "coalgebra")
    if len(counit_obj) != n:
        raise ParseError("counit must have length equal to the rank")
    counit = [ring.parse(v) if isinstance(v, str) else ring.normalize(v) for v in counit_obj]
    names = obj.get("basis_names")
    if names is not None and (len(names) != n or any(not isinstance(s, str) for s in names)):
        raise ParseError("basis_names must list one string per basis vector")
    c = Coalgebra(ring, n, Matrix(ring, rows, n * n), counit, basis_names=names)
    if validate:
        c.require_valid()
    return c


def algebra_to_obj(a: AlgebraPresentation):
    obj = {
        "ring": a.ring.to_spec(),
        "rank": a.rank,
        "mult": _sparse_mult_to_obj(a),
        "unit": [a.ring.to_str(v) for v in a.unit],
    }
    if a.basis_names is not None:
        obj["basis_names"] = list(a.basis_names)
    return obj


def _sparse_mult_to_obj(a: AlgebraPresentation):
    triples = []
    n = a.rank
    for ij, row in enumerate(a.mult.rows):
        i, j = divmod(ij, n)
        for k, v in enumerate(row):
            if v:
                triples.append([i, j, k, a.ring.to_str(v)])
    triples.sort(key=lambda t: (t[0], t[1], t[2]))
    return triples


def algebra_from_obj(obj, validate: bool = True) -> AlgebraPresentation:
    ring = ring_from_spec(_expect(obj, "ring", dict, "algebra"))
    n = _rank(obj, "algebra")
    flat = _dense_triples(obj, "mult", ring, n, "algebra")
    rows = [flat[r * n : (r + 1) * n] for r in range(n * n)]
    unit_obj = _expect(obj, "unit", list, "algebra")
    if len(unit_obj) != n:
        raise ParseError("unit must have length equal to the rank")
    unit = [ring.parse(v) if isinstance(v, str) else ring.normalize(v) for v in unit_obj]
    names = obj.get("basis_names")
    a = AlgebraPresentation(ring, n, Matrix(ring, rows, n), unit, basis_names=names)
    if validate:
        a.require_valid()
    return a


# --- simplicial objects --------------------------------------------------------------


def sset_to_obj(x: FiniteSimplicialSet):
    return {
        "dimension": x.dimension_bound,
        "levels": [list(level) for level in x.levels],
        "faces": [
            {"n": n, "i": i, "map": dict(sorted(x.faces[(n, i)].items()))}
            for (n, i) in sorted(x.faces)
        ],
        "degeneracies": [
            {"n": n, "j": j, "map": dict(sorted(x.degeneracies[(n, j)].items()))}
            for (n, j) in sorted(x.degeneracies)
        ],
    }


def sset_from_obj(obj) -> FiniteSimplicialSet:
    d = _expect(obj, "dimension", int, "simplicial set")
    levels = _expect(obj, "levels", list, "simplicial set")
    faces = {}
    for rec in _expect(obj, "faces", list, "simplicial set"):
        faces[(int(_expect(rec, "n", int, "face record")), int(_expect(rec, "i", int, "face record")))] = dict(
            _expect(rec, "map", dict, "face record")
        )
    degeneracies = {}
    for rec in _expect(obj, "degeneracies", list, "simplicial set"):
        degeneracies[
            (int(_expect(rec, "n", int, "degeneracy record")), int(_expect(rec, "j", int, "degeneracy record")))
        ] = dict(_expect(rec, "map", dict, "degeneracy record"))
    x = FiniteSimplicialSet(d, levels, faces, degeneracies)
    x.require_valid()
    return x


def scoalg_to_obj(c: SimplicialCoalgebra):
    return {
        "ring": c.ring.to_spec(),
        "dimension": c.dimension_bound,
        "levels": [coalgebra_to_obj(level) for level in c.levels],
        "faces": [
            {"n": n, "i": i, "matrix": matrix_to_obj(c.faces[(n, i)])}
            for (n, i) in sorted(c.faces)
        ],
        "degeneracies": [
            {"n": n, "j": j, "matrix": matrix_to_obj(c.degeneracies[(n, j)])}
            for (n, j) in sorted(c.degeneracies)
        ],
    }


# --- file level -------------------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _loads(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def save_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_coalgebra(path: str) -> Coalgebra:
    return coalgebra_from_obj(load_json(path))


def load_algebra(path: str) -> AlgebraPresentation:
    return algebra_from_obj(load_json(path))


def load_coalgebra_or_algebra(path: str):
    obj = load_json(path)
    if isinstance(obj, dict) and "mult" in obj:
        return algebra_from_obj(obj)
    return coalgebra_from_obj(obj)


def load_lattice(path: str, ring: Ring) -> Lattice:
    return lattice_from_obj(load_json(path), ring)


def load_sset(path: str) -> FiniteSimplicialSet:
    return sset_from_obj(load_json(path))


def load_coalgebra_map(path: str) -> CoalgebraMap:
    obj = load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    dom_path = _expect(obj, "domain", str, "map")
    cod_path = _expect(obj, "codomain", str, "map")
    domain = load_coalgebra(os.path.join(base, dom_path))
    codomain = load_coalgebra(os.path.join(base, cod_path))
    matrix = matrix_from_obj(_expect(obj, "matrix", list, "map"), domain.ring, codomain.rank, "map matrix")
    if matrix.nrows != domain.rank:
        raise ParseError("map matrix must have one row per domain basis vector")
    f = CoalgebraMap(domain, codomain, matrix)
    bad = f.validate().first_failure()
    if bad is not None:
        raise ValidationError(f"coalgebra map axiom failed: {bad}")
    return f


def coalgebra_map_to_obj(f: CoalgebraMap, domain_path: str, codomain_path: str):
    return {
        "domain": domain_path,
        "codomain": codomain_path,
        "matrix": matrix_to_obj(f.matrix),
    }


def load_simplicial_map(path: str) -> SimplicialMap:
    obj = load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    domain = load_sset(os.path.join(base, _expect(obj, "domain", str, "simplicial map")))
    codomain = load_sset(os.path.join(base, _expect(obj, "codomain", str, "simplicial map")))
    recs = _expect(obj, "maps", list, "simplicial map")
    maps = [{} for _ in range(domain.dimension_bound + 1)]
    for rec in recs:
        n = _expect(rec, "n", int, "simplicial map level")
        if not 0 <= n <= domain.dimension_bound:
            raise ParseError(f"level {n} outside the truncation")
        maps[n] = dict(_expect(rec, "map", dict, "simplicial map level"))
    m = SimplicialMap(domain, codomain, maps)
    m.require_valid()
    return m


def simplicial_map_to_obj(m: SimplicialMap, domain_path: str, codomain_path: str):
    return {
        "domain": domain_path,
        "codomain": codomain_path,
        "maps": [
            {"n": n, "map": dict(sorted(m.maps[n].items()))}
            for n in range(m.domain.dimension_bound + 1)
        ],
    }
