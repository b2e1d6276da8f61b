"""Canonical JSON formats for every object the command line exchanges.

All integers that are ring elements travel as decimal strings (rationals
as "a/b" in lowest terms) so consumers never lose precision; structural
indices stay JSON numbers.  Serialization is canonical: keys sorted,
sparse triples sorted, coefficients in lowest terms, two-space indent,
trailing newline.  Parsing a canonical coalgebra or algebra file and
reserializing it is a byte round trip.  Both kinds of structure-constant
file share one parser and one writer: an algebra is held as its dual
coalgebra, and its file lists the dual's entries (t, i, j) as
[i, j, t, coeff].  Simplicial sets and maps are only read: no command
writes one.  ``coalgebra_from_obj`` and ``algebra_from_obj`` validate
what they parse;
``parse_coalgebra_or_algebra`` and ``sset_from_obj`` only parse, for the
callers that report or check the axioms themselves.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .coalgebra import AlgebraPresentation, Coalgebra, algebra_from_entries, coalgebra_from_entries
from .errors import OutputError, ParseError, TooLarge
from .lattice import Lattice
from .matrix import Matrix
from .rings import Ring, ring_from_spec
from .simplicial import (
    FiniteSimplicialSet,
    SimplicialCoalgebra,
    SimplicialMap,
)

# The largest rank a coalgebra or algebra file may declare, and the most
# simplices a level of a simplicial set file may have (each level becomes
# a coalgebra of that rank).  Coalgebras and algebras hold only their
# nonzero structure constants, so storage grows with the file; what the
# bound limits is the run time of the axiom checks, which is cubic in n
# for a dense input.  144 is the rank of the tensor square of a rank-12
# corpus coalgebra.
MAX_RANK = 144
# The most coalgebras one ``corpus generate`` command may make.  The
# generator holds every entry before anything is printed or written, at
# about 0.55 ms each at the default rank bound of 12 (2-vCPU VM, Python
# 3.11), so the bound is a few seconds of work; the library generator
# has none.
MAX_CORPUS_COUNT = 10_000
# The largest dimension a simplicial set file may declare.  Checking the
# simplicial identities of a d-truncation walks O(d^3) identities even
# when every level holds one simplex: a one-vertex set at d = 32
# validates in about 0.06 s, at d = 150 in seconds (2-vCPU VM, Python
# 3.11).  The files in data/ go up to d = 3.
MAX_DIMENSION = 32
# The largest file, in bytes, that any command reads.  It is checked on
# the open file before anything is read, so no parse and no axiom check
# runs on a larger one.  The rank-144 tensor square of a twisted rank-12
# corpus coalgebra is a 1.85 MB file; a rank-144 file listing every
# triple would be about 57 MB.
MAX_FILE_BYTES = 8 * 2**20


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


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
    n = _rank(obj, "lattice", "ambient_rank")
    basis = matrix_from_obj(_expect(obj, "basis", list, "lattice"), ring, n, "lattice basis")
    return Lattice.from_rows(ring, n, basis.rows)


# --- coalgebras and algebras ------------------------------------------------------


def _index(obj, key: str, where: str) -> int:
    """A structural integer field, refused when it is a boolean."""
    n = _expect(obj, key, int, where)
    if isinstance(n, bool):
        raise ParseError(f"{where} {key} must be an integer, not a boolean")
    return n


def _rank(obj, where: str, key: str = "rank") -> int:
    """The declared rank, checked against MAX_RANK before anything is allocated."""
    n = _index(obj, key, where)
    if n < 0:
        raise ParseError(f"{key} must be nonnegative")
    if n > MAX_RANK:
        raise TooLarge(f"{where} {key} {n} exceeds the bound {MAX_RANK}")
    return n


def _triples(obj, key: str, ring: Ring, n: int, where: str) -> list:
    """The sparse [i, j, k, coeff] entries as (i, j, k, coeff) with coeff in the ring, checked."""
    out = []
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
        out.append((i, j, k, ring.parse(coeff) if isinstance(coeff, str) else ring.normalize(coeff)))
    return out


def _basis_names(obj, n: int):
    names = obj.get("basis_names")
    if names is not None and (not isinstance(names, list) or len(names) != n
                              or any(not isinstance(s, str) for s in names)):
        raise ParseError("basis_names must list one string per basis vector")
    return names


# The two kinds of structure-constant file, both written from the blocks of a coalgebra (an algebra's
# dual): the table and unit fields, the file's index order for a block entry, and the entries' builder
_KINDS = {
    "coalgebra": ("delta", "counit", lambda i, j, k: [i, j, k], coalgebra_from_entries),
    "algebra": ("mult", "unit", lambda t, i, j: [i, j, t], algebra_from_entries),
}


def _constants_to_obj(kind: str, c: Coalgebra, names):
    table, unit, order, _ = _KINDS[kind]
    obj = {
        "ring": c.ring.to_spec(),
        "rank": c.rank,
        table: sorted(
            order(i, j, k) + [c.ring.to_str(Fraction(v, c.denom))]
            for i, block in enumerate(c.blocks)
            for j, entries in block.items()
            for k, v in entries
        ),
        unit: [c.ring.to_str(v) for v in c.counit],
    }
    if names is not None:
        obj["basis_names"] = list(names)
    return obj


def coalgebra_to_obj(c: Coalgebra):
    return _constants_to_obj("coalgebra", c, c.basis_names)


def algebra_to_obj(a: AlgebraPresentation):
    return _constants_to_obj("algebra", a.dual, a.basis_names)


def _parsed(kind: str, obj):
    """The coalgebra or algebra of a parsed file, its axioms not yet checked."""
    table, unit, _, build = _KINDS[kind]
    ring = ring_from_spec(_expect(obj, "ring", dict, kind))
    n = _rank(obj, kind)
    entries = _triples(obj, table, ring, n, kind)
    unit_obj = _expect(obj, unit, list, kind)
    if len(unit_obj) != n:
        raise ParseError(f"{unit} must have length equal to the rank")
    units = [ring.parse(v) if isinstance(v, str) else ring.normalize(v) for v in unit_obj]
    return build(ring, n, entries, units, basis_names=_basis_names(obj, n))


def coalgebra_from_obj(obj) -> Coalgebra:
    return _parsed("coalgebra", obj).require_valid()


def algebra_from_obj(obj) -> AlgebraPresentation:
    return _parsed("algebra", obj).require_valid()


def parse_coalgebra_or_algebra(obj):
    """The algebra of a parsed file with a "mult" field, else its coalgebra; no axiom is checked."""
    return _parsed("algebra" if isinstance(obj, dict) and "mult" in obj else "coalgebra", obj)


# --- simplicial objects --------------------------------------------------------------


def _name_map(rec, where):
    mapping = _expect(rec, "map", dict, where)
    if any(isinstance(v, (list, dict)) for v in mapping.values()):
        raise ParseError(f"the map of a {where} must send names to names")
    return dict(mapping)


def _structure_records(obj, table: str, index: str, where: str) -> dict:
    """The face or degeneracy maps of a simplicial set file by (n, index); a repeated key is refused."""
    out = {}
    for rec in _expect(obj, table, list, "simplicial set"):
        key = (_index(rec, "n", where), _index(rec, index, where))
        if key in out:
            raise ParseError(f"duplicate {where} for n={key[0]}, {index}={key[1]}")
        out[key] = _name_map(rec, where)
    return out


def sset_from_obj(obj) -> FiniteSimplicialSet:
    """The simplicial set of a parsed file, not yet checked against the simplicial identities."""
    d = _index(obj, "dimension", "simplicial set")
    if d < 0:
        raise ParseError("simplicial set dimension must be nonnegative")
    if d > MAX_DIMENSION:
        raise TooLarge(f"simplicial set dimension {d} exceeds the bound {MAX_DIMENSION}")
    levels = _expect(obj, "levels", list, "simplicial set")
    for n, level in enumerate(levels):
        if not isinstance(level, list) or any(isinstance(s, (list, dict)) for s in level):
            raise ParseError(f"level {n} of the simplicial set must be an array of names")
        if len(level) > MAX_RANK:
            raise TooLarge(f"simplicial set level {n} has {len(level)} simplices, above the bound {MAX_RANK}")
    faces = _structure_records(obj, "faces", "i", "face record")
    degeneracies = _structure_records(obj, "degeneracies", "j", "degeneracy record")
    return FiniteSimplicialSet(d, levels, faces, degeneracies)


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
    """The JSON value in a file of at most MAX_FILE_BYTES bytes; TooLarge, before any read, above that."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size > MAX_FILE_BYTES:
                raise TooLarge(f"{path} has {size} bytes, above the bound {MAX_FILE_BYTES}")
            return _loads(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def save_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from None


def load_coalgebra(path: str) -> Coalgebra:
    return coalgebra_from_obj(load_json(path))


def load_coalgebra_or_algebra(path: str):
    """The validated coalgebra of a file, or its algebra unvalidated, as every consumer of an algebra checks it."""
    thing = parse_coalgebra_or_algebra(load_json(path))
    return thing if isinstance(thing, AlgebraPresentation) else thing.require_valid()


def load_lattice(path: str, ring: Ring) -> Lattice:
    return lattice_from_obj(load_json(path), ring)


def load_sset(path: str) -> FiniteSimplicialSet:
    """The simplicial set of a file, not yet checked against the simplicial identities."""
    return sset_from_obj(load_json(path))


def load_simplicial_map(path: str) -> SimplicialMap:
    """The simplicial map of a file and its two sets, none of them checked yet: ``chains_map`` checks each once.

    A set named by both ends is loaded once, as one object.
    """
    obj = load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    domain_path = os.path.normpath(os.path.join(base, _expect(obj, "domain", str, "simplicial map")))
    domain = load_sset(domain_path)
    codomain_path = os.path.normpath(os.path.join(base, _expect(obj, "codomain", str, "simplicial map")))
    codomain = domain if codomain_path == domain_path else load_sset(codomain_path)
    recs = _expect(obj, "maps", list, "simplicial map")
    maps = [None] * (domain.dimension_bound + 1)
    for rec in recs:
        n = _index(rec, "n", "simplicial map level")
        if not 0 <= n <= domain.dimension_bound:
            raise ParseError(f"level {n} outside the truncation")
        if maps[n] is not None:
            raise ParseError(f"duplicate simplicial map level {n}")
        maps[n] = dict(_expect(rec, "map", dict, "simplicial map level"))
    return SimplicialMap(domain, codomain, [m or {} for m in maps])
