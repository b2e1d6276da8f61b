"""Truncated simplicial sets, simplicial coalgebras, chains, homology.

Simplicial sets are stored through a fixed truncation dimension with
explicit degeneracies.  One table lists every simplicial identity that
fits inside the truncation, and one walk lists the faces and
degeneracies; the validators of simplicial sets, simplicial coalgebras
and their maps all read these two, on name dicts or on matrices, and a
face or degeneracy recorded outside the truncation is refused.
Linearization produces simplicial coalgebras
whose levels are set-like, and homology goes through the normalized
chain complex on nondegenerate simplices: the degenerate part of each
level is a direct summand, so the quotient is free and the boundary
descends integrally.

Truncation keeps claims honest: with top dimension d, homology (and the
weak-equivalence predicate, which asks the mapping cone of the induced
normalized chain map to be acyclic) is only reported through degree
d - 1.  Cofibrations are degreewise injections with pure image, decided
by elementary divisors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .coalgebra import (
    Coalgebra,
    CoalgebraMap,
    ValidationReport,
    set_like,
    validate_map,
)
from .errors import (
    AmbientMismatch,
    DegreeTooHigh,
    RingMismatch,
    ValidationError,
)
from .grouplike import pointed_group_likes
from .lattice import Lattice
from .matrix import Matrix, elementary_divisors
from .rings import ZZ, Ring


class FiniteSimplicialSet:
    """A d-truncated simplicial set with named simplices."""

    __slots__ = ("dimension_bound", "levels", "faces", "degeneracies")

    def __init__(self, dimension_bound: int, levels, faces, degeneracies):
        self.dimension_bound = dimension_bound
        self.levels = [list(level) for level in levels]
        self.faces = dict(faces)
        self.degeneracies = dict(degeneracies)
        if len(self.levels) != dimension_bound + 1:
            raise ValidationError(
                f"expected {dimension_bound + 1} levels, got {len(self.levels)}"
            )

    def __repr__(self):
        sizes = ", ".join(str(len(level)) for level in self.levels)
        return f"FiniteSimplicialSet(d={self.dimension_bound}; sizes {sizes})"

    def validate(self) -> ValidationReport:
        return validate_sset(self)

    def require_valid(self):
        return self.validate().require(self, "simplicial identity failed")


# --- the identity table -------------------------------------------------------
#
# A path is a tuple of (table, key) steps, table "faces" or "degeneracies",
# applied to a simplex left to right (so a product of row-vector matrices
# in the same order); the empty path is the identity.  Labels are format
# strings, filled in only for a failure.

_FACE_FACE = ("face-face identities", "d_{} d_{}")
_DEGENERACY_DEGENERACY = ("degeneracy-degeneracy identities", "s_{} s_{}")
_FACE_DEGENERACY = ("face-degeneracy identities", "d_{} s_{}")


def _simplicial_identities(d: int):
    """Each identity of a d-truncation once, as (family, i, j, level n, lhs path, rhs path).

    d_i d_j = d_{j-1} d_i for i < j, s_i s_j = s_{j+1} s_i for i <= j, and
    d_i s_j = s_{j-1} d_i, the identity, or s_j d_{i-1} as i < j,
    i in {j, j+1}, or i > j+1 (May, Simplicial Objects, Def. 1.1), on
    the simplices of level n.  At n = 0 every i is j or j + 1.
    """
    d_ = [[("faces", (n, i)) for i in range(n + 1)] for n in range(d + 1)]
    s_ = [[("degeneracies", (n, j)) for j in range(n + 1)] for n in range(d + 1)]
    for n in range(2, d + 1):
        for j in range(n + 1):
            for i in range(j):
                yield _FACE_FACE, i, j, n, (d_[n][j], d_[n - 1][i]), (d_[n][i], d_[n - 1][j - 1])
    for n in range(d - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield _DEGENERACY_DEGENERACY, i, j, n, (s_[n][j], s_[n + 1][i]), (s_[n][i], s_[n + 1][j + 1])
    for n in range(d):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = (d_[n][i], s_[n - 1][j - 1])
                elif i > j + 1:
                    rhs = (d_[n][i - 1], s_[n - 1][j])
                else:
                    rhs = ()
                yield _FACE_DEGENERACY, i, j, n, (s_[n][j], d_[n + 1][i]), rhs


def _structure_maps(face_keys, degeneracy_keys):
    """Each face, then each degeneracy, in the given key order: (table, (n, k), target level, label)."""
    for n, i in face_keys:
        yield "faces", (n, i), n - 1, "face d_{}"
    for n, j in degeneracy_keys:
        yield "degeneracies", (n, j), n + 1, "degeneracy s_{}"


def _truncation_maps(d: int):
    """The structure maps a d-truncation has, faces (n, i) for 1 <= n <= d and degeneracies (n, j) for n < d."""
    return _structure_maps(
        [(n, i) for n in range(1, d + 1) for i in range(n + 1)], [(n, j) for n in range(d) for j in range(n + 1)]
    )


def _images(steps, path, level: list) -> list:
    """The simplices of a level carried along a path: the stored images under its first map, then each later map."""
    if not path:
        return level
    out = steps[path[0]][1]
    for step in path[1:]:
        out = list(map(steps[step][0], out))
    return out


def validate_sset(x: FiniteSimplicialSet) -> ValidationReport:
    """Check totality of the structure maps and every in-range identity.

    A face or degeneracy outside the truncation fails totality too.
    """
    report = ValidationReport()
    names = [set(level) for level in x.levels]
    loc = next((f"level {n}" for n, level in enumerate(x.levels) if len(names[n]) != len(level)), "")
    report.add("level names distinct", not loc, loc)

    steps = {}  # (table, key) -> (lookup in the map, images of the level under it)
    loc = ""
    for table, (n, k), target, label in _truncation_maps(x.dimension_bound):
        mapping = getattr(x, table).get((n, k))
        if mapping is None:
            loc = f"missing {label.format(k)} on level {n}"
            break
        images = list(map(mapping.get, x.levels[n]))
        steps[(table, (n, k))] = (mapping.__getitem__, images)
        if None in images or not names[target].issuperset(images):  # None: a missing simplex, or a name
            bad = [s for s in x.levels[n] if s not in mapping or mapping[s] not in names[target]]
            if bad:
                loc = f"{label.format(k)} at {bad[0]!r} (level {n})"
                break
    if not loc and len(x.faces) + len(x.degeneracies) > len(steps):
        loc = next((f"unexpected {label.format(k)} on level {n}"
                    for table, (n, k), _, label in _structure_maps(x.faces, x.degeneracies)
                    if (table, (n, k)) not in steps), "")
    report.add("structure maps total", not loc, loc)
    if loc:
        return report

    locs = dict.fromkeys((_FACE_FACE, _DEGENERACY_DEGENERACY, _FACE_DEGENERACY), "")
    for family, i, j, n, lhs, rhs in _simplicial_identities(x.dimension_bound):
        if locs[family]:
            continue
        left, right = _images(steps, lhs, x.levels[n]), _images(steps, rhs, x.levels[n])
        if left != right:
            s = next(s for s, a, b in zip(x.levels[n], left, right) if a != b)
            locs[family] = f"{family[1].format(i, j)} at {s!r} (level {n})"
    for (name, _), loc in locs.items():
        report.add(name, not loc, loc)
    return report


# --- building truncations from nondegenerate cells ---------------------------


def _surjections(n: int, m: int):
    """Monotone surjections [n] ->> [m] as value tuples, lexicographic."""
    out = []
    for stepped in combinations(range(n), m):
        vals = [0]
        for i in range(n):
            vals.append(vals[-1] + (1 if i in stepped else 0))
        out.append(tuple(vals))
    return sorted(out)


def _tuple_name(t: tuple, base: str) -> str:
    dups = [j for j in range(len(t) - 1) if t[j] == t[j + 1]]
    if not dups:
        return base
    return "".join(f"s{j}" for j in reversed(dups)) + f"({base})"


def simplicial_set_from_cells(dimension_bound: int, cells) -> FiniteSimplicialSet:
    """Truncated simplicial set generated by nondegenerate cells.

    ``cells[m]`` lists the m-cells: vertices are plain names, an m-cell
    for m > 0 is a pair (name, faces) whose faces are the m+1 elements
    (ops, base) of dimension m-1, where ops is a descending tuple of
    degeneracy indices applied to the base cell (empty for a
    nondegenerate face).  Every element of the truncation is a pair
    (monotone surjection, nondegenerate cell); faces and degeneracies
    act by precomposition and the usual factorization.
    """
    nd_names = []
    face_table: dict[tuple[int, str], list] = {}
    for m, level in enumerate(cells):
        names = []
        for cell in level:
            if m == 0:
                names.append(cell)
                continue
            name, faces = cell
            names.append(name)
            if len(faces) != m + 1:
                raise ValidationError(f"cell {name!r} of dimension {m} needs {m + 1} faces")
            resolved = []
            for ops, base in faces:
                t = tuple(range(m - len(ops)))
                for j in sorted(ops):
                    t = t[: j + 1] + t[j:]
                resolved.append((t, base))
            face_table[(m, name)] = resolved
        nd_names.append(names)

    def element_face(n, t, base, i):
        t2 = t[:i] + t[i + 1 :]
        m = t[-1]
        if len(set(t2)) == m + 1:
            return t2, base
        v = t[i]
        ft, fbase = face_table[(m, base)][v]
        t3 = tuple([w if w < v else w - 1 for w in t2])
        return tuple([ft[w] for w in t3]), fbase

    levels = []
    elements = []
    for n in range(dimension_bound + 1):
        level_elems = []
        for m in range(min(n, len(nd_names) - 1) + 1):
            for base in nd_names[m]:
                for t in _surjections(n, m):
                    level_elems.append((t, base))
        elements.append(level_elems)
        levels.append([_tuple_name(t, base) for t, base in level_elems])

    faces = {}
    for n in range(1, dimension_bound + 1):
        for i in range(n + 1):
            fmap = {}
            for t, base in elements[n]:
                ft, fbase = element_face(n, t, base, i)
                fmap[_tuple_name(t, base)] = _tuple_name(ft, fbase)
            faces[(n, i)] = fmap
    degeneracies = {}
    for n in range(dimension_bound):
        for j in range(n + 1):
            smap = {}
            for t, base in elements[n]:
                st = t[: j + 1] + t[j:]
                smap[_tuple_name(t, base)] = _tuple_name(st, base)
            degeneracies[(n, j)] = smap
    out = FiniteSimplicialSet(dimension_bound, levels, faces, degeneracies)
    out.require_valid()
    return out


def standard_point(d: int = 2) -> FiniteSimplicialSet:
    return simplicial_set_from_cells(d, [["pt"]])


def two_point_set(d: int = 2) -> FiniteSimplicialSet:
    return simplicial_set_from_cells(d, [["x", "y"]])


def standard_interval(d: int = 2) -> FiniteSimplicialSet:
    cells = [["a", "b"], [("e", [((), "b"), ((), "a")])]]
    return simplicial_set_from_cells(d, cells)


def standard_circle(d: int = 2) -> FiniteSimplicialSet:
    cells = [["v"], [("e", [((), "v"), ((), "v")])]]
    return simplicial_set_from_cells(d, cells)


def projective_plane(d: int = 3) -> FiniteSimplicialSet:
    """Minimal model: one vertex, one edge, one 2-cell glued along the
    doubled edge (faces a, s0(v), a)."""
    cells = [
        ["v"],
        [("a", [((), "v"), ((), "v")])],
        [("U", [((), "a"), ((0,), "v"), ((), "a")])],
    ]
    return simplicial_set_from_cells(d, cells)


# --- simplicial coalgebras ----------------------------------------------------


class SimplicialCoalgebra:
    """Levelwise coalgebras with face and degeneracy coalgebra maps."""

    __slots__ = ("ring", "dimension_bound", "levels", "faces", "degeneracies")

    def __init__(self, ring: Ring, levels, faces, degeneracies):
        self.ring = ring
        self.levels = list(levels)
        self.dimension_bound = len(self.levels) - 1
        self.faces = dict(faces)
        self.degeneracies = dict(degeneracies)

    def __repr__(self):
        ranks = ", ".join(str(l.rank) for l in self.levels)
        return f"SimplicialCoalgebra({self.ring}; ranks {ranks})"

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        loc = next((f"level {n}: {bad}" for n, level in enumerate(self.levels)
                    if (bad := level.validate().first_failure())), "")
        report.add("levels are coalgebras", not loc, loc)

        maps = _structure_maps(sorted(self.faces), sorted(self.degeneracies))
        loc = next((f"{label.format(k)} on level {n}: {bad}" for table, (n, k), target, label in maps
                    if (bad := _map_failure(self.levels[n], self.levels[target], getattr(self, table)[(n, k)]))),
                   "")
        report.add("structure maps are coalgebra maps", not loc, loc)

        loc = next((f"{family[1].format(i, j)} on level {n}"
                    for family, i, j, n, lhs, rhs in _simplicial_identities(self.dimension_bound)
                    if self._product(lhs, n) != self._product(rhs, n)), "")
        report.add("simplicial identities", not loc, loc)
        return report

    def _product(self, path, n: int) -> Matrix:
        """The matrix of a path on level n, starting at its first factor."""
        if not path:
            return Matrix.identity(self.ring, self.levels[n].rank)
        out = getattr(self, path[0][0])[path[0][1]]
        for table, key in path[1:]:
            out = out * getattr(self, table)[key]
        return out

    def require_valid(self):
        return self.validate().require(self, "simplicial coalgebra check failed")


def _map_failure(domain: Coalgebra, codomain: Coalgebra, mat: Matrix):
    """The first failed axiom of the coalgebra map given by mat, None when it is one."""
    return validate_map(CoalgebraMap(domain, codomain, mat)).first_failure()


def _converted(x, convert):
    """The faces and degeneracies dicts of x with each map replaced by convert(map, its level, its target level)."""
    tables = {"faces": {}, "degeneracies": {}}
    for table, (n, k), target, _ in _structure_maps(x.faces, x.degeneracies):
        tables[table][(n, k)] = convert(getattr(x, table)[(n, k)], n, target)
    return tables["faces"], tables["degeneracies"]


def _map_matrix(ring, mapping, dom_names, cod_names) -> Matrix:
    index = {name: i for i, name in enumerate(cod_names)}
    rows = []
    for s in dom_names:
        row = [ring.zero] * len(cod_names)
        row[index[mapping[s]]] = ring.one
        rows.append(row)
    return Matrix(ring, rows, len(cod_names))


def chains_functor(x: FiniteSimplicialSet, ring: Ring) -> SimplicialCoalgebra:
    """Levelwise linearization: set-like coalgebras and linearized maps."""
    return _chains(x.require_valid(), ring)


def _chains(x: FiniteSimplicialSet, ring: Ring) -> SimplicialCoalgebra:
    """``chains_functor`` of a simplicial set already checked."""
    levels = [set_like(ring, level) for level in x.levels]
    faces, degeneracies = _converted(
        x, lambda mapping, n, target: _map_matrix(ring, mapping, x.levels[n], x.levels[target]))
    return SimplicialCoalgebra(ring, levels, faces, degeneracies)


def _vector_name(vector, coalgebra: Coalgebra) -> str:
    ring = coalgebra.ring
    ones = [i for i, v in enumerate(vector) if v == ring.one]
    if len(ones) == 1 and all(not v for i, v in enumerate(vector) if i != ones[0]):
        return coalgebra.name_of(ones[0])
    return "(" + ",".join(ring.to_str(v) for v in vector) + ")"


def gr_simplicial(c: SimplicialCoalgebra) -> FiniteSimplicialSet:
    """Levelwise group-likes with the induced structure maps."""
    return _gr_simplicial(c)[0]


def _gr_simplicial(c: SimplicialCoalgebra):
    """``gr_simplicial`` with the group-likes of each level, in the order of the level's names."""
    level_sets = [pointed_group_likes(level, f"level {n} is not pointed").vectors for n, level in enumerate(c.levels)]
    names = [[_vector_name(g, level) for g in vectors] for vectors, level in zip(level_sets, c.levels)]
    lookup = [dict(zip(vectors, level_names)) for vectors, level_names in zip(level_sets, names)]
    out = FiniteSimplicialSet(c.dimension_bound, names, *_converted(
        c, lambda mat, n, target: _induced(mat, level_sets[n], names[n], lookup[target], c.ring)))
    out.require_valid()
    return out, level_sets


def _induced(mat: Matrix, vectors, names, lookup, ring) -> dict:
    """Each name to the name, under lookup, of the image under mat of its group-like."""
    return {name: lookup[tuple(_apply_rows(mat, list(g), ring))] for g, name in zip(vectors, names)}


def _apply_rows(mat: Matrix, vector, ring):
    out = [ring.zero] * mat.ncols
    for coeff, row in zip(vector, mat.rows):
        if coeff:
            out = [x + coeff * y for x, y in zip(out, row)]
    return ring.reduce_row(out)


# --- chain complexes and homology ----------------------------------------------


@dataclass
class HomologyGroup:
    """Free rank and torsion of a homology group; the free part prints as the coefficient ring."""

    betti: int
    torsion: tuple
    ring: Ring = ZZ

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append(f"{self.ring}")
        elif self.betti > 1:
            parts.append(f"{self.ring}^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass
class ChainComplex:
    """Free chain complex: ranks per degree and boundary matrices, with each boundary's Smith divisors held."""

    ring: Ring
    ranks: list
    boundaries: dict  # degree n -> Matrix (ranks[n] x ranks[n-1])
    _divisors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def check_square_zero(self):
        for n in range(2, len(self.ranks)):
            prod = self.boundaries[n] * self.boundaries[n - 1]
            if not prod.is_zero():
                raise AssertionError(f"boundary squared is nonzero in degree {n}")

    def _smith(self, n: int) -> list:
        """The Smith divisors of d_n, held: each boundary is eliminated once."""
        if n not in self._divisors:
            self._divisors[n] = elementary_divisors(self.boundaries[n])
        return self._divisors[n]

    def homology(self, n: int) -> HomologyGroup:
        """H_n = ker d_n / im d_{n+1}, read off the Smith forms of d_n and d_{n+1}.

        The cycles are a kernel into a free module, so they are pure, of
        rank ranks[n] less the number of divisors of d_n, and C_n / cycles
        is free: the torsion of H_n is that of C_n / im d_{n+1}, the
        non-unit divisors of d_{n+1}, and its free rank is the cycle rank
        less their number.  The boundaries are cycles when
        d_{n+1} * d_n = 0, which is checked at the degree asked.
        """
        if n + 1 >= len(self.ranks):
            raise DegreeTooHigh(f"degree {n} homology needs chain degree {n + 1}")
        ring, image = self.ring, self.boundaries[n + 1]
        cycle_rank = self.ranks[n]
        if n:
            if not (image * self.boundaries[n]).is_zero():
                raise AssertionError("boundary image must consist of cycles")
            cycle_rank -= len(self._smith(n))
        divs = self._smith(n + 1)
        torsion = [int(ring.to_fraction(dv)) for dv in divs if not ring.is_unit(dv)]
        return HomologyGroup(cycle_rank - len(divs), tuple(torsion), ring)


def normalized_complex(c: SimplicialCoalgebra) -> ChainComplex:
    """Normalized chains: quotient each level by its degenerate summand.

    The degenerate sublattice is the sum of the degeneracy images; it is
    pure (it splits off), so the quotient is free with an integral
    projection and section, and the alternating face sum descends.
    """
    return _normalized(c)[0]


def _normalized(c: SimplicialCoalgebra):
    """(complex, projections, sections): one ``complement_projection`` per level serves all three."""
    ring = c.ring
    d = c.dimension_bound
    projections = []
    sections = []
    ranks = []
    for n, level in enumerate(c.levels):
        rows = []
        for j in range(n):
            rows.extend(c.degeneracies[(n - 1, j)].rows)
        degenerate = Lattice.from_rows(ring, level.rank, rows)
        flag, witness = degenerate.is_pure()
        if not flag:
            raise AssertionError(f"degenerate part of level {n} is impure (witness {witness})")
        proj, section = degenerate.complement_projection()
        projections.append(proj)
        sections.append(section)
        ranks.append(proj.ncols)
    boundaries = {}
    for n in range(1, d + 1):
        total = Matrix.zeros(ring, c.levels[n].rank, c.levels[n - 1].rank)
        sign = 1
        for i in range(n + 1):
            mat = c.faces[(n, i)]
            total = total + mat if sign > 0 else total - mat
            sign = -sign
        boundaries[n] = sections[n] * total * projections[n - 1]
    cx = ChainComplex(ring, ranks, boundaries)
    cx.check_square_zero()
    return cx, projections, sections


def require_degree(top_degree: int, dimension_bound: int):
    """Refuse a negative degree, or one the truncation cannot support: degree N needs dimension N + 1.

    Callers check this before building any chains.
    """
    if top_degree < 0:
        raise ValidationError(f"degree must be at least 0, got {top_degree}")
    if top_degree > dimension_bound - 1:
        raise DegreeTooHigh(f"degree {top_degree} needs truncation dimension at least {top_degree + 1}")


def homology(c: SimplicialCoalgebra, top_degree: int) -> list[HomologyGroup]:
    """Integral homology of the normalized complex through top_degree."""
    require_degree(top_degree, c.dimension_bound)
    cx = normalized_complex(c)
    return [cx.homology(n) for n in range(top_degree + 1)]


# --- maps ------------------------------------------------------------------------


class SimplicialMap:
    """Map of truncated simplicial sets, given levelwise on names."""

    __slots__ = ("domain", "codomain", "maps")

    def __init__(self, domain: FiniteSimplicialSet, codomain: FiniteSimplicialSet, maps):
        if domain.dimension_bound != codomain.dimension_bound:
            raise AmbientMismatch("simplicial map needs equal truncation dimensions")
        self.domain = domain
        self.codomain = codomain
        self.maps = [dict(m) for m in maps]

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        dom, cod, maps = self.domain, self.codomain, self.maps
        loc = next((f"level {n} at {s!r}" for n, level in enumerate(dom.levels) for s in level
                    if s not in maps[n] or maps[n][s] not in cod.levels[n]), "")
        report.add("levelwise totality", not loc, loc)
        if loc:
            return report
        loc = ""
        for table, (n, k), target, label in _structure_maps(dom.faces, dom.degeneracies):
            before, after = getattr(dom, table)[(n, k)], getattr(cod, table)[(n, k)]
            source, image = maps[n], maps[target]
            bad = [s for s in dom.levels[n] if image[before[s]] != after[source[s]]]
            if bad:
                loc = f"{label.format(k)} at {bad[0]!r} (level {n})"
                break
        report.add("commutes with structure maps", not loc, loc)
        return report

    def require_valid(self):
        return self.validate().require(self, "simplicial map check failed")


def constant_map(x: FiniteSimplicialSet, target: FiniteSimplicialSet, vertex: str) -> SimplicialMap:
    """The map collapsing x to the degeneracies of one vertex of target."""
    if vertex not in target.levels[0]:
        raise ValidationError(f"{vertex!r} is not a vertex of the target")
    images = [vertex]
    for n in range(target.dimension_bound):
        images.append(target.degeneracies[(n, 0)][images[-1]])
    maps = [{s: images[n] for s in level} for n, level in enumerate(x.levels)]
    return SimplicialMap(x, target, maps)


def identity_simplicial_map(x: FiniteSimplicialSet) -> SimplicialMap:
    return SimplicialMap(x, x, [{s: s for s in level} for level in x.levels])


class SimplicialCoalgebraMap:
    """Levelwise coalgebra maps commuting with faces and degeneracies."""

    __slots__ = ("domain", "codomain", "levels")

    def __init__(self, domain: SimplicialCoalgebra, codomain: SimplicialCoalgebra, levels):
        if domain.dimension_bound != codomain.dimension_bound:
            raise AmbientMismatch("map needs equal truncation dimensions")
        if domain.ring != codomain.ring:
            raise RingMismatch(f"{domain.ring} vs {codomain.ring}")
        self.domain = domain
        self.codomain = codomain
        self.levels = list(levels)

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        dom, cod, levels = self.domain, self.codomain, self.levels
        loc = next((f"level {n}: {bad}" for n, mat in enumerate(levels)
                    if (bad := _map_failure(dom.levels[n], cod.levels[n], mat))), "")
        report.add("levelwise coalgebra maps", not loc, loc)
        if loc:
            return report
        loc = next((f"{label.format(k)} on level {n}"
                    for table, (n, k), target, label in _structure_maps(dom.faces, dom.degeneracies)
                    if getattr(dom, table)[(n, k)] * levels[target] != levels[n] * getattr(cod, table)[(n, k)]), "")
        report.add("simplicial naturality", not loc, loc)
        return report

    def require_valid(self):
        return self.validate().require(self, "simplicial coalgebra map check failed")


def gr_simplicial_map(f: SimplicialCoalgebraMap) -> SimplicialMap:
    """Induced map of simplicial sets on levelwise group-likes."""
    f.require_valid()
    dom, dom_sets = _gr_simplicial(f.domain)
    cod, cod_sets = _gr_simplicial(f.codomain)
    maps = [_induced(f.levels[n], dom_sets[n], dom.levels[n], dict(zip(cod_sets[n], cod.levels[n])), f.domain.ring)
            for n in range(f.domain.dimension_bound + 1)]
    out = SimplicialMap(dom, cod, maps)
    out.require_valid()
    return out


def chains_map(m: SimplicialMap, ring: Ring) -> SimplicialCoalgebraMap:
    """Levelwise linearization of a map, checking its domain and codomain first: the map check needs valid sets.

    A codomain that is the domain object is checked and linearized once.
    """
    m.domain.require_valid()
    if m.codomain is not m.domain:
        m.codomain.require_valid()
    m.require_valid()
    dom = _chains(m.domain, ring)
    cod = dom if m.codomain is m.domain else _chains(m.codomain, ring)
    mats = [
        _map_matrix(ring, m.maps[n], m.domain.levels[n], m.codomain.levels[n])
        for n in range(m.domain.dimension_bound + 1)
    ]
    return SimplicialCoalgebraMap(dom, cod, mats)


def mapping_cone(f: SimplicialCoalgebraMap) -> ChainComplex:
    """Cone of the induced map of normalized complexes."""
    f.require_valid()
    ring = f.domain.ring
    normal = _normalized(f.domain)
    cx_dom, _, dom_sections = normal
    cx_cod, cod_projections, _ = normal if f.codomain is f.domain else _normalized(f.codomain)
    d = f.domain.dimension_bound
    # induced normalized chain map
    induced = {}
    for n in range(d + 1):
        induced[n] = dom_sections[n] * f.levels[n] * cod_projections[n]
    for n in range(1, d + 1):
        if cx_dom.boundaries[n] * induced[n - 1] != induced[n] * cx_cod.boundaries[n]:
            raise AssertionError("induced normalized map failed to be a chain map")
    ranks = []
    boundaries = {}
    for n in range(d + 1):
        ranks.append(cx_cod.ranks[n] + (cx_dom.ranks[n - 1] if n >= 1 else 0))
    for n in range(1, d + 1):
        top = cx_cod.boundaries[n]
        rows = []
        for row in top.rows:
            rows.append(list(row) + [ring.zero] * (cx_dom.ranks[n - 2] if n >= 2 else 0))
        for phi_row, bnd_row in zip(
            induced[n - 1].rows,
            (cx_dom.boundaries[n - 1].rows if n >= 2 else [[]] * cx_dom.ranks[n - 1]),
        ):
            rows.append(list(phi_row) + [-v for v in bnd_row])
        boundaries[n] = Matrix(ring, rows, ranks[n - 1])
    cone = ChainComplex(ring, ranks, boundaries)
    cone.check_square_zero()
    return cone


def is_weak_equivalence(f: SimplicialCoalgebraMap, top_degree: int) -> bool:
    """Mapping-cone acyclicity through the requested degree.

    An abstract isomorphism of homology groups does not certify that the
    induced map is one; vanishing cone homology does.
    """
    require_degree(top_degree, f.domain.dimension_bound)
    cone = mapping_cone(f)
    return all(cone.homology(n).is_trivial() for n in range(top_degree + 1))


def is_cofibration(f: SimplicialCoalgebraMap) -> bool:
    """Degreewise injectivity with pure image, via elementary divisors.

    The predicate reads only the underlying module maps, so it answers
    for any levelwise matrix data, valid coalgebra map or not.
    """
    for n, mat in enumerate(f.levels):
        divs = elementary_divisors(mat)
        if len(divs) != f.domain.levels[n].rank:
            return False
        if not all(f.domain.ring.is_unit(dv) for dv in divs):
            return False
    return True
