"""Truncated simplicial sets, simplicial coalgebras, chains, homology.

Simplicial sets are stored through a fixed truncation dimension with
explicit degeneracies; every simplicial identity that fits inside the
truncation is checked.  Linearization produces simplicial coalgebras
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

from dataclasses import dataclass
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
from .grouplike import group_likes, pointed_group_likes
from .lattice import Lattice, kernel_lattice
from .matrix import Matrix, elementary_divisors
from .rings import Ring


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
        report = self.validate()
        bad = report.first_failure()
        if bad is not None:
            raise ValidationError(f"simplicial identity failed: {bad}")
        return self


def validate_sset(x: FiniteSimplicialSet) -> ValidationReport:
    """Check totality of the structure maps and every in-range identity."""
    report = ValidationReport()
    d = x.dimension_bound

    names = [set(level) for level in x.levels]
    dup_loc = ""
    for n, level in enumerate(x.levels):
        if len(set(level)) != len(level):
            dup_loc = f"level {n}"
            break
    report.add("level names distinct", not dup_loc, dup_loc)

    total_loc = ""
    for n in range(1, d + 1):
        for i in range(n + 1):
            fmap = x.faces.get((n, i))
            if fmap is None:
                total_loc = f"missing face d_{i} on level {n}"
                break
            for s in x.levels[n]:
                if s not in fmap or fmap[s] not in names[n - 1]:
                    total_loc = f"face d_{i} at {s!r} (level {n})"
                    break
            if total_loc:
                break
        if total_loc:
            break
    if not total_loc:
        for n in range(d):
            for j in range(n + 1):
                smap = x.degeneracies.get((n, j))
                if smap is None:
                    total_loc = f"missing degeneracy s_{j} on level {n}"
                    break
                for s in x.levels[n]:
                    if s not in smap or smap[s] not in names[n + 1]:
                        total_loc = f"degeneracy s_{j} at {s!r} (level {n})"
                        break
                if total_loc:
                    break
            if total_loc:
                break
    report.add("structure maps total", not total_loc, total_loc)
    if total_loc:
        return report

    loc = ""
    for n in range(2, d + 1):
        for j in range(n + 1):
            for i in range(j):
                for s in x.levels[n]:
                    lhs = x.faces[(n - 1, i)][x.faces[(n, j)][s]]
                    rhs = x.faces[(n - 1, j - 1)][x.faces[(n, i)][s]]
                    if lhs != rhs:
                        loc = f"d_{i} d_{j} at {s!r} (level {n})"
                        break
                if loc:
                    break
            if loc:
                break
        if loc:
            break
    report.add("face-face identities", not loc, loc)

    loc = ""
    for n in range(d - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for s in x.levels[n]:
                    lhs = x.degeneracies[(n + 1, i)][x.degeneracies[(n, j)][s]]
                    rhs = x.degeneracies[(n + 1, j + 1)][x.degeneracies[(n, i)][s]]
                    if lhs != rhs:
                        loc = f"s_{i} s_{j} at {s!r} (level {n})"
                        break
                if loc:
                    break
            if loc:
                break
        if loc:
            break
    report.add("degeneracy-degeneracy identities", not loc, loc)

    loc = ""
    for n in range(d):
        for j in range(n + 1):
            for i in range(n + 2):
                for s in x.levels[n]:
                    img = x.faces[(n + 1, i)][x.degeneracies[(n, j)][s]]
                    if i == j or i == j + 1:
                        expected = s
                    elif i < j:
                        if n == 0:
                            continue
                        expected = x.degeneracies[(n - 1, j - 1)][x.faces[(n, i)][s]]
                    else:
                        if n == 0:
                            continue
                        expected = x.degeneracies[(n - 1, j)][x.faces[(n, i - 1)][s]]
                    if img != expected:
                        loc = f"d_{i} s_{j} at {s!r} (level {n})"
                        break
                if loc:
                    break
            if loc:
                break
        if loc:
            break
    report.add("face-degeneracy identities", not loc, loc)
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
        t3 = tuple(w if w < v else w - 1 for w in t2)
        return tuple(ft[w] for w in t3), fbase

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
        d = self.dimension_bound
        loc = ""
        for n, level in enumerate(self.levels):
            bad = level.validate().first_failure()
            if bad is not None:
                loc = f"level {n}: {bad}"
                break
        report.add("levels are coalgebras", not loc, loc)

        loc = ""
        for (n, i), mat in sorted(self.faces.items()):
            f = CoalgebraMap(self.levels[n], self.levels[n - 1], mat)
            bad = validate_map(f).first_failure()
            if bad is not None:
                loc = f"face d_{i} on level {n}: {bad}"
                break
        if not loc:
            for (n, j), mat in sorted(self.degeneracies.items()):
                f = CoalgebraMap(self.levels[n], self.levels[n + 1], mat)
                bad = validate_map(f).first_failure()
                if bad is not None:
                    loc = f"degeneracy s_{j} on level {n}: {bad}"
                    break
        report.add("structure maps are coalgebra maps", not loc, loc)

        loc = ""
        for n in range(2, d + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = self.faces[(n, j)] * self.faces[(n - 1, i)]
                    rhs = self.faces[(n, i)] * self.faces[(n - 1, j - 1)]
                    if lhs != rhs:
                        loc = f"d_{i} d_{j} on level {n}"
                        break
                if loc:
                    break
            if loc:
                break
        if not loc:
            for n in range(d - 1):
                for j in range(n + 1):
                    for i in range(j + 1):
                        lhs = self.degeneracies[(n, j)] * self.degeneracies[(n + 1, i)]
                        rhs = self.degeneracies[(n, i)] * self.degeneracies[(n + 1, j + 1)]
                        if lhs != rhs:
                            loc = f"s_{i} s_{j} on level {n}"
                            break
                    if loc:
                        break
                if loc:
                    break
        if not loc:
            for n in range(d):
                for j in range(n + 1):
                    for i in range(n + 2):
                        prod = self.degeneracies[(n, j)] * self.faces[(n + 1, i)]
                        if i == j or i == j + 1:
                            expected = Matrix.identity(self.ring, self.levels[n].rank)
                        elif i < j:
                            if n == 0:
                                continue
                            expected = self.faces[(n, i)] * self.degeneracies[(n - 1, j - 1)]
                        else:
                            if n == 0:
                                continue
                            expected = self.faces[(n, i - 1)] * self.degeneracies[(n - 1, j)]
                        if prod != expected:
                            loc = f"d_{i} s_{j} on level {n}"
                            break
                    if loc:
                        break
                if loc:
                    break
        report.add("simplicial identities", not loc, loc)
        return report

    def require_valid(self):
        bad = self.validate().first_failure()
        if bad is not None:
            raise ValidationError(f"simplicial coalgebra check failed: {bad}")
        return self


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
    x.require_valid()
    levels = [set_like(ring, level) for level in x.levels]
    faces = {
        key: _map_matrix(ring, mapping, x.levels[key[0]], x.levels[key[0] - 1])
        for key, mapping in x.faces.items()
    }
    degeneracies = {
        key: _map_matrix(ring, mapping, x.levels[key[0]], x.levels[key[0] + 1])
        for key, mapping in x.degeneracies.items()
    }
    return SimplicialCoalgebra(ring, levels, faces, degeneracies)


def _vector_name(vector, coalgebra: Coalgebra) -> str:
    ring = coalgebra.ring
    ones = [i for i, v in enumerate(vector) if v == ring.one]
    if len(ones) == 1 and all(not v for i, v in enumerate(vector) if i != ones[0]):
        return coalgebra.name_of(ones[0])
    return "(" + ",".join(ring.to_str(v) for v in vector) + ")"


def gr_simplicial(c: SimplicialCoalgebra) -> FiniteSimplicialSet:
    """Levelwise group-likes with the induced structure maps."""
    level_sets = []
    for n, level in enumerate(c.levels):
        level_sets.append(pointed_group_likes(level, f"level {n} is not pointed").vectors)
    names = [
        [_vector_name(g, level) for g in vectors]
        for vectors, level in zip(level_sets, c.levels)
    ]
    lookup = [
        {g: name for g, name in zip(vectors, lnames)}
        for vectors, lnames in zip(level_sets, names)
    ]

    def induce(mat, n, target_level):
        mapping = {}
        for g, name in zip(level_sets[n], names[n]):
            img = tuple(_apply_rows(mat, list(g), c.ring))
            mapping[name] = lookup[target_level][img]
        return mapping

    faces = {key: induce(mat, key[0], key[0] - 1) for key, mat in c.faces.items()}
    degeneracies = {key: induce(mat, key[0], key[0] + 1) for key, mat in c.degeneracies.items()}
    out = FiniteSimplicialSet(c.dimension_bound, names, faces, degeneracies)
    out.require_valid()
    return out


def _apply_rows(mat: Matrix, vector, ring):
    out = [ring.zero] * mat.ncols
    for coeff, row in zip(vector, mat.rows):
        if coeff:
            out = [x + coeff * y for x, y in zip(out, row)]
    if ring.kind == "Fp":
        out = [v % ring.p for v in out]
    return out


# --- chain complexes and homology ----------------------------------------------


@dataclass
class HomologyGroup:
    betti: int
    torsion: tuple

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass
class ChainComplex:
    """Free chain complex: ranks per degree and boundary matrices."""

    ring: Ring
    ranks: list
    boundaries: dict  # degree n -> Matrix (ranks[n] x ranks[n-1])

    def check_square_zero(self):
        for n in range(2, len(self.ranks)):
            prod = self.boundaries[n] * self.boundaries[n - 1]
            if not prod.is_zero():
                raise AssertionError(f"boundary squared is nonzero in degree {n}")

    def homology(self, n: int) -> HomologyGroup:
        if n + 1 >= len(self.ranks):
            raise DegreeTooHigh(f"degree {n} homology needs chain degree {n + 1}")
        if n == 0:
            cycles = Lattice.full(self.ring, self.ranks[0])
        else:
            cycles = kernel_lattice(self.boundaries[n])
        image_rows = self.boundaries[n + 1].rows
        rel_rows = []
        for row in image_rows:
            coords = cycles.solve(row)
            if coords is None:
                raise AssertionError("boundary image must consist of cycles")
            rel_rows.append(coords)
        rel = Matrix(self.ring, rel_rows, cycles.rank)
        divs = elementary_divisors(rel)
        torsion = []
        for dv in divs:
            if not self.ring.is_unit(dv):
                torsion.append(int(self.ring.to_fraction(dv)))
        return HomologyGroup(cycles.rank - len(divs), tuple(torsion))


def normalized_complex(c: SimplicialCoalgebra) -> ChainComplex:
    """Normalized chains: quotient each level by its degenerate summand.

    The degenerate sublattice is the sum of the degeneracy images; it is
    pure (it splits off), so the quotient is free with an integral
    projection and section, and the alternating face sum descends.
    """
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
    return cx


def homology(c: SimplicialCoalgebra, top_degree: int) -> list[HomologyGroup]:
    """Integral homology of the normalized complex through top_degree."""
    if top_degree > c.dimension_bound - 1:
        raise DegreeTooHigh(
            f"degree {top_degree} needs truncation dimension at least {top_degree + 1}"
        )
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
        loc = ""
        for n, level in enumerate(self.domain.levels):
            mapping = self.maps[n]
            for s in level:
                if s not in mapping or mapping[s] not in self.codomain.levels[n]:
                    loc = f"level {n} at {s!r}"
                    break
            if loc:
                break
        report.add("levelwise totality", not loc, loc)
        if loc:
            return report
        loc = ""
        for (n, i), fmap in self.domain.faces.items():
            for s in self.domain.levels[n]:
                if self.maps[n - 1][fmap[s]] != self.codomain.faces[(n, i)][self.maps[n][s]]:
                    loc = f"face d_{i} at {s!r} (level {n})"
                    break
            if loc:
                break
        if not loc:
            for (n, j), smap in self.domain.degeneracies.items():
                for s in self.domain.levels[n]:
                    if self.maps[n + 1][smap[s]] != self.codomain.degeneracies[(n, j)][self.maps[n][s]]:
                        loc = f"degeneracy s_{j} at {s!r} (level {n})"
                        break
                if loc:
                    break
        report.add("commutes with structure maps", not loc, loc)
        return report

    def require_valid(self):
        bad = self.validate().first_failure()
        if bad is not None:
            raise ValidationError(f"simplicial map check failed: {bad}")
        return self


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
        loc = ""
        for n, mat in enumerate(self.levels):
            f = CoalgebraMap(self.domain.levels[n], self.codomain.levels[n], mat)
            bad = validate_map(f).first_failure()
            if bad is not None:
                loc = f"level {n}: {bad}"
                break
        report.add("levelwise coalgebra maps", not loc, loc)
        if loc:
            return report
        loc = ""
        for (n, i), mat in self.domain.faces.items():
            if mat * self.levels[n - 1] != self.levels[n] * self.codomain.faces[(n, i)]:
                loc = f"face d_{i} on level {n}"
                break
        if not loc:
            for (n, j), mat in self.domain.degeneracies.items():
                if mat * self.levels[n + 1] != self.levels[n] * self.codomain.degeneracies[(n, j)]:
                    loc = f"degeneracy s_{j} on level {n}"
                    break
        report.add("simplicial naturality", not loc, loc)
        return report

    def require_valid(self):
        bad = self.validate().first_failure()
        if bad is not None:
            raise ValidationError(f"simplicial coalgebra map check failed: {bad}")
        return self


def gr_simplicial_map(f: SimplicialCoalgebraMap) -> SimplicialMap:
    """Induced map of simplicial sets on levelwise group-likes."""
    f.require_valid()
    dom = gr_simplicial(f.domain)
    cod = gr_simplicial(f.codomain)
    maps = []
    for n in range(f.domain.dimension_bound + 1):
        dom_level = f.domain.levels[n]
        cod_level = f.codomain.levels[n]
        cod_lookup = {g: _vector_name(g, cod_level) for g in group_likes(cod_level).vectors}
        mapping = {}
        for g in group_likes(dom_level).vectors:
            img = tuple(_apply_rows(f.levels[n], list(g), f.domain.ring))
            mapping[_vector_name(g, dom_level)] = cod_lookup[img]
        maps.append(mapping)
    out = SimplicialMap(dom, cod, maps)
    out.require_valid()
    return out


def chains_map(m: SimplicialMap, ring: Ring) -> SimplicialCoalgebraMap:
    m.require_valid()
    dom = chains_functor(m.domain, ring)
    cod = chains_functor(m.codomain, ring)
    mats = [
        _map_matrix(ring, m.maps[n], m.domain.levels[n], m.codomain.levels[n])
        for n in range(m.domain.dimension_bound + 1)
    ]
    return SimplicialCoalgebraMap(dom, cod, mats)


def mapping_cone(f: SimplicialCoalgebraMap) -> ChainComplex:
    """Cone of the induced map of normalized complexes."""
    f.require_valid()
    ring = f.domain.ring
    cx_dom = normalized_complex(f.domain)
    cx_cod = normalized_complex(f.codomain)
    d = f.domain.dimension_bound
    # induced normalized chain map
    dom_sections = _normalized_sections(f.domain)
    cod_projections = _normalized_projections(f.codomain)
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


def _normalized_sections(c: SimplicialCoalgebra):
    out = []
    for n, level in enumerate(c.levels):
        rows = []
        for j in range(n):
            rows.extend(c.degeneracies[(n - 1, j)].rows)
        degenerate = Lattice.from_rows(c.ring, level.rank, rows)
        _, section = degenerate.complement_projection()
        out.append(section)
    return out


def _normalized_projections(c: SimplicialCoalgebra):
    out = []
    for n, level in enumerate(c.levels):
        rows = []
        for j in range(n):
            rows.extend(c.degeneracies[(n - 1, j)].rows)
        degenerate = Lattice.from_rows(c.ring, level.rank, rows)
        proj, _ = degenerate.complement_projection()
        out.append(proj)
    return out


def is_weak_equivalence(f: SimplicialCoalgebraMap, top_degree: int) -> bool:
    """Mapping-cone acyclicity through the requested degree.

    An abstract isomorphism of homology groups does not certify that the
    induced map is one; vanishing cone homology does.
    """
    if top_degree > f.domain.dimension_bound - 1:
        raise DegreeTooHigh(
            f"degree {top_degree} needs truncation dimension at least {top_degree + 1}"
        )
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
