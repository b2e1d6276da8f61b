"""Group-like elements, pointedness, and the set-coalgebra adjunction.

A group-like element g satisfies Delta(g) = g (x) g and eps(g) = 1;
group-likes of C correspond to characters of the dual algebra A = C^v,
and characters are exactly the joint eigen-covectors of the commuting
left-multiplication operators of A, with eigenvalue vector equal to the
character values.  The search therefore splits the fraction-field space
recursively into simultaneous eigenspaces, pursuing only eigenvalues in
the ground field (no other eigenvalue can contribute), then keeps the
candidates whose coordinates are integral and verifies the defining
equations exactly.  Eigenvalues in F_p are the roots of the
characteristic polynomial found by root finding for every prime; the
exhaustive scan ``group_likes_bruteforce`` is an oracle for tests only.

Pointedness is decided over the fraction field K: C is pointed iff the
semisimple quotient of A (x) K has dimension equal to the number of
K-valued characters (so C (x) K is pointed) and every group-like of
C (x) K already has coordinates in R.  The radical is the trace-form
kernel in characteristic zero and the iterated Frobenius kernel in
characteristic p.  The trace form is built over Z: clearing the
denominators of Delta scales it by a square and keeps its rank.

A caller that needs both answers uses ``pointed_group_likes``, which
runs the character search once for the pointedness decision and the
group-likes together.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .binomial import frobenius_matrix, iterated_frobenius
from .coalgebra import Coalgebra, CoalgebraMap, dual_algebra, validate_map
from .errors import (
    NotGroupLike,
    NotGroupLikeImage,
    NotPointed,
    TooLarge,
    UnsupportedRing,
)
from .lattice import Lattice
from .matrix import Matrix, charpoly, elementary_divisors, hnf, hnf_basis
from .polyroots import integer_roots, prime_field_roots
from .rings import ZZ, Ring

BRUTE_FORCE_BOUND = 10**7


@dataclass
class GroupLikeSet:
    """The group-likes of a coalgebra plus independence and purity certificates."""

    coalgebra: Coalgebra
    vectors: tuple
    independence_divisors: tuple
    pure: bool
    purity_witness: object = None

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def lattice(self) -> Lattice:
        return Lattice.from_rows(self.coalgebra.ring, self.coalgebra.rank, [list(v) for v in self.vectors])


@dataclass
class PointednessReport:
    semisimple_dimension: int
    character_count: int
    nonintegral_grouplikes: tuple
    pointed: bool

    def __str__(self):
        lines = [
            f"semisimple dimension over the fraction field: {self.semisimple_dimension}",
            f"ground-field characters: {self.character_count}",
        ]
        for g in self.nonintegral_grouplikes:
            lines.append("non-integral group-like: (" + ", ".join(str(x) for x in g) + ")")
        lines.append(f"pointed: {'yes' if self.pointed else 'no'}")
        return "\n".join(lines)


def _is_group_like(c: Coalgebra, g) -> bool:
    ring = c.ring
    n = c.rank
    w = c.comultiply(g)
    outer = [g[j] * g[k] for j in range(n) for k in range(n)]
    if ring.kind == "Fp":
        outer = [v % ring.p for v in outer]
    if w != outer:
        return False
    return c.counit_of(g) == ring.one


def _field_eigenvalues(mat: Matrix) -> list:
    """Eigenvalues of a square matrix that lie in its own (field) ring."""
    ring = mat.ring
    d = mat.nrows
    if d == 0:
        return []
    if ring.kind == "Fp":
        return prime_field_roots(charpoly(mat), ring.p)
    # rational case: scale to an integer matrix, take integer roots, scale back
    denom = 1
    for row in mat.rows:
        for v in row:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    scaled = [[int(v * denom) for v in row] for row in mat.rows]
    coeffs = charpoly(Matrix(ZZ, scaled, d))
    return [Fraction(r, denom) for r in integer_roots(coeffs)]


def _character_tuples(delta_rows, n: int, field: Ring) -> list[tuple]:
    """Joint eigen-covector eigenvalue tuples of the dual multiplications.

    The transposed left multiplication by the i-th dual basis vector is
    the i-th n x n column block of the comultiplication matrix, which
    keeps the recursion a matter of slicing.
    """
    if n == 0:
        return []
    spaces = [(Matrix.identity(field, n), ())]
    for i in range(n):
        block = Matrix(field, [row[i * n : (i + 1) * n] for row in delta_rows], n)
        nxt = []
        for basis, prefix in spaces:
            bn = basis * block
            pivots = basis.pivot_columns()
            restriction = Matrix(field, [[row[pc] for pc in pivots] for row in bn.rows], basis.nrows)
            if restriction * basis != bn:
                raise AssertionError("joint eigenspace lost invariance")
            for lam in _field_eigenvalues(restriction):
                shifted = restriction - Matrix.identity(field, restriction.nrows).scale(lam)
                h, u = hnf(shifted)
                ker_rows = u.rows[h.nrows :]
                if not ker_rows:
                    continue
                newbasis = hnf_basis(Matrix(field, ker_rows, restriction.nrows) * basis)
                nxt.append((newbasis, prefix + (lam,)))
        spaces = nxt
        if not spaces:
            return []
    return [prefix for _, prefix in spaces]


def _characters(c: Coalgebra):
    """The fraction field of the ground ring and the character tuples over it."""
    field = c.ring.fraction_field()
    if field == c.ring:
        delta_rows = c.delta.rows
    else:
        conv = c.ring.to_fraction
        delta_rows = [[conv(v) for v in row] for row in c.delta.rows]
    return field, _character_tuples(delta_rows, c.rank, field)


def _verified_group_likes(c: Coalgebra, field: Ring, tuples) -> list:
    """The characters with coordinates in the ground ring, each reverified exactly."""
    ring = c.ring
    vectors = []
    for tup in tuples:
        if field != ring:
            if not all(ring.contains_fraction(x) for x in tup):
                continue
            cand = [ring.from_fraction(x) for x in tup]
        else:
            cand = list(tup)
        if not _is_group_like(c, cand):
            raise AssertionError("character candidate failed exact verification")
        vectors.append(tuple(cand))
    vectors.sort()
    return vectors


def group_likes(c: Coalgebra) -> GroupLikeSet:
    """All group-like elements, with certificates.

    The eigen-covector recursion runs over the fraction field; a
    candidate survives if every coordinate lies in the ground ring, and
    each survivor is reverified exactly against the definition.
    """
    field, tuples = _characters(c)
    return _certified(c, _verified_group_likes(c, field, tuples))


def _certified(c: Coalgebra, vectors) -> GroupLikeSet:
    # Independence always holds (the classical argument is valid over any
    # domain); purity of the span can fail for exotic inputs, e.g. the dual
    # of Z[x]/(x^2 - 2x), whose group-likes (1,0) and (1,2) collide mod 2.
    # The certificate records that instead of pretending otherwise.
    if vectors:
        stacked = Matrix(c.ring, [list(v) for v in vectors], c.rank)
        divisors = tuple(elementary_divisors(stacked))
        if len(divisors) != len(vectors):
            raise AssertionError("group-likes failed the independence certificate")
        lat = Lattice.from_rows(c.ring, c.rank, [list(v) for v in vectors])
        pure, witness = lat.is_pure()
    else:
        divisors = ()
        pure, witness = True, None
    return GroupLikeSet(c, tuple(vectors), divisors, pure, witness)


def group_likes_bruteforce(c: Coalgebra) -> GroupLikeSet:
    """Exhaustive scan over F_p^n; the oracle for the eigenvector algorithm."""
    ring = c.ring
    if ring.kind != "Fp":
        raise UnsupportedRing("brute force enumeration needs a prime field")
    n = c.rank
    if ring.p**n > BRUTE_FORCE_BOUND:
        raise TooLarge(f"{ring.p}^{n} exceeds the enumeration bound {BRUTE_FORCE_BOUND}")
    vectors = [tuple(g) for g in itertools.product(range(ring.p), repeat=n) if _is_group_like(c, list(g))]
    vectors.sort()
    return _certified(c, vectors)


def _trace_form_rank(c: Coalgebra) -> int:
    """Rank of the trace form (x, y) -> tr(L_x L_y) of the dual algebra.

    Delta is first cleared of denominators by the lcm D of all of them,
    which scales the form by D^2 and keeps its rank, so the Gram matrix
    is integral.  With B_i the i-th n x n column block of Delta (the
    transposed multiplication by the i-th dual basis vector),
    tr(B_i B_j) is the dot product of B_i flattened by rows with B_j
    flattened by columns; the form is symmetric, so only the upper
    triangle is computed.
    """
    n = c.rank
    rows = c.delta.rows
    if c.ring.kind != "Z":
        denom = math.lcm(*(v.denominator for row in rows for v in row))
        rows = [[v.numerator * (denom // v.denominator) for v in row] for row in rows]
    by_rows = [[v for row in rows for v in row[i * n : (i + 1) * n]] for i in range(n)]
    by_cols = [[rows[b][j * n + a] for a in range(n) for b in range(n)] for j in range(n)]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        bi = by_rows[i]
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, bi, by_cols[j]))
    return hnf_basis(Matrix(ZZ, gram, n)).nrows


def _semisimple_dimension(c: Coalgebra) -> int:
    """Dimension of the semisimple quotient of the dual algebra over the fraction field.

    The radical is the kernel of the iterated Frobenius in characteristic
    p and of the trace form in characteristic zero.
    """
    if c.ring.kind == "Fp":
        return iterated_frobenius(frobenius_matrix(dual_algebra(c))).rank()
    return _trace_form_rank(c)


def _pointedness(c: Coalgebra, field: Ring, tuples) -> PointednessReport:
    """Pointedness from the characters: as many as the semisimple dimension, all integral."""
    semisimple_dim = _semisimple_dimension(c)
    nonintegral = []
    if field != c.ring:
        nonintegral = [t for t in tuples if not all(c.ring.contains_fraction(x) for x in t)]
    flag = semisimple_dim == len(tuples) and not nonintegral
    return PointednessReport(semisimple_dim, len(tuples), tuple(sorted(nonintegral)), flag)


def is_pointed(c: Coalgebra):
    """Decide pointedness; returns (flag, PointednessReport)."""
    report = _pointedness(c, *_characters(c))
    return report.pointed, report


def pointed_group_likes(c: Coalgebra, need: str) -> GroupLikeSet:
    """Certified group-likes of a coalgebra that must be pointed.

    One character search serves both the pointedness decision and the
    group-likes, with every check of ``is_pointed`` and ``group_likes``.
    A coalgebra that is not pointed raises NotPointed with ``need`` and
    the report.
    """
    field, tuples = _characters(c)
    report = _pointedness(c, field, tuples)
    if not report.pointed:
        raise NotPointed(f"{need}\n{report}")
    return _certified(c, _verified_group_likes(c, field, tuples))


def counit_retraction(g, c: Coalgebra) -> CoalgebraMap:
    """The retraction x -> eps(x) * g onto the line of a group-like g."""
    g = list(g)
    if tuple(g) not in set(group_likes(c).vectors):
        raise NotGroupLike(f"{g} is not group-like in {c}")
    rows = []
    for e in c.counit:
        row = [e * x for x in g]
        if c.ring.kind == "Fp":
            row = [v % c.ring.p for v in row]
        rows.append(row)
    f = CoalgebraMap(c, c, Matrix(c.ring, rows, c.rank))
    bad = validate_map(f).first_failure()
    if bad is not None:
        raise AssertionError(f"counit retraction failed validation: {bad}")
    return f


def gr_of_map(f: CoalgebraMap):
    """Induced map on group-likes, returned as sorted (source, image) pairs."""
    f.require_valid()
    codomain_set = set(group_likes(f.codomain).vectors)
    pairs = []
    for g in group_likes(f.domain).vectors:
        img = tuple(f.apply(list(g)))
        if img not in codomain_set:
            raise NotGroupLikeImage(f"image of {g} is not group-like")
        pairs.append((g, img))
    return pairs
