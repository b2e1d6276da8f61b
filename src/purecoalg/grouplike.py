"""Group-like elements, pointedness, and the set-coalgebra adjunction.

A group-like element g satisfies Delta(g) = g (x) g and eps(g) = 1;
group-likes of C correspond to characters of the dual algebra A = C^v,
and characters are exactly the joint eigen-covectors of the commuting
left-multiplication operators of A, with eigenvalue vector equal to the
character values.  The search runs in integers for every ring, on the
stored blocks of D * Delta (D the lcm of the denominators of Delta,
1 over Z and F_p).  It splits
Z^n (or F_p^n) recursively into the saturated lattices of simultaneous
eigenspaces, pursuing only eigenvalues in the ground field (no other
eigenvalue can contribute); an integer eigenvalue lam of the scaled
operators is the character value lam / D.  The candidates whose
coordinates lie in the ground ring are then verified exactly against
the defining equations, in integers like the search.  Eigenvalues are
integer roots, or roots in F_p found by root finding for every prime,
of characteristic polynomials; the exhaustive scan
``group_likes_bruteforce`` is an oracle for tests only.

A block that acts on an eigenspace as a scalar lam needs none of that:
its characteristic polynomial is (x - lam)^r, lam is its only root, and
the eigenspace comes back unchanged.  Each character's joint eigenspace
is a line, so after the first few splits almost every block is such a
scalar, and the search tests for it first, on the image of the Hermite
basis, before it forms a characteristic polynomial.

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
from dataclasses import dataclass
from fractions import Fraction

from .binomial import frobenius_matrix, iterated_frobenius
from .coalgebra import Coalgebra, CoalgebraMap, dual_algebra, stored_coordinates, validate_map
from .errors import (
    NotGroupLike,
    NotGroupLikeImage,
    NotPointed,
    TooLarge,
    UnsupportedRing,
)
from .lattice import Lattice
from .matrix import Matrix, charpoly, elementary_divisors, hnf_basis, left_kernel_rows
from .polyroots import integer_roots, prime_field_roots
from .rings import ZZ, Ring, cleared_rows

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
    """Whether Delta(g) = g (x) g and eps(g) = 1.

    The comultiplication is compared in integers for every ring: with
    g = a / d, d the lcm of the denominators (1 over Z and F_p), and the
    stored blocks X_i of D * Delta(e_i), Delta(g) = g (x) g is
    d * sum_i a_i X_i = D * (a (x) a), mod p over F_p.
    """
    d, (a,) = cleared_rows([g])
    lhs = c.ring.reduce_row([d * u for u in stored_coordinates(c, a)])
    if lhs != c.ring.reduce_row([c.denom * x * y for x in a for y in a]):
        return False
    return c.counit_of(g) == c.ring.one


def _restriction(space: Lattice, image: Matrix) -> Matrix:
    """Coordinates of each image row in the Hermite basis of an invariant space."""
    rows = []
    for row in image.rows:
        coords = space.solve(row)
        if coords is None:
            raise AssertionError("joint eigenspace lost invariance")
        rows.append(coords)
    return Matrix(space.ring, rows, space.rank)


def _roots(coeffs, ring: Ring) -> list[int]:
    """Roots in Z or F_p of a monic characteristic polynomial over that ring."""
    if ring.kind == "Fp":
        return prime_field_roots(coeffs, ring.p)
    return integer_roots(coeffs)


def _scalar(space: Lattice, image: Matrix):
    """The lam with image = lam * (Hermite basis of the space), or None if there is none.

    lam is read off the pivot of the first basis row, by exact division
    over Z and with the inverse mod p over F_p.
    """
    first = space.basis.rows[0]
    pivot = next(k for k, v in enumerate(first) if v)
    if space.ring.kind == "Fp":
        lam = image.rows[0][pivot] * pow(first[pivot], -1, space.ring.p) % space.ring.p
    else:
        lam, rem = divmod(image.rows[0][pivot], first[pivot])
        if rem:
            return None
    return lam if image == space.basis.scale(lam) else None


def _character_tuples(blocks, n: int, ring: Ring) -> list[tuple]:
    """Joint eigen-covector eigenvalue tuples of the integral dual multiplications.

    ``ring`` is Z or F_p and ``blocks`` are stored blocks integral over
    it.  The transposed left multiplication by the i-th dual basis
    vector is the n x n matrix whose row r is row i of block r.  Each
    joint eigenspace is kept as the Hermite basis of its
    saturated lattice; an integral block maps that lattice into itself,
    so its restriction is an integer matrix found by back-substitution,
    and its eigenvalues in the ring are roots of an integer (or mod p)
    characteristic polynomial.

    A block whose image of the Hermite basis is lam times that basis is
    the scalar lam on the space, and the space passes on unchanged with
    lam appended.  That is exactly what the general step would give: the
    characteristic polynomial is (x - lam)^r with the single root lam,
    the kernel of the zero matrix is the whole space and its Hermite
    basis is the one it already has.  A block that maps the space out of
    itself is never such a scalar, so it still reaches ``_restriction``
    and its invariance check.
    """
    if n == 0:
        return []
    spaces = [(Lattice.full(ring, n), ())]
    for i in range(n):
        rows = [[0] * n for _ in range(n)]
        for row, x in zip(rows, blocks):
            for k, v in x.get(i, ()):
                row[k] = v
        block = Matrix(ring, rows, n)
        nxt = []
        for space, prefix in spaces:
            image = space.basis * block
            lam = _scalar(space, image)
            if lam is not None:
                nxt.append((space, prefix + (lam,)))
                continue
            restriction = _restriction(space, image)
            ident = Matrix.identity(ring, space.rank)
            for lam in _roots(charpoly(restriction), ring):
                ker_rows = left_kernel_rows(restriction - ident.scale(lam))
                if not ker_rows:
                    continue
                newbasis = hnf_basis(Matrix(ring, ker_rows, space.rank) * space.basis)
                nxt.append((Lattice(ring, n, newbasis), prefix + (lam,)))
        spaces = nxt
        if not spaces:
            return []
    return [prefix for _, prefix in spaces]


def _characters(c: Coalgebra) -> list[tuple]:
    """The fraction-field-valued characters of the dual algebra.

    The search runs over Z (over F_p) on the stored blocks; an
    eigenvalue lam of the scaled blocks is the character value lam / D.
    """
    tuples = _character_tuples(c.blocks, c.rank, c.base)
    if c.ring.kind == "Fp":
        return tuples
    return [tuple(Fraction(lam, c.denom) for lam in t) for t in tuples]


def _in_ring(ring: Ring, values) -> bool:
    return ring.kind == "Fp" or all(ring.contains_fraction(x) for x in values)


def _verified_group_likes(c: Coalgebra, tuples) -> list:
    """The characters with coordinates in the ground ring, each reverified exactly."""
    ring = c.ring
    vectors = []
    for tup in tuples:
        if not _in_ring(ring, tup):
            continue
        cand = list(tup) if ring.kind == "Fp" else [ring.from_fraction(x) for x in tup]
        if not _is_group_like(c, cand):
            raise AssertionError("character candidate failed exact verification")
        vectors.append(tuple(cand))
    vectors.sort()
    return vectors


def group_likes(c: Coalgebra) -> GroupLikeSet:
    """All group-like elements, with certificates.

    The eigen-covector recursion finds the characters over the fraction
    field; a candidate survives if every coordinate lies in the ground
    ring, and each survivor is reverified exactly against the definition.
    """
    return _certified(c, _verified_group_likes(c, _characters(c)))


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

    The stored blocks X_a = D * Delta(e_a) scale the form by D^2, which
    keeps its rank, so the Gram matrix is integral.  The transposed
    multiplication by the i-th dual basis vector has row a equal to row
    i of X_a, so tr(B_i B_j) = sum over a, b of X_a[i][b] * X_b[j][a],
    summed over the nonzero entries only.
    """
    n = c.rank
    # column a of block b, as its nonzero (j, X_b[j][a])
    columns = [[[] for _ in range(n)] for _ in range(n)]
    for b, x in enumerate(c.blocks):
        for j, entries in x.items():
            for a, w in entries:
                columns[b][a].append((j, w))
    gram = [[0] * n for _ in range(n)]
    for a, x in enumerate(c.blocks):
        for i, entries in x.items():
            row = gram[i]
            for b, v in entries:
                for j, w in columns[b][a]:
                    row[j] += v * w
    return hnf_basis(Matrix(ZZ, gram, n)).nrows


def _semisimple_dimension(c: Coalgebra) -> int:
    """Dimension of the semisimple quotient of the dual algebra over the fraction field.

    The radical is the kernel of the iterated Frobenius in characteristic
    p and of the trace form in characteristic zero.
    """
    if c.ring.kind == "Fp":
        return iterated_frobenius(frobenius_matrix(dual_algebra(c))).rank()
    return _trace_form_rank(c)


def _pointedness(c: Coalgebra, tuples) -> PointednessReport:
    """Pointedness from the characters: as many as the semisimple dimension, all integral."""
    semisimple_dim = _semisimple_dimension(c)
    nonintegral = [t for t in tuples if not _in_ring(c.ring, t)]
    flag = semisimple_dim == len(tuples) and not nonintegral
    return PointednessReport(semisimple_dim, len(tuples), tuple(sorted(nonintegral)), flag)


def is_pointed(c: Coalgebra):
    """Decide pointedness; returns (flag, PointednessReport)."""
    report = _pointedness(c, _characters(c))
    return report.pointed, report


def pointed_group_likes(c: Coalgebra, need: str) -> GroupLikeSet:
    """Certified group-likes of a coalgebra that must be pointed.

    One character search serves both the pointedness decision and the
    group-likes, with every check of ``is_pointed`` and ``group_likes``.
    A coalgebra that is not pointed raises NotPointed with ``need`` and
    the report.
    """
    tuples = _characters(c)
    report = _pointedness(c, tuples)
    if not report.pointed:
        raise NotPointed(f"{need}\n{report}")
    return _certified(c, _verified_group_likes(c, tuples))


def counit_retraction(g, c: Coalgebra) -> CoalgebraMap:
    """The retraction x -> eps(x) * g onto the line of a group-like g."""
    g = list(g)
    if tuple(g) not in set(group_likes(c).vectors):
        raise NotGroupLike(f"{g} is not group-like in {c}")
    rows = []
    for e in c.counit:
        rows.append(c.ring.reduce_row([e * x for x in g]))
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
