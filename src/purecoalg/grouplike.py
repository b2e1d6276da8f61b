"""Group-like elements, pointedness, and the set-coalgebra adjunction.

A group-like element g satisfies Delta(g) = g (x) g and eps(g) = 1;
group-likes of C correspond to characters of the dual algebra A = C^v,
and characters are exactly the joint eigen-covectors of the commuting
left-multiplication operators of A, with eigenvalue vector equal to the
character values.  The search runs in integers for every ring, on the
stored blocks of D * Delta (D the lcm of the denominators of Delta,
1 over Z and F_p).  It splits a saturated lattice recursively into the
saturated lattices of simultaneous eigenspaces, pursuing only
eigenvalues in the ground field (no other eigenvalue can contribute);
an integer eigenvalue lam of the scaled operators is the character
value lam / D.  The candidates whose coordinates lie in the ground ring
are then verified exactly against the defining equations, in integers
like the search.  Eigenvalues are integer roots, or roots in F_p found
by root finding for every prime, of characteristic polynomials.

The search starts not in Z^n (or F_p^n) but in rad(A)^perp, the
coradical of C (x) K over the fraction field K, met with the stored
lattice.  Every character kills rad(A), so every joint eigen-covector
lies there, and rad(A) is an ideal, so the lattice is invariant under
every operator: the joint eigenspaces, and the order in which the
search emits them, are those of a search started in Z^n.  Its rank is
the semisimple dimension of A, the group-like count for a pointed C,
so the first characteristic polynomials are that small.  The radical
is the trace-form kernel in characteristic zero and in characteristic
p > rank (Dickson's criterion), so every ring but a small prime field
takes the row space of one integer trace Gram matrix, mod p over F_p.
For p <= rank the trace form can degenerate, and rad(A), the nilradical
of the commutative A, is the kernel of the iterated Frobenius.  The
trace form is built over Z: clearing the denominators of Delta scales
it by a square and keeps its kernel.

A block that acts on an eigenspace as a scalar lam needs none of that:
its characteristic polynomial is (x - lam)^r, lam is its only root, and
the eigenspace comes back unchanged.  Each character's joint eigenspace
is a line, so after the first few splits almost every block is such a
scalar, and the search tests for it first, on the image of the Hermite
basis, before it forms a characteristic polynomial.

Many coalgebras need no search: their group-likes are basis vectors.
A set-like coalgebra, every level of the chains of a simplicial set, and
a product of such coalgebras built by ``tensor`` have them so, and one
scan of the stored blocks finds them.  Each such candidate is verified
exactly for the count (and once more, like any character, before it is
certified), and distinct group-likes of C (x) K are linearly independent
over K (Sweedler, *Hopf Algebras*; Montgomery, *Hopf Algebras and Their
Actions on Rings*, 5.1), so they are at most as many as the dimension of
rad(A)^perp, the semisimple dimension.  When the verified candidates
number exactly that, there is no other character, and they stand in for
the search's answer; when they fall short, the search runs.

Pointedness is decided over K: C is pointed iff the semisimple quotient
of A (x) K has dimension equal to the number of K-valued characters (so
C (x) K is pointed) and every group-like of C (x) K already has
coordinates in R.  One lattice gives both that dimension and the start
of the search.  Both are derived once per coalgebra: the semisimple
dimension and the characters are held on the Coalgebra after its first
search, and the certified group-likes after their first verification,
so ``is_pointed``, ``group_likes``, ``pointed_group_likes`` and every
structure call on one object share one search, and each check runs once
for the object it guards.  A search, a count or a check that raises
holds nothing, so it raises again on the next call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .binomial import stable_frobenius
from .coalgebra import Coalgebra, CoalgebraMap, dual_algebra, validate_map
from .errors import NotGroupLike, NotPointed
from .lattice import Lattice, kernel_lattice
from .matrix import Matrix, charpoly, hnf_basis
from .polyroots import integer_roots, prime_field_roots
from .rings import Ring, cleared_rows


@dataclass(frozen=True)
class GroupLikeSet:
    """The group-likes of a coalgebra plus independence and purity certificates.

    ``span``, the lattice they span, is built once per set; the coradical, the first
    filtration stage and the primitives read it, its purity verdict and its one transform.
    """

    coalgebra: Coalgebra
    vectors: tuple
    independence_divisors: tuple
    pure: bool
    purity_witness: object = None
    span: Lattice = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.span is None:
            object.__setattr__(self, "span", Lattice.from_rows(self.coalgebra.ring, self.coalgebra.rank, self.vectors))

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


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
    """Whether Delta(g) = g (x) g and eps(g) = 1, for g over the ring or the fraction field.

    The comultiplication is compared in integers for every ring: with
    g = a / d, d the lcm of the denominators (1 over Z and F_p), and the
    stored blocks X_i of D * Delta(e_i), Delta(g) = g (x) g is
    d * sum_i a_i X_i = D * (a (x) a), mod p over F_p, and eps(g) = 1 is
    eps(a) = d.  Both sides are summed over the support of a only, so a
    basis vector costs one block.
    """
    n = c.rank
    d, (a,) = cleared_rows([g])
    support = [(i, x) for i, x in enumerate(a) if x]
    acc = {}
    for i, x in support:
        for j, entries in c.blocks[i].items():
            for k, v in entries:
                acc[j * n + k] = acc.get(j * n + k, 0) + d * x * v
    for j, x in support:
        for k, y in support:
            acc[j * n + k] = acc.get(j * n + k, 0) - c.denom * x * y
    if any(c.ring.reduce_row(list(acc.values()))):
        return False
    return c.counit_of(a) == d


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
    if ring.modulus:
        return prime_field_roots(coeffs, ring.modulus)
    return integer_roots(coeffs)


def _image(row, op, ring: Ring) -> list:
    """row * B for the operator B held as ``op``, its nonzero rows (r, ((k, v), ...))."""
    acc = [0] * len(row)
    for r, entries in op:
        a = row[r]
        if a:
            for k, v in entries:
                acc[k] += a * v
    return ring.reduce_row(acc)


def _eigenspaces(space: Lattice, op, ring: Ring) -> list[tuple]:
    """(lam, eigenspace) for each eigenvalue lam in the ring of one operator on an invariant space.

    The images of the Hermite basis rows are formed one at a time, and
    while each is lam times its row (lam read off the first pivot, which
    is 1 over F_p) the operator may be the scalar lam: then the space
    passes on unchanged, which is what the general step gives for
    charpoly (x - lam)^r.  Otherwise the whole image is restricted to
    the space, with its invariance check, and split by the roots of the
    restriction's characteristic polynomial.
    """
    basis = space.basis.rows
    first = basis[0]
    pivot = next(k for k, v in enumerate(first) if v)
    images = []
    lam = None
    for row in basis:
        image = _image(row, op, ring)
        images.append(image)
        if lam is None:
            lam, rem = divmod(image[pivot], first[pivot])
            if rem:
                break
        if image != ring.reduce_row([lam * x for x in row]):
            break
    else:
        return [(lam, space)]
    images += [_image(row, op, ring) for row in basis[len(images):]]
    restriction = _restriction(space, Matrix(ring, images, space.ambient_rank))
    ident = Matrix.identity(ring, space.rank)
    out = []
    for lam in _roots(charpoly(restriction), ring):
        ker = kernel_lattice(restriction - ident.scale(lam))
        if ker.rank:
            out.append((lam, Lattice(ring, space.ambient_rank, hnf_basis(ker.basis * space.basis))))
    return out


def _character_tuples(blocks, start: Lattice) -> list[tuple]:
    """Joint eigen-covector eigenvalue tuples of the integral dual multiplications, in ascending order.

    ``blocks`` are stored blocks integral over ``start.ring`` (Z or
    F_p), and ``start`` is a saturated lattice that every operator keeps
    and that holds every joint eigen-covector (``_coradical_span``).
    The transposed left multiplication by the i-th dual basis vector has
    row r equal to row i of block r; it is held as those nonzero rows,
    read off the blocks once.  Each joint eigenspace is kept as the
    Hermite basis of its saturated lattice, and an integral operator's
    restriction to it is an integer (or mod p) matrix.
    """
    if start.rank == 0:
        return []
    ring = start.ring
    ops = [[] for _ in range(start.ambient_rank)]
    for r, x in enumerate(blocks):
        for i, entries in x.items():
            ops[i].append((r, entries))
    spaces = [(start, ())]
    for op in ops:
        spaces = [(sub, prefix + (lam,)) for space, prefix in spaces for lam, sub in _eigenspaces(space, op, ring)]
        if not spaces:
            return []
    return [prefix for _, prefix in spaces]


def _characters(c: Coalgebra, start: Lattice) -> list[tuple]:
    """The fraction-field-valued characters of the dual algebra, searched for inside ``start``.

    The search runs over Z (over F_p) on the stored blocks; an
    eigenvalue lam of the scaled blocks is the character value lam / D.
    """
    tuples = _character_tuples(c.blocks, start)
    if c.ring.kind == "Fp":
        return tuples
    return [tuple([Fraction(lam, c.denom) for lam in t]) for t in tuples]


def _in_ring(ring: Ring, values) -> bool:
    return ring.kind == "Fp" or all(ring.contains_fraction(x) for x in values)


def _verified_group_likes(c: Coalgebra, tuples) -> list:
    """The characters with coordinates in the ground ring, each reverified exactly.

    With ``_certified`` it certifies the group-likes of a finder whose
    candidates include every character: each one kept is proved here.
    Counted characters come here verified once already, for the count;
    checking them again costs a scan of their support and keeps one
    certifier for both finders.
    """
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


def _candidates(c: Coalgebra) -> list:
    """Basis vectors of c that are group-like, as tuples in the form ``_characters`` gives.

    They are the e_i whose stored block is D * e_i (x) e_i,
    {i: ((i, D),)}, and whose counit is 1, found in one scan of the
    blocks.
    """
    ring = c.ring
    one, zero = (1, 0) if ring.modulus else (Fraction(1), Fraction(0))
    out = []
    for i, block in enumerate(c.blocks):
        if len(block) == 1 and block.get(i) == ((i, c.denom),) and c.counit[i] == ring.one:
            e = [zero] * c.rank
            e[i] = one
            out.append(tuple(e))
    return out


def _counted(c: Coalgebra, semisimple_dim: int):
    """The characters of c when its candidates, each verified exactly, number the semisimple dimension; else None.

    Every candidate is proved group-like, and one that is not is a
    fault of the finder.  Distinct group-likes of C (x) K are linearly
    independent over K, and all of them lie in rad(A)^perp, of dimension
    ``semisimple_dim``, so that many verified candidates leave room for
    no other character; more than that is impossible, and fewer leave the
    question to the search.
    """
    candidates = set(_candidates(c))
    for g in candidates:
        if not _is_group_like(c, g):
            raise AssertionError("group-like candidate failed exact verification")
    if len(candidates) > semisimple_dim:
        raise AssertionError("more group-likes than the semisimple dimension")
    if len(candidates) < semisimple_dim:
        return None
    return sorted(candidates)


def _search(c: Coalgebra) -> tuple:
    """(semisimple dimension, characters) of c: one coradical span, then a count or one search, held on c.

    The characters are the candidates of ``_candidates`` when their
    count certifies them (``_counted``), and otherwise the character
    search's; either way in the search's ascending order.
    """
    found = c._derived.get("search")
    if found is None:
        start = _coradical_span(c)
        characters = _counted(c, start.rank)
        if characters is None:
            characters = _characters(c, start)
        found = c._derived["search"] = (start.rank, tuple(characters))
    return found


def _group_like_set(c: Coalgebra) -> GroupLikeSet:
    """The certified group-likes of c, verified and certified once and held on c."""
    gl = c._derived.get("group_likes")
    if gl is None:
        gl = c._derived["group_likes"] = _certified(c, _verified_group_likes(c, _search(c)[1]))
    return gl


def group_likes(c: Coalgebra) -> GroupLikeSet:
    """All group-like elements, with certificates.

    The characters over the fraction field are counted candidates or
    the eigen-covector recursion's; a character survives if every
    coordinate lies in the ground ring, and each survivor is reverified
    exactly against the definition.
    """
    return _group_like_set(c)


def _certified(c: Coalgebra, vectors) -> GroupLikeSet:
    """Verified group-likes, with their independence proved (it holds over any domain) and span purity decided.

    With ``_verified_group_likes`` it certifies the group-likes of a
    finder whose candidates include every character.  The search's
    candidates include every character because it splits all of
    rad(A)^perp; counted candidates (``_counted``) because they are as
    many distinct verified group-likes as rad(A)^perp has dimensions,
    and the group-likes of C (x) K are independent, so no other one fits.
    Independence is the span's rank equal to the number of group-likes;
    the vectors are then a basis of the span, so its Smith divisors,
    which ``is_pure`` takes and holds (all ones over a field, with
    nothing eliminated), are theirs, the independence divisors.  Purity
    can fail, e.g. for the dual of Z[x]/(x^2 - 2x), whose group-likes
    (1,0) and (1,2) collide mod 2; the set records it.
    """
    span = Lattice.from_rows(c.ring, c.rank, vectors)
    if span.rank != len(vectors):
        raise AssertionError("group-likes failed the independence certificate")
    return GroupLikeSet(c, tuple(vectors), span.divisors(), *span.is_pure(), span)


def _coradical_span(c: Coalgebra) -> Lattice:
    """rad(A)^perp in Z^n (in F_p^n), A the dual algebra over the fraction field.

    Its rank is the dimension of the semisimple quotient of A.  rad(A) is
    the kernel of the trace form (x, y) -> tr(L_x L_y) in characteristic
    zero, and in characteristic p > n = rank A too (Dickson's criterion):
    A is commutative, the trace form vanishes on rad(A), and on a local
    factor of length m with residue field K it is m times the trace form
    of K, which is nondegenerate, with m <= n < p a unit.  The Gram
    matrix is symmetric, so the lattice is the saturated row space of
    that matrix (mod p over F_p).  The stored blocks X_a = D * Delta(e_a)
    scale the form by D^2, which keeps its kernel, so the Gram matrix is
    integral.  The transposed multiplication by the i-th dual basis
    vector has row a equal to row i of X_a, so
    tr(B_i B_j) = sum over a, b of X_a[i][b] * X_b[j][a], summed over the
    nonzero entries only.  For p <= n the trace form can degenerate (it
    is 0 on the dual of F_p[x]/(x^p), which has one character), and
    rad(A), the nilradical, is the kernel of a stable Frobenius power
    M = F^K (x -> x * M), K the least power of two with p^K >= n: the
    lattice is the row space of the transpose of M, rad(A)^perp, which is
    the same for every such K.
    """
    n = c.rank
    if 0 < c.ring.modulus <= n:
        return Lattice.from_rows(c.base, n, stable_frobenius(dual_algebra(c)).transpose().rows)
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
    return Lattice.from_rows(c.base, n, gram).saturate()


def _pointedness(c: Coalgebra, semisimple_dim: int, tuples) -> PointednessReport:
    """Pointedness from the characters: as many as the semisimple dimension, all integral."""
    nonintegral = [t for t in tuples if not _in_ring(c.ring, t)]
    flag = semisimple_dim == len(tuples) and not nonintegral
    return PointednessReport(semisimple_dim, len(tuples), tuple(sorted(nonintegral)), flag)


def is_pointed(c: Coalgebra):
    """Decide pointedness; returns (flag, PointednessReport).  Nothing is certified."""
    report = _pointedness(c, *_search(c))
    return report.pointed, report


def pointed_group_likes(c: Coalgebra, need: str) -> GroupLikeSet:
    """Certified group-likes of a coalgebra that must be pointed.

    The one character search of c serves both the pointedness decision
    and the group-likes, with every check of ``is_pointed`` and
    ``group_likes``.  A coalgebra that is not pointed raises NotPointed
    with ``need`` and the report.
    """
    report = _pointedness(c, *_search(c))
    if not report.pointed:
        raise NotPointed(f"{need}\n{report}")
    return _group_like_set(c)


def counit_retraction(g, c: Coalgebra) -> CoalgebraMap:
    """The retraction x -> eps(x) * g onto the line of a group-like g."""
    g = list(g)
    if tuple(g) not in set(group_likes(c).vectors):
        raise NotGroupLike(f"{g} is not group-like in {c}")
    f = CoalgebraMap(c, c, Matrix(c.ring, [[e] for e in c.counit], 1) * Matrix(c.ring, [g], c.rank))
    bad = validate_map(f).first_failure()
    if bad is not None:
        raise AssertionError(f"counit retraction failed validation: {bad}")
    return f


def gr_of_map(f: CoalgebraMap):
    """Induced map on group-likes, returned as sorted (source, image) pairs.

    A coalgebra map sends group-likes to group-likes, so an image outside
    the codomain's set is a fault of the program, an AssertionError.
    """
    f.require_valid()
    codomain_set = set(group_likes(f.codomain).vectors)
    pairs = []
    for g in group_likes(f.domain).vectors:
        img = tuple(f.apply(list(g)))
        if img not in codomain_set:
            raise AssertionError(f"image of {g} is not group-like")
        pairs.append((g, img))
    return pairs
