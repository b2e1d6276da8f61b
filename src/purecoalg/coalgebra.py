"""The coalgebra data model: structure constants, axioms, constructors.

A Coalgebra of rank n holds Delta once, as one sparse integer block per
basis element: ``blocks[i]`` is the n x n matrix X_i of D * Delta(e_i),
whose entry X_i[j][k] is the coefficient of e_j (x) e_k, kept by its
nonzero rows as a dict j -> ((k, X_i[j][k]), ...) with j and k
ascending.  D
(``denom``) is the lcm of the denominators of Delta, so D = 1 over Z
and F_p, and over F_p the entries are residues mod p; equal coalgebras
therefore have equal blocks.  The dense n x n^2 matrix of Delta (row i
at e_j (x) e_k -> j*n + k) is only a view, ``delta``, built on demand.
Everything is basis-dependent by design: the statements this workbench
checks are all witnessed by explicit matrices, so no basis-free
representation or isomorphism search is offered.

An algebra on a free module of finite rank is held as its dual
coalgebra: the coefficient of e_t in e_i * e_j is the coefficient of
e_i* (x) e_j* in Delta(e_t*), so one store of blocks serves both, and
passing to the dual in either direction builds nothing.  Products in
the algebra read the blocks regrouped by column (``dual_columns``,
``dual_times``).

Axiom checks, constructions and tensor-square conditions all walk the
blocks.  A tensor in C (x) C is an n x n matrix, and tensor-square
conditions are products P^T X Q of small integer matrices
(``sandwich``), never lattices in C (x) C or the n^2 x n^3 Kronecker
matrices the identities formally live in.  Coassociativity and the
square of a coalgebra map are summed on packed integer rows and share
one zero test (``_first_slot``).  Whether a lattice is a
subcoalgebra is read off the support of Delta carried into a basis
adapted to it (``_adapted_support``), the same reading that validates
a filtration or a component decomposition.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AmbientMismatch,
    InvalidAlgebra,
    NotSubcoalgebra,
    RingMismatch,
    ValidationError,
)
from .lattice import Lattice
from .matrix import Matrix, hnf
from .rings import ZZ, Ring, cleared_rows


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    location: str = ""

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        where = f" at {self.location}" if self.location and not self.passed else ""
        return f"{self.name}: {mark}{where}"


@dataclass
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, location: str = ""):
        self.checks.append(ValidationCheck(name, passed, location))

    def first_failure(self):
        return next((c for c in self.checks if not c.passed), None)

    def require(self, checked, prefix: str, error=ValidationError):
        """checked itself when every check passed; otherwise raise error naming the first failure after prefix."""
        bad = self.first_failure()
        if bad is not None:
            raise error(f"{prefix}: {bad}")
        return checked

    def __str__(self):
        lines = [str(c) for c in self.checks]
        lines.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


class Coalgebra:
    """Cocommutative coassociative coalgebra on a free module of finite rank.

    The constructor takes Delta as the dense n x n^2 matrix and converts
    it once to the stored blocks; ``delta`` rebuilds that matrix on
    demand.  A coalgebra is immutable by convention: nothing assigns to
    it after ``_store``, so it can hold the invariants derived from it.
    ``_derived`` holds each of them once it has been computed and
    checked: "valid", set once the axioms pass (``require_valid``);
    "search", the semisimple dimension and the characters, certified
    by a count or found by one search (``grouplike``); "group_likes",
    the certified GroupLikeSet; "components", the validated
    ComponentDecomposition with its coradical lattice (the group-like
    span) and the lifted primitive idempotent (g, E, d) of each
    group-like, one tuple
    (``structure.components``); "filtration", the validated coradical
    Filtration (``structure.coradical_filtration``); "binomial", the
    tuple of primes last checked on the dual algebra and its frozen
    BinomialReport (``binomial.binomial_check``).  A call that raises
    stores nothing, and equality and hashing ignore the slot.  One key
    is no checked invariant: "entry_bounds", the largest stored entry
    and the largest block nnz, which bound the slots of
    ``validate_map``, is a plain read of the blocks, held on the first
    map check that reads them, whether or not the axioms were checked.
    What is held is shared by every caller, so a held Filtration, like
    a held lattice, is immutable by convention too.
    """

    __slots__ = ("ring", "rank", "denom", "blocks", "counit", "basis_names", "_cleared_counit", "_derived")

    def __init__(self, ring: Ring, rank: int, delta: Matrix, counit, basis_names=None):
        if delta.nrows != rank or delta.ncols != rank * rank:
            raise ValidationError(f"delta must be {rank}x{rank * rank}, got {delta.nrows}x{delta.ncols}")
        entries = [(i, *divmod(jk, rank), v) for i, row in enumerate(delta.rows) for jk, v in enumerate(row) if v]
        self._store(ring, rank, *_cleared_entries(rank, entries), counit, basis_names)

    def _store(self, ring, rank, scale, blocks, counit, names):
        """Hold the blocks of scale * Delta in the stored form.

        ``blocks[i]`` maps each row j of the integer matrix
        scale * Delta(e_i) to its (k, v) pairs, k ascending.  Zeros are
        dropped, residues taken mod p, and the common factor of scale and
        the entries divided out, which leaves scale = D; each row becomes
        a tuple of its pairs.
        """
        if len(counit) != rank:
            raise ValidationError("counit length must equal the rank")
        reduced = []
        for block in blocks:
            rows = {}
            for j in sorted(block):
                pairs = block[j]
                values = [v for _, v in pairs]
                residues = ring.reduce_row(values)
                if residues is not values:
                    pairs = [(k, v) for (k, _), v in zip(pairs, residues)]
                entries = [pair for pair in pairs if pair[1]]
                if entries:
                    rows[j] = entries
            reduced.append(rows)
        g = math.gcd(scale, *[v for rows in reduced for e in rows.values() for _, v in e]) if scale != 1 else 1
        if g != 1:
            scale //= g
            reduced = [{j: [(k, v // g) for k, v in e] for j, e in rows.items()} for rows in reduced]
        # the blocks repeat their (k, v) entries a lot, so each distinct one is held once
        shared: dict[tuple, tuple] = {}
        stored = [{j: tuple([shared.setdefault(p, p) for p in e]) for j, e in rows.items()} for rows in reduced]
        self.ring = ring
        self.rank = rank
        self.denom = scale
        self.blocks = stored
        self.counit = ring.reduce_row(list(counit))
        self._cleared_counit = ring.cleared([self.counit])
        self.basis_names = tuple(names) if names is not None else None
        self._derived = {}

    @property
    def base(self) -> Ring:
        """The ring the stored entries live in: F_p over F_p, Z otherwise."""
        return self.ring if self.ring.modulus else ZZ

    @property
    def delta(self) -> Matrix:
        """Delta as the dense n x n^2 matrix, row i at e_j (x) e_k -> j*n + k; built on each access."""
        rows = [self.comultiply(e) for e in Matrix.identity(self.ring, self.rank).rows]
        return Matrix(self.ring, rows, self.rank * self.rank)

    def __eq__(self, other):
        return (
            isinstance(other, Coalgebra)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.denom == other.denom
            and self.blocks == other.blocks
            and self.counit == other.counit
        )

    def __hash__(self):
        return hash((self.ring, self.rank, self.denom, tuple(self.counit)))

    def __repr__(self):
        return f"Coalgebra({self.ring}, rank {self.rank})"

    def name_of(self, i: int) -> str:
        return self.basis_names[i] if self.basis_names else f"e{i}"

    # --- evaluation ------------------------------------------------------
    def comultiply(self, vector):
        """Coordinates of Delta(x) in the row-major tensor basis."""
        acc = stored_coordinates(self, vector, self.ring.zero)
        if self.denom != 1:
            acc = [x / self.denom for x in acc]
        return self.ring.reduce_row(acc)

    def counit_of(self, vector):
        """eps(x); over Q and Z[S^-1] one integer dot product of x and the counit, each cleared."""
        if self._cleared_counit is None:
            return self.ring.reduce_row([sum(map(operator.mul, vector, self.counit), self.ring.zero)])[0]
        (e,), (counit,) = self._cleared_counit
        (d,), (x,) = self.ring.cleared([vector])
        return Fraction(sum(map(operator.mul, x, counit)), d * e)

    # --- axioms ------------------------------------------------------------
    def validate(self) -> ValidationReport:
        return validate_coalgebra(self)

    def require_valid(self):
        """self once the axioms pass; the verdict is held, so later calls check nothing."""
        if not self._derived.get("valid"):
            self.validate().require(self, "coalgebra axiom failed")
            self._derived["valid"] = True
        return self


def stored_coordinates(c: Coalgebra, weights, zero=0) -> list:
    """sum_i weights[i] * X_i in the row-major tensor basis: D * Delta(x) for x = weights, not reduced mod p."""
    n = c.rank
    acc = [zero] * (n * n)
    for a, block in zip(weights, c.blocks):
        if a:
            for j, entries in block.items():
                for k, v in entries:
                    acc[j * n + k] += a * v
    return acc


def _cleared_entries(rank: int, entries):
    """(D, blocks) for Delta given as (i, j, k, v) entries with v in the ring, D the lcm of the denominators."""
    denom = math.lcm(*[v.denominator for *_, v in entries])
    blocks = [{} for _ in range(rank)]
    for i, j, k, v in entries:
        blocks[i].setdefault(j, {})[k] = v.numerator * (denom // v.denominator)
    return denom, [{j: sorted(row.items()) for j, row in block.items()} for block in blocks]


def _built(ring: Ring, rank: int, scale: int, blocks, counit, names=None) -> Coalgebra:
    """The coalgebra whose Delta(e_i) is blocks[i] / scale, in the shape ``Coalgebra._store`` takes."""
    c = object.__new__(Coalgebra)
    c._store(ring, rank, scale, blocks, counit, names)
    return c


def coalgebra_from_entries(ring: Ring, rank: int, entries, counit, basis_names=None) -> Coalgebra:
    """The coalgebra with Delta(e_i) the sum of v * e_j (x) e_k over its (i, j, k, v) entries."""
    return _built(ring, rank, *_cleared_entries(rank, list(entries)), counit, basis_names)


# (check name, location) for the laws of ``_axiom_failures``, in its order: a coalgebra's location is
# formatted with the basis index and then the inner tuple, an algebra's with the inner tuple alone
_COALGEBRA_LAWS = (("cocommutativity", "(i,j,k)=({},{},{})"), ("coassociativity", "basis {}, tensor slot ({}, {}, {})"),
                   ("counit law (left)", "basis {}"), ("counit law (right)", "basis {}"))
_ALGEBRA_LAWS = (("commutativity", "(i,j)=({},{})"), ("associativity", "(i,j,k)=({},{},{})"), ("unit law", "basis {}"))


def _axiom_failures(c: Coalgebra):
    """The one axiom kernel, behind both ``validate_coalgebra`` and ``AlgebraPresentation.validate``.

    For each of cocommutativity, coassociativity and the left and right
    counit laws, in that order, a lazy iterator of (i, inner) over the
    basis indices i at which the law fails on the stored block
    X_i = D * Delta(e_i), ascending; inner is the smallest failing index
    tuple at i: (j, k) with j < k, the tensor slot (a, b, t), or the
    slot (t,) of the counit law.  Every law costs time in proportion to
    the products of nonzeros it forms; coassociativity sums both sides
    into one packed row over t per pair (a, b) those products reach, read
    with the zero test of ``validate_map`` (``_first_slot``).
    """
    n, ring, X = c.rank, c.ring, c.blocks
    if c._cleared_counit is None:
        scale, eps = c.denom, c.counit
    else:
        (e,), (eps,) = c._cleared_counit
        scale = e * c.denom

    def cocommutativity():
        for i, block in enumerate(X):
            entries = {(j, k): v for j, row in block.items() for k, v in row}
            bad = [(min(jk), max(jk)) for jk, v in entries.items() if v != entries.get(jk[::-1], 0)]
            if bad:
                yield i, min(bad)

    def coassociativity():
        # at slot (a, b, t): sum_j X_i[j][t] X_j[a][b] = sum_k X_i[a][k] X_k[b][t], each side summed
        # into rows[a*n + b], the packed row over t; either side of a slot is at most n * max|X|^2
        width = _width(2 * n * _largest(X) ** 2, ring)
        packed = [{b: _packed(entries, width) for b, entries in x.items()} for x in X]
        flat = [[(a * n + b, w) for a, entries in x.items() for b, w in entries] for x in X]
        for i, block in enumerate(X):
            rows = {}
            for j, xrow in block.items():
                lhs = packed[i][j]
                for ab, w in flat[j]:
                    rows[ab] = rows.get(ab, 0) + w * lhs
                for k, v in xrow:
                    for b, row in packed[k].items():
                        rows[j * n + b] = rows.get(j * n + b, 0) - v * row
            bad = _first_slot(rows, width, n, ring)
            if bad is not None:
                yield i, (*divmod(bad[0], n), bad[1])

    def counit(left: bool):
        # (eps x id) X_i at slot k, or (id x eps) X_i at slot j, against D * e_i
        for i, block in enumerate(X):
            acc = {i: -scale}
            for j, row in block.items():
                if left:
                    for k, v in row if eps[j] else ():
                        acc[k] = acc.get(k, 0) + v * eps[j]
                else:
                    acc[j] = acc.get(j, 0) + sum(v * eps[k] for k, v in row)
            bad = [t for t, v in zip(acc, ring.reduce_row(list(acc.values()))) if v]
            if bad:
                yield i, (min(bad),)

    return cocommutativity(), coassociativity(), counit(True), counit(False)


def validate_coalgebra(c: Coalgebra) -> ValidationReport:
    """Check cocommutativity, coassociativity, and both counit laws.

    The checks run in ``_axiom_failures`` on the stored blocks
    X_i = D * Delta(e_i), which scales both sides of every identity
    alike.  Each failure is reported at the first basis index i that
    fails, and within it at the smallest violating index tuple.
    """
    report = ValidationReport()
    for (name, place), failures in zip(_COALGEBRA_LAWS, _axiom_failures(c)):
        first = next(failures, None)
        report.add(name, first is None, "" if first is None else place.format(first[0], *first[1]))
    return report


# --- constructors ---------------------------------------------------------


def set_like(ring: Ring, names) -> Coalgebra:
    """Free module on a finite set with the diagonal comultiplication.

    Every basis element becomes group-like; the empty set gives the
    initial (rank zero) coalgebra.
    """
    names = list(names)
    n = len(names)
    return _built(ring, n, 1, [{i: [(i, 1)]} for i in range(n)], [ring.one] * n, names)


class AlgebraPresentation:
    """Commutative associative unital algebra on a free module of finite rank.

    For a finite free module an algebra A and its dual coalgebra C = A*
    are one table read two ways: the coefficient of e_t in e_i * e_j is
    the coefficient of e_i* (x) e_j* in Delta(e_t*).  So an algebra holds
    only its dual, ``dual``, whose stored block X_t holds D times the
    coefficient of e_t in e_i * e_j at (i, j); the unit is the dual's
    counit, and the basis names are the dual's across ``_toggled``.  The
    dense n^2 x n multiplication matrix is only a view, ``mult``, built
    on demand; the constructor takes that matrix, and
    ``algebra_from_entries`` takes (i, j, t, v) entries.
    """

    __slots__ = ("ring", "rank", "unit", "basis_names", "dual")

    def __init__(self, ring: Ring, rank: int, mult: Matrix, unit, basis_names=None):
        if mult.nrows != rank * rank or mult.ncols != rank:
            raise ValidationError(f"mult must be {rank * rank}x{rank}, got {mult.nrows}x{mult.ncols}")
        self._hold(Coalgebra(ring, rank, mult.transpose(), unit, _toggled(basis_names)))

    def _hold(self, dual: Coalgebra):
        """Hold the dual coalgebra itself, the one store of the multiplication."""
        self.ring = dual.ring
        self.rank = dual.rank
        self.unit = dual.counit
        self.basis_names = _toggled(dual.basis_names)
        self.dual = dual
        return self

    @property
    def mult(self) -> Matrix:
        """The dense n^2 x n multiplication matrix, row i*n + j the coordinates of e_i * e_j; built on each access."""
        return self.dual.delta.transpose()

    def __eq__(self, other):
        return isinstance(other, AlgebraPresentation) and self.dual == other.dual

    def __repr__(self):
        return f"AlgebraPresentation({self.ring}, rank {self.rank})"

    def validate(self) -> ValidationReport:
        """Check commutativity, associativity and the unit law on the dual's blocks.

        Commutativity is cocommutativity, associativity at (i, j, k) is
        coassociativity at tensor slot (i, j, k), and the unit law at e_i
        is the left counit law at slot i.  Each law is reported at the
        smallest inner tuple over all t, the first violating index tuple
        in lexicographic order; the right counit law is not an algebra
        axiom.
        """
        report = ValidationReport()
        for (name, place), failures in zip(_ALGEBRA_LAWS, _axiom_failures(self.dual)):
            first = min((inner for _, inner in failures), default=None)
            report.add(name, first is None, "" if first is None else place.format(*first))
        return report

    def require_valid(self):
        """self once the axioms pass, the verdict held on the dual: the algebra laws are three of the
        dual's four, and cocommutativity makes its two counit laws one, so the two verdicts agree."""
        if not self.dual._derived.get("valid"):
            self.validate().require(self, "algebra axiom failed", InvalidAlgebra)
            self.dual._derived["valid"] = True
        return self


def _toggled(names):
    """Basis names across the duality: a trailing * dropped, or one added; None for no names."""
    return tuple([s[:-1] if s.endswith("*") else f"{s}*" for s in names]) if names else None


def algebra_from_entries(ring: Ring, rank: int, entries, unit, basis_names=None) -> AlgebraPresentation:
    """The algebra with e_i * e_j the sum of v * e_t over its (i, j, t, v) entries."""
    dual = coalgebra_from_entries(ring, rank, [(t, i, j, v) for i, j, t, v in entries], unit, _toggled(basis_names))
    return object.__new__(AlgebraPresentation)._hold(dual)


def dual_of_algebra(a: AlgebraPresentation) -> Coalgebra:
    """Linear dual of a finite algebra, the coalgebra it holds, once its axioms pass."""
    return a.require_valid().dual


def dual_algebra(c: Coalgebra) -> AlgebraPresentation:
    """Linear dual of a finite coalgebra: an algebra holding c itself; round trips with dual_of_algebra."""
    return object.__new__(AlgebraPresentation)._hold(c)


def dual_columns(c: Coalgebra) -> list:
    """The nonzero structure constants of the dual algebra of c by column: ``columns[b][a]`` lists (t, X_t[a][b]).

    e_a * e_b has coefficient X_t[a][b] / D at e_t, t ascending in each
    list.  The table is built on each call, not held on c.
    """
    columns = [{} for _ in range(c.rank)]
    for t, block in enumerate(c.blocks):
        for a, row in block.items():
            for b, v in row:
                columns[b].setdefault(a, []).append((t, v))
    return columns


def dual_times(columns, x, y) -> list:
    """D * (x * y) with these ``dual_columns``, not reduced: entry t is sum x_a y_b X_t[a][b], over the b with y_b != 0."""
    acc = [0] * len(columns)
    for b, yb in enumerate(y):
        if yb:
            for a, entries in columns[b].items():
                xa = x[a]
                if xa:
                    coeff = xa * yb
                    for t, v in entries:
                        acc[t] += coeff * v
    return acc


def monogenic_algebra(ring: Ring, reduction) -> AlgebraPresentation:
    """R[x]/(x^k - r(x)) on the basis 1, x, ..., x^(k-1).

    ``reduction`` lists the coordinates of x^k; the truncated polynomial
    algebra R[x]/(x^k) is the all-zero reduction.
    """
    k = len(reduction)
    if k == 0:
        raise ValidationError("monogenic algebra needs rank at least 1")
    red = [ring.normalize(v) for v in reduction]
    # powers[e] = coordinates of x^e for e up to 2k-2
    powers = [[ring.one if t == e else ring.zero for t in range(k)] for e in range(k)]
    for e in range(k, 2 * k - 1):
        prev = powers[e - 1]
        shifted = [ring.zero] + prev[:-1]
        top = prev[-1]
        if top:
            shifted = [s + top * r for s, r in zip(shifted, red)]
        powers.append(ring.reduce_row(shifted))
    entries = [(i, j, t, v) for i in range(k) for j in range(k) for t, v in enumerate(powers[i + j]) if v]
    names = ["1"] + [f"x{e}" if e > 1 else "x" for e in range(1, k)]
    return algebra_from_entries(ring, k, entries, powers[0], basis_names=names)


def truncated_polynomial_algebra(ring: Ring, k: int) -> AlgebraPresentation:
    return monogenic_algebra(ring, [ring.zero] * k)


def split_algebra(ring: Ring, m: int) -> AlgebraPresentation:
    """The product ring R x ... x R on idempotent coordinates."""
    entries = [(i, i, i, ring.one) for i in range(m)]
    return algebra_from_entries(ring, m, entries, [ring.one] * m, basis_names=[f"p{i}" for i in range(m)])


# --- functorial constructions ------------------------------------------------


def tensor(c: Coalgebra, d: Coalgebra) -> Coalgebra:
    """Tensor product coalgebra with the row-major basis (a, b) -> a*n_d + b.

    The block of e_a (x) f_b is the Kronecker product of the blocks of
    e_a and f_b, scaled by D_c * D_d.
    """
    if c.ring != d.ring:
        raise RingMismatch(f"{c.ring} vs {d.ring}")
    ring = c.ring
    nd = d.rank
    blocks = [
        {j * nd + e: [(k * nd + f, v * w) for k, v in xrow for f, w in yrow]
         for j, xrow in x.items() for e, yrow in y.items()}
        for x in c.blocks
        for y in d.blocks
    ]
    counit = ring.reduce_row([ec * ed for ec in c.counit for ed in d.counit])
    names = [f"{s}(x){t}" for s in c.basis_names for t in d.basis_names] if c.basis_names and d.basis_names else None
    out = _built(ring, c.rank * nd, c.denom * d.denom, blocks, counit, names)
    out.require_valid()
    return out


def direct_sum(c: Coalgebra, d: Coalgebra) -> Coalgebra:
    """Block-diagonal comultiplication, concatenated counits."""
    if c.ring != d.ring:
        raise RingMismatch(f"{c.ring} vs {d.ring}")
    scale = math.lcm(c.denom, d.denom)

    def shifted(x: Coalgebra, at: int):
        m = scale // x.denom
        return [{at + j: [(at + k, m * v) for k, v in e] for j, e in b.items()} for b in x.blocks]

    names = list(c.basis_names) + list(d.basis_names) if c.basis_names and d.basis_names else None
    blocks = shifted(c, 0) + shifted(d, c.rank)
    return _built(c.ring, c.rank + d.rank, scale, blocks, list(c.counit) + list(d.counit), names)


def sandwich(left, block, right):
    """The rows of left^T * X * right for a stored block X = {j: [(k, v)]}.

    left and right are n x m integer matrices as lists of rows.  This is
    the image of the tensor under left (x) right, worked out on n x n
    blocks instead of through the n^2-column Kronecker product.
    """
    width = len(right[0]) if right else 0
    out = [[0] * width for _ in range(len(left[0]) if left else 0)]
    for j, entries in block.items():
        row = [0] * width
        for k, v in entries:
            row = [s + v * r for s, r in zip(row, right[k])]
        for a, weight in enumerate(left[j]):
            if weight:
                out[a] = [s + weight * r for s, r in zip(out[a], row)]
    return out


def _transported(c: Coalgebra, weights, section):
    """(scale, blocks) of sum_r weights[i][r] * M^T X_r M for each row i, M the section.

    Both matrices are cleared of denominators first, so the products
    run in integers.  Each X_r with a nonzero weight is carried through
    M once, while it is still sparse, and the weights then combine the
    nonzero rows of the results.
    """
    e, weights = cleared_rows(weights)
    f, section = cleared_rows(section)
    used = {r for row in weights for r, a in enumerate(row) if a}
    moved = {r: [(j, row) for j, row in enumerate(sandwich(section, c.blocks[r], section)) if any(row)]
             for r in used}
    blocks = []
    for row in weights:
        acc = {}
        for r, a in enumerate(row):
            if a:
                for j, image in moved[r]:
                    have = acc.get(j)
                    acc[j] = [a * y for y in image] if have is None else [x + a * y for x, y in zip(have, image)]
        blocks.append({j: [(k, v) for k, v in enumerate(acc[j]) if v] for j in sorted(acc)})
    return e * f * f * c.denom, blocks


def _scaled_inverse(rows, base) -> list:
    """Rows of d * T^-1 for a square integer T invertible over the fraction field, d a nonzero integer.

    With U * T = H the Hermite form (upper triangular), d = det H makes
    d * H^-1 integral, so back substitution in H * Z = d * U divides
    exactly and Z = d * T^-1 comes out fraction-free.  Over F_p the
    Hermite form of an invertible T is I, so d = 1 and Z = U = T^-1, in
    residues.
    """
    n = len(rows)
    h, u = hnf(Matrix(base, rows, n))
    h = h.rows
    d = math.prod(h[i][i] for i in range(n))
    out = [None] * n
    for i in reversed(range(n)):
        acc = [d * x for x in u.rows[i]]
        for j in range(i + 1, n):
            if h[i][j]:
                acc = [x - h[i][j] * y for x, y in zip(acc, out[j])]
        out[i] = [x // h[i][i] for x in acc]
    return out


def _adapted_support(c: Coalgebra, rows, checked: int):
    """(section, support) for Delta in the basis t_0, ..., t_{n-1} given by the rows.

    The rows T need only be invertible over the fraction field.  Each is
    cleared of denominators (a row scalar changes no support), the
    section S = d * T^-1 is computed fraction-free, and one
    ``_transported`` gives X'_r = S^T X(t_r) S, the coefficients of
    Delta(t_r) on the t_a (x) t_b up to one nonzero scalar.  support[r]
    lists the (a, b) whose coefficient is nonzero (mod p over F_p), for
    the first ``checked`` rows.  x * S holds the t-coordinates of x.
    """
    base = c.base
    ints = [cleared_rows([row])[1][0] for row in rows]
    section = _scaled_inverse(ints, base)
    _, blocks = _transported(c, ints[:checked], section)
    reduce = base.reduce_row
    support = []
    for block in blocks:
        pairs = []
        for a, entries in block.items():
            values = reduce([v for _, v in entries])
            pairs.extend((a, b) for (b, _), v in zip(entries, values) if v)
        support.append(pairs)
    return section, support


def _flag_basis(c: Coalgebra, stages):
    """(rows, degrees): integer rows T adapted to a flag of lattices, invertible over the fraction field.

    The rows of degree m lift a basis of V_m / V_{m-1}: the image of the
    basis B_m under the integral projection P_{m-1} (kernel V_{m-1}, so
    the stages below the last must be pure) is brought to Hermite form
    U * B_m * P_{m-1} = [H; 0], and the first rank H rows of U * B_m are
    the lifts.  Unit vectors off the pivot columns of the last stage
    complete the rows, with degree len(stages).
    """
    base, n = c.base, c.rank
    rows, degrees = [], []
    for m, v in enumerate(stages):
        if v.rank == len(rows):
            continue
        basis = Matrix(base, cleared_rows(v.basis.rows)[1], n)
        if rows:
            proj = Matrix(base, stages[m - 1].integral_projection(), n - len(rows))
            h, u = hnf(basis * proj)
            basis = Matrix(base, u.rows[: h.nrows], basis.nrows) * basis
        rows += basis.rows
        degrees += [m] * basis.nrows
    pivots = set(stages[-1].basis.pivot_columns())
    rows += [[int(i == j) for i in range(n)] for j in range(n) if j not in pivots]
    return rows, degrees + [len(stages)] * (n - len(degrees))


def conjugate(c: Coalgebra, w: Matrix) -> Coalgebra:
    """Transport of structure along an invertible change of basis w.

    Row i of w is the new basis vector e'_i, so Delta(e'_i) has the
    matrix X'_i = sum_r w_ir W^-T X_r W^-1 in the new basis: n products
    of n x n blocks, with no n^2 x n^2 Kronecker matrix.
    """
    if w.nrows != c.rank or w.ncols != c.rank:
        raise AmbientMismatch("change of basis must be square of the coalgebra rank")
    winv = w.inverse()
    counit = [c.counit_of(row) for row in w.rows]
    return _built(c.ring, c.rank, *_transported(c, w.rows, winv.rows), counit)


# --- morphisms ----------------------------------------------------------------


class CoalgebraMap:
    """Linear map between coalgebras, acting on row vectors as x -> x*F.

    A map is immutable by convention: nothing assigns to its matrix or
    its ends after construction, so it holds its verdict and its last
    pushed filtration.  ``require_valid`` runs ``validate_map`` once per
    map object and keeps only a pass; a failure holds nothing and raises
    again on the next call.  ``validate`` and ``validate_map`` compute a
    fresh report.  ``structure.push_filtration`` keeps the push.
    """

    __slots__ = ("domain", "codomain", "matrix", "_valid", "_pushed")

    def __init__(self, domain: Coalgebra, codomain: Coalgebra, matrix: Matrix):
        if domain.ring != codomain.ring:
            raise RingMismatch(f"{domain.ring} vs {codomain.ring}")
        if matrix.nrows != domain.rank or matrix.ncols != codomain.rank:
            raise AmbientMismatch(
                f"map matrix must be {domain.rank}x{codomain.rank}, got {matrix.nrows}x{matrix.ncols}"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self._valid = False
        self._pushed = None

    def __eq__(self, other):
        return (
            isinstance(other, CoalgebraMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"CoalgebraMap({self.domain.rank} -> {self.codomain.rank} over {self.domain.ring})"

    def apply(self, vector):
        return (Matrix(self.domain.ring, [vector], self.domain.rank) * self.matrix).rows[0]

    def validate(self) -> ValidationReport:
        return validate_map(self)

    def require_valid(self):
        """self once the square and the triangle pass; the verdict is held, so later calls check nothing."""
        if not self._valid:
            self.validate().require(self, "coalgebra map axiom failed")
            self._valid = True
        return self


def identity_map(c: Coalgebra) -> CoalgebraMap:
    return CoalgebraMap(c, c, Matrix.identity(c.ring, c.rank))


def validate_map(f: CoalgebraMap) -> ValidationReport:
    """Check the comultiplication square and the counit triangle.

    With F = F' / E cleared of denominators, the square at e_i is
    D_D * F'^T X_i F' = D_C * E * sum_m F'_im Y_m on the stored blocks
    X of the domain and Y of the codomain, in integers (mod p over F_p).
    Each side is summed into one packed row per pair (i, a), read by
    ``_first_slot``, with slots bounded by D_D * nnz(X_i) * max|X| *
    max|F'|^2 + D_C * E * n * max|F'| * max|Y|, n the codomain rank;
    max|X|, max|Y| and the largest nnz(X_i) are held on each coalgebra
    (``_entry_bounds``).  Only F's support is visited: a row j of X_i
    whose row F'_j is zero adds nothing, and only the blocks Y_m of the
    columns m that F' touches are packed.  A failure names the first
    basis index and its smallest tensor slot.
    """
    ring = f.domain.ring
    nd = f.codomain.rank
    e, F = cleared_rows(f.matrix.rows)
    lhs_scale, rhs_scale = f.codomain.denom, f.domain.denom * e
    report = ValidationReport()

    square_loc = ""
    largest_x, nnz_x = _entry_bounds(f.domain)
    largest_y, _ = _entry_bounds(f.codomain)
    columns = [[(a, v) for a, v in enumerate(row) if v] for row in F]
    top = max((abs(v) for entries in columns for _, v in entries), default=0)
    width = _width(lhs_scale * nnz_x * largest_x * top * top + rhs_scale * nd * top * largest_y, ring)
    packed_f = [lhs_scale * _packed(entries, width) for entries in columns]
    Y = f.codomain.blocks
    packed_y = {m: {a: rhs_scale * _packed(entries, width) for a, entries in Y[m].items()}
                for m in {m for entries in columns for m, _ in entries}}
    for i, x in enumerate(f.domain.blocks):
        diff = {}
        for j, entries in x.items():
            if columns[j]:
                image = sum(v * packed_f[k] for k, v in entries)
                for a, v in columns[j]:
                    diff[a] = diff.get(a, 0) + v * image
        for m, v in columns[i]:
            for a, row in packed_y[m].items():
                diff[a] = diff.get(a, 0) - v * row
        bad = _first_slot(diff, width, nd, ring)
        if bad is not None:
            square_loc = f"basis {i}, tensor slot {bad}"
            break
    report.add("comultiplication square", not square_loc, square_loc)

    triangle = [f.codomain.counit_of(row) - eps for row, eps in zip(f.matrix.rows, f.domain.counit)]
    bad = next((i for i, v in enumerate(ring.reduce_row(triangle)) if v), None)
    tri_loc = "" if bad is None else f"basis {bad}"
    report.add("counit triangle", not tri_loc, tri_loc)
    return report


def _largest(blocks) -> int:
    """The largest absolute value of a stored entry, 0 for no entries."""
    return max((abs(v) for block in blocks for row in block.values() for _, v in row), default=0)


def _entry_bounds(c: Coalgebra) -> tuple:
    """(largest |stored entry|, largest nnz of a block) of c, read off the blocks once and held on c."""
    held = c._derived.get("entry_bounds")
    if held is None:
        nnz = max((sum(map(len, x.values())) for x in c.blocks), default=0)
        held = c._derived["entry_bounds"] = (_largest(c.blocks), nnz)
    return held


def _packed(entries, width: int) -> int:
    """sum v * 2^(width * b) over the (b, v) entries of a row: the row as one int."""
    return sum(v << (width * b) for b, v in entries)


def _width(bound: int, ring) -> int:
    """The slot width for packed rows whose slots are at most bound in absolute value (``_first_slot``)."""
    return bound.bit_length() + 1 + ring.modulus.bit_length()


def _first_slot(rows: dict, width: int, count: int, ring):
    """(key, slot) for the smallest key whose packed row has a nonzero slot (mod p over F_p), or None.

    A packed row is the int sum_b v_b * 2^(width * b) (``_packed``).
    Packing is Z-linear; at a ``_width`` from a bound S on every slot,
    the slots are the balanced digits of the int, so over Z a row is zero
    exactly when its int is.  Over F_p, with k = width - 1 - bitlen(p),
    so that 2^k > S and p * 2^k < 2^(width - 1), a row vanishes mod p
    exactly when its int is p * q and q + 2^k has every slot below
    2^(k + 1).  Only a failing row is peeled into its digits.
    """
    keys = sorted(key for key, packed in rows.items() if packed)
    if not keys:
        return None
    half, mask = 1 << (width - 1), (1 << width) - 1
    ones = ((1 << (width * count)) - 1) // mask
    p = ring.modulus
    if p:
        k = width - 1 - p.bit_length()
        lift, high = ones << k, (mask ^ ((2 << k) - 1)) * ones
    for key in keys:
        if p and not rows[key] % p and not (rows[key] // p + lift) & high:
            continue
        lifted = rows[key] + half * ones
        digits = ring.reduce_row([(lifted >> (width * b) & mask) - half for b in range(count)])
        return key, next(b for b, v in enumerate(digits) if v)
    return None


# --- subcoalgebras --------------------------------------------------------------


def is_subcoalgebra(l: Lattice, c: Coalgebra) -> bool:
    """Whether Delta maps the lattice into the tensor square of its saturation.

    This is the filtration check on the one-stage flag [l]: in the rows
    t of ``_flag_basis``, Delta of each of the first rank l rows, which
    span l, must have support on the t_a (x) t_b with a, b < rank l.  The
    rows are invertible over the fraction field K, so this decides
    Delta(V_K) <= V_K (x) V_K, whose integral part is sat(l) (x) sat(l):
    pure and impure lattices (a scaled group-like line, say) take one path.
    """
    if l.ambient_rank != c.rank:
        raise AmbientMismatch(f"lattice ambient {l.ambient_rank} vs coalgebra rank {c.rank}")
    if l.ring != c.ring:
        raise RingMismatch(f"{l.ring} vs {c.ring}")
    rows, deg = _flag_basis(c, [l])
    return not any(deg[a] or deg[b] for pairs in _adapted_support(c, rows, l.rank)[1] for a, b in pairs)


def purify_subcoalgebra(l: Lattice, c: Coalgebra) -> Lattice:
    """Saturation of a subcoalgebra lattice, which is again a subcoalgebra."""
    if not is_subcoalgebra(l, c):
        raise NotSubcoalgebra("purification requires a subcoalgebra lattice")
    sat = l.saturate()
    if not is_subcoalgebra(sat, c):
        raise AssertionError("purification failed to stay a subcoalgebra")
    return sat


def restrict_to_subcoalgebra(l: Lattice, c: Coalgebra):
    """Coalgebra structure on a pure subcoalgebra lattice plus its inclusion.

    With T an integral section of the basis B (B * T = I, read off the
    lattice's held transform), Delta(b_i) = B^T S_i B gives the
    structure constants S_i = T^T Delta(b_i) T on n x n blocks; purity
    makes T integral.
    """
    flag, _ = l.is_pure()
    if not flag:
        raise NotSubcoalgebra("restriction requires a pure subcoalgebra lattice")
    if not is_subcoalgebra(l, c):
        raise NotSubcoalgebra("restriction requires a subcoalgebra lattice")
    basis = l.basis.rows
    counit = [c.counit_of(row) for row in basis]
    sub = _built(c.ring, l.rank, *_transported(c, basis, l.section().rows), counit)
    incl = CoalgebraMap(sub, c, Matrix(c.ring, basis, c.rank))
    return sub, incl
