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

Axiom checks, constructions and tensor-square conditions all walk the
blocks.  A tensor in C (x) C is an n x n matrix, and tensor-square
conditions are products P^T X Q of small integer matrices
(``delta_blocks``, ``sandwich``), never lattices in C (x) C or the
n^2 x n^3 Kronecker matrices the identities formally live in.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
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
        for c in self.checks:
            if not c.passed:
                return c
        return None

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
    checked: "search", the semisimple dimension and the characters from
    one character search (``grouplike``); "group_likes", the certified
    GroupLikeSet; "components", the validated ComponentDecomposition
    (``structure.components``); "filtration", the validated coradical
    Filtration (``structure.coradical_filtration``).  A call that raises
    stores nothing, and equality and hashing ignore the slot.  What is
    held is shared by every caller, so a held Filtration, like a held
    lattice, is immutable by convention too.
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
        g = math.gcd(scale, *(v for rows in reduced for e in rows.values() for _, v in e)) if scale != 1 else 1
        if g != 1:
            scale //= g
            reduced = [{j: [(k, v // g) for k, v in e] for j, e in rows.items()} for rows in reduced]
        # the blocks repeat their (k, v) entries a lot, so each distinct one is held once
        shared: dict[tuple, tuple] = {}
        stored = [{j: tuple(map(shared.setdefault, e, e)) for j, e in rows.items()} for rows in reduced]
        self.ring = ring
        self.rank = rank
        self.denom = scale
        self.blocks = stored
        self.counit = list(counit)
        self._cleared_counit = ring.cleared([self.counit])
        self.basis_names = tuple(names) if names is not None else None
        self._derived = {}

    @property
    def base(self) -> Ring:
        """The ring the stored entries live in: F_p over F_p, Z otherwise."""
        return self.ring if self.ring.kind == "Fp" else ZZ

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
        return self.validate().require(self, "coalgebra axiom failed")


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
    denom = math.lcm(*(v.denominator for *_, v in entries))
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
    the products of nonzeros it forms; coassociativity holds a length-n
    row only for each pair (a, b) those products reach.
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
        # at slot (a, b, t): sum_j X_i[j][t] X_j[a][b] = sum_k X_i[a][k] X_k[b][t], each side
        # summed into rows[a*n + b], a length-n row indexed by t
        flat = [[(a * n + b, w) for a, entries in x.items() for b, w in entries] for x in X]
        for i, block in enumerate(X):
            rows = defaultdict(lambda: [0] * n)
            for j, xrow in block.items():
                for ab, w in flat[j]:
                    acc = rows[ab]
                    for t, v in xrow:
                        acc[t] += v * w
                for k, v in xrow:
                    for b, entries in X[k].items():
                        acc = rows[j * n + b]
                        for t, w in entries:
                            acc[t] -= v * w
            for ab in sorted(rows):
                row = ring.reduce_row(rows[ab])
                if any(row):
                    yield i, (*divmod(ab, n), next(t for t, v in enumerate(row) if v))
                    break

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

    The multiplication is held once, as its nonzero structure constants:
    ``constants[i * n + j]`` lists the (t, v) with v the coefficient of
    e_t in e_i * e_j, t ascending, zeros dropped and residues taken mod p
    over F_p, so equal algebras have equal constants.  Products, powers
    and the Frobenius of each reduction mod p walk them; the axiom checks
    run on the blocks of the dual coalgebra (``_checked_dual``).  The
    dense n^2 x n multiplication matrix is only a view, ``mult``, built
    on demand; the constructor takes that matrix, and
    ``algebra_from_entries`` takes the constants as (i, j, t, v) entries.
    """

    __slots__ = ("ring", "rank", "unit", "basis_names", "constants")

    def __init__(self, ring: Ring, rank: int, mult: Matrix, unit, basis_names=None):
        if mult.nrows != rank * rank or mult.ncols != rank:
            raise ValidationError(f"mult must be {rank * rank}x{rank}, got {mult.nrows}x{mult.ncols}")
        self._store(ring, rank, [list(enumerate(row)) for row in mult.rows], unit, basis_names)

    def _store(self, ring, rank, constants, unit, names):
        """Hold the rows of (t, v) pairs, t ascending, as ``constants``: residues mod p, zeros dropped."""
        if len(unit) != rank:
            raise ValidationError("unit length must equal the rank")
        self.ring = ring
        self.rank = rank
        self.unit = ring.reduce_row(list(unit))
        self.basis_names = tuple(names) if names is not None else None
        self.constants = [[(t, v) for (t, _), v in zip(pairs, ring.reduce_row([v for _, v in pairs])) if v]
                          for pairs in constants]

    @property
    def mult(self) -> Matrix:
        """The dense n^2 x n multiplication matrix, row i*n + j the coordinates of e_i * e_j; built on each access."""
        zero, n = self.ring.zero, self.rank
        return Matrix._owning(self.ring, [[dict(pairs).get(t, zero) for t in range(n)] for pairs in self.constants], n)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraPresentation)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.constants == other.constants
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"AlgebraPresentation({self.ring}, rank {self.rank})"

    def multiply(self, x, y):
        """Product of two coordinate vectors, over the nonzero structure constants."""
        n = self.rank
        acc = [self.ring.zero] * n
        constants = self.constants
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                at = i * n
                for j, yj in ys:
                    coeff = xi * yj
                    for t, v in constants[at + j]:
                        acc[t] += coeff * v
        return self.ring.reduce_row(acc)

    def power(self, x, e: int):
        """x**e by binary powering (e >= 1)."""
        result = None
        base = list(x)
        while e:
            if e & 1:
                result = base if result is None else self.multiply(result, base)
            e >>= 1
            if e:
                base = self.multiply(base, base)
        return result

    def validate(self) -> ValidationReport:
        """Check commutativity, associativity and the unit law, on the dual's blocks (``_checked_dual``)."""
        return _checked_dual(self)[1]

    def require_valid(self):
        return self.validate().require(self, "algebra axiom failed", InvalidAlgebra)


def algebra_from_entries(ring: Ring, rank: int, entries, unit, basis_names=None) -> AlgebraPresentation:
    """The algebra with e_i * e_j the sum of v * e_t over its (i, j, t, v) entries."""
    rows = [{} for _ in range(rank * rank)]
    for i, j, t, v in entries:
        rows[i * rank + j][t] = v
    a = object.__new__(AlgebraPresentation)
    a._store(ring, rank, [sorted(row.items()) for row in rows], unit, basis_names)
    return a


def _checked_dual(a: AlgebraPresentation):
    """(C, report): the dual coalgebra C of a, and a's axioms checked on C's blocks by ``_axiom_failures``.

    C's block X_t holds D times the coefficient of e_t in e_i * e_j at
    (i, j), so commutativity is cocommutativity, associativity at
    (i, j, k) is coassociativity at tensor slot (i, j, k), and the unit
    law at e_i is the left counit law at slot i.  Each law is reported
    at the smallest inner tuple over all t, the first violating index
    tuple in lexicographic order; the right counit law is not an algebra
    axiom.
    """
    n = a.rank
    entries = [(t, *divmod(ij, n), v) for ij, pairs in enumerate(a.constants) for t, v in pairs]
    names = [f"{s}*" for s in a.basis_names] if a.basis_names else None
    dual = coalgebra_from_entries(a.ring, n, entries, a.unit, basis_names=names)
    report = ValidationReport()
    for (name, place), failures in zip(_ALGEBRA_LAWS, _axiom_failures(dual)):
        first = min((inner for _, inner in failures), default=None)
        report.add(name, first is None, "" if first is None else place.format(*first))
    return dual, report


def dual_of_algebra(a: AlgebraPresentation) -> Coalgebra:
    """Linear dual of a finite algebra: the comultiplication transposes
    the multiplication table and the counit evaluates at the unit."""
    dual, report = _checked_dual(a)
    return report.require(dual, "algebra axiom failed", InvalidAlgebra)


def dual_algebra(c: Coalgebra) -> AlgebraPresentation:
    """Linear dual of a finite coalgebra; round trips with dual_of_algebra.

    e_j* e_k* has coefficient X_t[j][k] / D at e_t*, read off the stored
    blocks: a Fraction over Q and Z[S^-1], an int over Z and F_p (D = 1).
    """
    scale = c.ring.one if c.denom == 1 else Fraction(1, c.denom)
    entries = [(j, k, t, scale * v) for t, block in enumerate(c.blocks) for j, row in block.items() for k, v in row]
    names = None
    if c.basis_names:
        names = [s[:-1] if s.endswith("*") else f"{s}*" for s in c.basis_names]
    return algebra_from_entries(c.ring, c.rank, entries, c.counit, basis_names=names)


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
    powers = []
    for e in range(k):
        powers.append([ring.one if t == e else ring.zero for t in range(k)])
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
    names = None
    if c.basis_names and d.basis_names:
        names = [f"{s}(x){t}" for s in c.basis_names for t in d.basis_names]
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

    names = None
    if c.basis_names and d.basis_names:
        names = list(c.basis_names) + list(d.basis_names)
    blocks = shifted(c, 0) + shifted(d, c.rank)
    return _built(c.ring, c.rank + d.rank, scale, blocks, list(c.counit) + list(d.counit), names)


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
    moved = {r: [(j, row) for j, row in enumerate(sandwich(section, c.blocks[r], section, c.rank)) if any(row)]
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
    """Linear map between coalgebras, acting on row vectors as x -> x*F."""

    __slots__ = ("domain", "codomain", "matrix")

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

    def compose(self, then: "CoalgebraMap") -> "CoalgebraMap":
        if self.codomain is not then.domain and self.codomain != then.domain:
            raise AmbientMismatch("composition needs matching middle coalgebra")
        return CoalgebraMap(self.domain, then.codomain, self.matrix * then.matrix)

    def validate(self) -> ValidationReport:
        return validate_map(self)

    def require_valid(self):
        return self.validate().require(self, "coalgebra map axiom failed")


def identity_map(c: Coalgebra) -> CoalgebraMap:
    return CoalgebraMap(c, c, Matrix.identity(c.ring, c.rank))


def validate_map(f: CoalgebraMap) -> ValidationReport:
    """Check the comultiplication square and the counit triangle.

    With F = F' / E cleared of denominators, the square at e_i is
    D_D * F'^T X_i F' = D_C * E * sum_m F'_im Y_m on the stored blocks
    X of the domain and Y of the codomain, in integers (mod p over F_p).
    A failure names the first basis index and its smallest tensor slot.
    """
    ring = f.domain.ring
    nc, nd = f.domain.rank, f.codomain.rank
    e, F = cleared_rows(f.matrix.rows)
    lhs_scale, rhs_scale = f.codomain.denom, f.domain.denom * e
    report = ValidationReport()

    square_loc = ""
    for i, x in enumerate(f.domain.blocks):
        diff = [[lhs_scale * v for v in row] for row in sandwich(F, x, F, nc)]
        for m, a in enumerate(F[i]):
            for j, entries in f.codomain.blocks[m].items() if a else ():
                row = diff[j]
                for k, v in entries:
                    row[k] -= rhs_scale * a * v
        bad = next((at for at, v in enumerate(ring.reduce_row([v for row in diff for v in row])) if v), None)
        if bad is not None:
            square_loc = f"basis {i}, tensor slot {divmod(bad, nd)}"
            break
    report.add("comultiplication square", not square_loc, square_loc)

    triangle = [f.codomain.counit_of(row) - eps for row, eps in zip(f.matrix.rows, f.domain.counit)]
    bad = next((i for i, v in enumerate(ring.reduce_row(triangle)) if v), None)
    tri_loc = "" if bad is None else f"basis {bad}"
    report.add("counit triangle", not tri_loc, tri_loc)
    return report


# --- subcoalgebras --------------------------------------------------------------


def delta_blocks(c: Coalgebra, rows):
    """Delta(x) for each row x, as an n x n integer block shaped like the stored ones, {j: [(k, v)]}.

    The block is the sum of the stored blocks weighted by x cleared of
    denominators, so it is Delta(x) times one nonzero integer; over F_p
    its entries are congruent mod p to those of Delta(x).  Zero tests
    and kernels see no difference.
    """
    for x in rows:
        acc: dict[int, dict[int, int]] = {}
        for a, block in zip(cleared_rows([x])[1][0], c.blocks):
            if a:
                for j, entries in block.items():
                    row = acc.setdefault(j, {})
                    for k, v in entries:
                        row[k] = row.get(k, 0) + a * v
        yield {j: list(row.items()) for j, row in acc.items()}


def sandwich(left, block, right, n: int):
    """The rows of left^T * X * right, for X a block from ``delta_blocks``.

    left and right are n x m integer matrices as lists of rows, None
    for the n x n identity.  This is the image of the tensor under
    left (x) right, worked out on n x n blocks instead of through the
    n^2-column Kronecker product.  With left None only the rows of X *
    right that come from nonzero rows of X are returned, which is all a
    zero test needs.
    """
    width = n if right is None else (len(right[0]) if right else 0)
    image = {}
    for j, entries in block.items():
        row = [0] * width
        if right is None:
            for k, v in entries:
                row[k] = v
        else:
            for k, v in entries:
                row = [s + v * r for s, r in zip(row, right[k])]
        image[j] = row
    if left is None:
        return list(image.values())
    out = [[0] * width for _ in range(len(left[0]) if left else 0)]
    for j, row in image.items():
        for a, weight in enumerate(left[j]):
            if weight:
                out[a] = [s + weight * r for s, r in zip(out[a], row)]
    return out


def vanishes(rows, ring: Ring) -> bool:
    """Whether every entry is zero, mod p over F_p."""
    return not any(v for row in rows for v in ring.reduce_row(row))


def is_subcoalgebra(l: Lattice, c: Coalgebra) -> bool:
    """Whether Delta maps the lattice into the tensor square of its saturation.

    Let P be the integral projection whose kernel x * P = 0 is the
    saturation V of the lattice and X the n x n matrix of Delta(x).
    Splitting C = V + W shows V (x) V = {X : X P = 0 and P^T X = 0}, so
    each basis row costs two products of n x n blocks and nothing is
    built in C (x) C.  Saturation commutes with the square,
    sat(L (x) L) = sat(L) (x) sat(L), so pure and impure lattices (a
    scaled group-like line, say) take the same path.
    """
    if l.ambient_rank != c.rank:
        raise AmbientMismatch(f"lattice ambient {l.ambient_rank} vs coalgebra rank {c.rank}")
    if l.ring != c.ring:
        raise RingMismatch(f"{l.ring} vs {c.ring}")
    proj, n = l.integral_projection(), c.rank
    return all(
        vanishes(sandwich(None, x, proj, n), c.ring) and vanishes(sandwich(proj, x, None, n), c.ring)
        for x in delta_blocks(c, l.basis.rows)
    )


def purify_subcoalgebra(l: Lattice, c: Coalgebra) -> Lattice:
    """Saturation of a subcoalgebra lattice, which is again a subcoalgebra."""
    if not is_subcoalgebra(l, c):
        raise NotSubcoalgebra("purification requires a subcoalgebra lattice")
    sat = l.saturate()
    if not is_subcoalgebra(sat, c):
        raise AssertionError("purification failed to stay a subcoalgebra")
    return sat


def _section(l: Lattice) -> list:
    """Rows of an n x r matrix T over the ring with B * T = I, B the basis of a pure lattice.

    Purity makes the Hermite transform of B^T satisfy U * B^T = [I; 0],
    so B * U^T = [I | 0] and T is the first r columns of U^T.
    """
    _, u = hnf(l.basis.transpose())
    return [row[: l.rank] for row in u.transpose().rows]


def restrict_to_subcoalgebra(l: Lattice, c: Coalgebra):
    """Coalgebra structure on a pure subcoalgebra lattice plus its inclusion.

    With T an integral section of the basis B (B * T = I), Delta(b_i) =
    B^T S_i B gives the structure constants S_i = T^T Delta(b_i) T on
    n x n blocks; purity makes T integral.
    """
    flag, _ = l.is_pure()
    if not flag:
        raise NotSubcoalgebra("restriction requires a pure subcoalgebra lattice")
    if not is_subcoalgebra(l, c):
        raise NotSubcoalgebra("restriction requires a subcoalgebra lattice")
    basis = l.basis.rows
    counit = [c.counit_of(row) for row in basis]
    sub = _built(c.ring, l.rank, *_transported(c, basis, _section(l)), counit)
    incl = CoalgebraMap(sub, c, Matrix(c.ring, basis, c.rank))
    return sub, incl
