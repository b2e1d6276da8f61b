"""The coalgebra data model: structure constants, axioms, constructors.

A Coalgebra of rank n stores its comultiplication as an n x n^2 matrix
D (row i holds the coordinates of Delta(e_i) under the row-major basis
e_j (x) e_k -> j*n + k) together with the counit vector.  Everything is
basis-dependent by design: the statements this workbench checks are all
witnessed by explicit matrices, so no basis-free representation or
isomorphism search is offered.

Axiom checks (cocommutativity, coassociativity, counit laws) walk the
nonzero structure constants directly instead of materializing the
n^2 x n^3 Kronecker matrices the identities formally live in.  Likewise
a tensor in C (x) C is held as the n x n matrix X of its coefficients,
and tensor-square conditions are products P^T X Q of small integer
matrices (``delta_blocks``, ``sandwich``), never lattices in C (x) C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    AmbientMismatch,
    InvalidAlgebra,
    NotSubcoalgebra,
    RingMismatch,
    ValidationError,
)
from .lattice import Lattice, solve_in_rows
from .matrix import Matrix
from .rings import ZZ, Ring, cleared_row


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

    def __str__(self):
        lines = [str(c) for c in self.checks]
        lines.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _row_items(row):
    return [(j, v) for j, v in enumerate(row) if v]


class Coalgebra:
    """Cocommutative coassociative coalgebra on a free module of finite rank."""

    __slots__ = ("ring", "rank", "delta", "counit", "basis_names")

    def __init__(self, ring: Ring, rank: int, delta: Matrix, counit, basis_names=None):
        if delta.nrows != rank or delta.ncols != rank * rank:
            raise ValidationError(f"delta must be {rank}x{rank * rank}, got {delta.nrows}x{delta.ncols}")
        if len(counit) != rank:
            raise ValidationError("counit length must equal the rank")
        self.ring = ring
        self.rank = rank
        self.delta = delta
        self.counit = list(counit)
        self.basis_names = tuple(basis_names) if basis_names is not None else None

    def __eq__(self, other):
        return (
            isinstance(other, Coalgebra)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.delta == other.delta
            and self.counit == other.counit
        )

    def __hash__(self):
        return hash((self.ring, self.rank, self.delta, tuple(self.counit)))

    def __repr__(self):
        return f"Coalgebra({self.ring}, rank {self.rank})"

    def name_of(self, i: int) -> str:
        return self.basis_names[i] if self.basis_names else f"e{i}"

    # --- evaluation ------------------------------------------------------
    def comultiply(self, vector):
        """Coordinates of Delta(x) in the row-major tensor basis."""
        n2 = self.rank * self.rank
        acc = [self.ring.zero] * n2
        for c, row in zip(vector, self.delta.rows):
            if c:
                acc = [x + c * y for x, y in zip(acc, row)]
        if self.ring.kind == "Fp":
            acc = [v % self.ring.p for v in acc]
        return acc

    def counit_of(self, vector):
        total = self.ring.zero
        for c, e in zip(vector, self.counit):
            total = total + c * e
        if self.ring.kind == "Fp":
            total %= self.ring.p
        return total

    # --- axioms ------------------------------------------------------------
    def validate(self) -> ValidationReport:
        return validate_coalgebra(self)

    def require_valid(self):
        report = self.validate()
        bad = report.first_failure()
        if bad is not None:
            raise ValidationError(f"coalgebra axiom failed: {bad}")
        return self


def validate_coalgebra(c: Coalgebra) -> ValidationReport:
    """Check cocommutativity, coassociativity, and both counit laws.

    Each failure is reported with the first violating index tuple; the
    checks accumulate structure constants through dictionaries keyed by
    basis indices, never forming the n^2 x n^3 identity matrices.
    """
    n = c.rank
    ring = c.ring
    zero = ring.zero
    report = ValidationReport()
    D = c.delta.rows

    def norm(v):
        return v % ring.p if ring.kind == "Fp" else v

    # cocommutativity: d[i][(j,k)] == d[i][(k,j)]
    cocomm_loc = ""
    for i in range(n):
        row = D[i]
        for j in range(n):
            for k in range(j + 1, n):
                if norm(row[j * n + k] - row[k * n + j]):
                    cocomm_loc = f"(i,j,k)=({i},{j},{k})"
                    break
            if cocomm_loc:
                break
        if cocomm_loc:
            break
    report.add("cocommutativity", not cocomm_loc, cocomm_loc)

    # coassociativity: compare (Delta x id) Delta with (id x Delta) Delta
    coassoc_loc = ""
    for i in range(n):
        lhs: dict[tuple[int, int, int], object] = {}
        rhs: dict[tuple[int, int, int], object] = {}
        for jk, v in _row_items(D[i]):
            j, k = divmod(jk, n)
            for ab, w in _row_items(D[j]):
                a, b = divmod(ab, n)
                key = (a, b, k)
                lhs[key] = norm(lhs.get(key, zero) + v * w)
            for bk2, w in _row_items(D[k]):
                b, k2 = divmod(bk2, n)
                key = (j, b, k2)
                rhs[key] = norm(rhs.get(key, zero) + v * w)
        for key in set(lhs) | set(rhs):
            if norm(lhs.get(key, zero) - rhs.get(key, zero)):
                coassoc_loc = f"basis {i}, tensor slot {key}"
                break
        if coassoc_loc:
            break
    report.add("coassociativity", not coassoc_loc, coassoc_loc)

    # counit laws: (eps x id) Delta = id = (id x eps) Delta
    left_loc = right_loc = ""
    for i in range(n):
        left = [zero] * n
        right = [zero] * n
        for jk, v in _row_items(D[i]):
            j, k = divmod(jk, n)
            left[k] = norm(left[k] + v * c.counit[j])
            right[j] = norm(right[j] + v * c.counit[k])
        expected = [ring.one if t == i else zero for t in range(n)]
        if not left_loc and [norm(x) for x in left] != [norm(x) for x in expected]:
            left_loc = f"basis {i}"
        if not right_loc and [norm(x) for x in right] != [norm(x) for x in expected]:
            right_loc = f"basis {i}"
    report.add("counit law (left)", not left_loc, left_loc)
    report.add("counit law (right)", not right_loc, right_loc)
    return report


# --- constructors ---------------------------------------------------------


def set_like(ring: Ring, names) -> Coalgebra:
    """Free module on a finite set with the diagonal comultiplication.

    Every basis element becomes group-like; the empty set gives the
    initial (rank zero) coalgebra.
    """
    names = list(names)
    n = len(names)
    rows = []
    for i in range(n):
        row = [ring.zero] * (n * n)
        row[i * n + i] = ring.one
        rows.append(row)
    return Coalgebra(ring, n, Matrix(ring, rows, n * n), [ring.one] * n, basis_names=names)


class AlgebraPresentation:
    """Commutative associative unital algebra on a free module of finite rank.

    The multiplication tensor is an n^2 x n matrix: row (i, j) holds the
    coordinates of e_i * e_j.
    """

    __slots__ = ("ring", "rank", "mult", "unit", "basis_names")

    def __init__(self, ring: Ring, rank: int, mult: Matrix, unit, basis_names=None):
        if mult.nrows != rank * rank or mult.ncols != rank:
            raise ValidationError(f"mult must be {rank * rank}x{rank}, got {mult.nrows}x{mult.ncols}")
        if len(unit) != rank:
            raise ValidationError("unit length must equal the rank")
        self.ring = ring
        self.rank = rank
        self.mult = mult
        self.unit = list(unit)
        self.basis_names = tuple(basis_names) if basis_names is not None else None

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraPresentation)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"AlgebraPresentation({self.ring}, rank {self.rank})"

    def multiply(self, x, y):
        """Product of two coordinate vectors."""
        n = self.rank
        ring = self.ring
        acc = [ring.zero] * n
        rows = self.mult.rows
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = xi * yj
                acc = [a + coeff * m for a, m in zip(acc, rows[i * n + j])]
        if ring.kind == "Fp":
            acc = [v % ring.p for v in acc]
        return acc

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
        """Check commutativity, associativity and the unit law.

        Like ``validate_coalgebra``, the checks walk the nonzero
        structure constants, and each failure names the first violating
        index tuple in lexicographic order.
        """
        n = self.rank
        ring = self.ring
        zero = ring.zero
        report = ValidationReport()

        def norm(v):
            return v % ring.p if ring.kind == "Fp" else v

        M = self.mult.rows
        comm_loc = ""
        for i in range(n):
            for j in range(i + 1, n):
                if any(norm(a - b) for a, b in zip(M[i * n + j], M[j * n + i])):
                    comm_loc = f"(i,j)=({i},{j})"
                    break
            if comm_loc:
                break
        report.add("commutativity", not comm_loc, comm_loc)

        # associativity: (e_i e_j) e_k = e_i (e_j e_k), summed over the nonzero
        # structure constants; for each (i, j) every k is compared at once, the
        # coefficient of e_t for a given k sitting at k * n + t of a flat list
        assoc_loc = ""
        items = [_row_items(row) for row in M]
        for i in range(n):
            for j in range(n):
                lhs = [0] * (n * n)
                for m, v in items[i * n + j]:
                    for k in range(n):
                        at = k * n
                        for t, w in items[m * n + k]:
                            lhs[at + t] += v * w
                rhs = [0] * (n * n)
                for k in range(n):
                    at = k * n
                    for m, v in items[j * n + k]:
                        for t, w in items[i * n + m]:
                            rhs[at + t] += v * w
                if ring.kind == "Fp":
                    lhs = [v % ring.p for v in lhs]
                    rhs = [v % ring.p for v in rhs]
                if lhs != rhs:
                    bad = next(at for at, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                    assoc_loc = f"(i,j,k)=({i},{j},{bad // n})"
                    break
            if assoc_loc:
                break
        report.add("associativity", not assoc_loc, assoc_loc)

        # unit law: 1 * e_i = e_i
        unit_loc = ""
        for i in range(n):
            prod = [zero] * n
            for m, u in _row_items(self.unit):
                for t, w in items[m * n + i]:
                    prod[t] += u * w
            if any(norm(v - (ring.one if t == i else zero)) for t, v in enumerate(prod)):
                unit_loc = f"basis {i}"
                break
        report.add("unit law", not unit_loc, unit_loc)
        return report

    def require_valid(self):
        report = self.validate()
        bad = report.first_failure()
        if bad is not None:
            raise InvalidAlgebra(f"algebra axiom failed: {bad}")
        return self


def dual_of_algebra(a: AlgebraPresentation) -> Coalgebra:
    """Linear dual of a finite algebra: the comultiplication transposes
    the multiplication table and the counit evaluates at the unit."""
    a.require_valid()
    delta = a.mult.transpose()
    names = None
    if a.basis_names:
        names = [f"{s}*" for s in a.basis_names]
    return Coalgebra(a.ring, a.rank, delta, a.unit, basis_names=names)


def dual_algebra(c: Coalgebra) -> AlgebraPresentation:
    """Linear dual of a finite coalgebra; round trips with dual_of_algebra."""
    mult = c.delta.transpose()
    names = None
    if c.basis_names:
        names = [s[:-1] if s.endswith("*") else f"{s}*" for s in c.basis_names]
    return AlgebraPresentation(c.ring, c.rank, mult, c.counit, basis_names=names)


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
        if ring.kind == "Fp":
            shifted = [v % ring.p for v in shifted]
        powers.append(shifted)
    rows = [powers[i + j] for i in range(k) for j in range(k)]
    unit = powers[0]
    names = ["1"] + [f"x{e}" if e > 1 else "x" for e in range(1, k)]
    return AlgebraPresentation(ring, k, Matrix(ring, rows, k), unit, basis_names=names)


def truncated_polynomial_algebra(ring: Ring, k: int) -> AlgebraPresentation:
    return monogenic_algebra(ring, [ring.zero] * k)


def split_algebra(ring: Ring, m: int) -> AlgebraPresentation:
    """The product ring R x ... x R on idempotent coordinates."""
    rows = []
    for i in range(m):
        for j in range(m):
            rows.append([ring.one if (i == j == t) else ring.zero for t in range(m)])
    return AlgebraPresentation(ring, m, Matrix(ring, rows, m), [ring.one] * m, basis_names=[f"p{i}" for i in range(m)])


# --- functorial constructions ------------------------------------------------


def tensor(c: Coalgebra, d: Coalgebra) -> Coalgebra:
    """Tensor product coalgebra with the row-major basis (a, b) -> a*n_d + b."""
    if c.ring != d.ring:
        raise RingMismatch(f"{c.ring} vs {d.ring}")
    ring = c.ring
    nc, nd = c.rank, d.rank
    n = nc * nd
    rows = []
    for a in range(nc):
        crow = c.delta.rows[a]
        citems = _row_items(crow)
        for b in range(nd):
            ditems = _row_items(d.delta.rows[b])
            row = [ring.zero] * (n * n)
            for jk, v in citems:
                j, k = divmod(jk, nc)
                for ef, w in ditems:
                    e, f = divmod(ef, nd)
                    col = (j * nd + e) * n + (k * nd + f)
                    row[col] = row[col] + v * w
            if ring.kind == "Fp":
                row = [x % ring.p for x in row]
            rows.append(row)
    counit = [ec * ed for ec in c.counit for ed in d.counit]
    if ring.kind == "Fp":
        counit = [v % ring.p for v in counit]
    names = None
    if c.basis_names and d.basis_names:
        names = [f"{s}(x){t}" for s in c.basis_names for t in d.basis_names]
    out = Coalgebra(ring, n, Matrix(ring, rows, n * n), counit, basis_names=names)
    out.require_valid()
    return out


def direct_sum(c: Coalgebra, d: Coalgebra) -> Coalgebra:
    """Block-diagonal comultiplication, concatenated counits."""
    if c.ring != d.ring:
        raise RingMismatch(f"{c.ring} vs {d.ring}")
    ring = c.ring
    nc, nd = c.rank, d.rank
    n = nc + nd
    rows = []
    for i in range(nc):
        row = [ring.zero] * (n * n)
        for jk, v in _row_items(c.delta.rows[i]):
            j, k = divmod(jk, nc)
            row[j * n + k] = v
        rows.append(row)
    for i in range(nd):
        row = [ring.zero] * (n * n)
        for jk, v in _row_items(d.delta.rows[i]):
            j, k = divmod(jk, nd)
            row[(nc + j) * n + (nc + k)] = v
        rows.append(row)
    counit = list(c.counit) + list(d.counit)
    names = None
    if c.basis_names and d.basis_names:
        names = list(c.basis_names) + list(d.basis_names)
    return Coalgebra(ring, n, Matrix(ring, rows, n * n), counit, basis_names=names)


def conjugate(c: Coalgebra, w: Matrix) -> Coalgebra:
    """Transport of structure along an invertible change of basis w."""
    if w.nrows != c.rank or w.ncols != c.rank:
        raise AmbientMismatch("change of basis must be square of the coalgebra rank")
    winv = w.inverse()
    delta = w * c.delta * winv.kron(winv)
    counit = (w * Matrix(c.ring, [[e] for e in c.counit], 1)).rows
    return Coalgebra(c.ring, c.rank, delta, [r[0] for r in counit])


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
        out = [self.domain.ring.zero] * self.codomain.rank
        for c, row in zip(vector, self.matrix.rows):
            if c:
                out = [x + c * y for x, y in zip(out, row)]
        if self.domain.ring.kind == "Fp":
            out = [v % self.domain.ring.p for v in out]
        return out

    def compose(self, then: "CoalgebraMap") -> "CoalgebraMap":
        if self.codomain is not then.domain and self.codomain != then.domain:
            raise AmbientMismatch("composition needs matching middle coalgebra")
        return CoalgebraMap(self.domain, then.codomain, self.matrix * then.matrix)

    def validate(self) -> ValidationReport:
        return validate_map(self)

    def require_valid(self):
        report = self.validate()
        bad = report.first_failure()
        if bad is not None:
            raise ValidationError(f"coalgebra map axiom failed: {bad}")
        return self


def identity_map(c: Coalgebra) -> CoalgebraMap:
    return CoalgebraMap(c, c, Matrix.identity(c.ring, c.rank))


def validate_map(f: CoalgebraMap) -> ValidationReport:
    """Check the comultiplication square and the counit triangle."""
    ring = f.domain.ring
    zero = ring.zero
    nc = f.domain.rank
    nd = f.codomain.rank
    F = f.matrix.rows
    report = ValidationReport()

    def norm(v):
        return v % ring.p if ring.kind == "Fp" else v

    square_loc = ""
    for i in range(nc):
        lhs: dict[tuple[int, int], object] = {}
        for jk, v in _row_items(f.domain.delta.rows[i]):
            j, k = divmod(jk, nc)
            for a, fa in _row_items(F[j]):
                for b, fb in _row_items(F[k]):
                    key = (a, b)
                    lhs[key] = norm(lhs.get(key, zero) + v * fa * fb)
        rhs: dict[tuple[int, int], object] = {}
        for m, fm in _row_items(F[i]):
            for ab, w in _row_items(f.codomain.delta.rows[m]):
                a, b = divmod(ab, nd)
                key = (a, b)
                rhs[key] = norm(rhs.get(key, zero) + fm * w)
        for key in set(lhs) | set(rhs):
            if norm(lhs.get(key, zero) - rhs.get(key, zero)):
                square_loc = f"basis {i}, tensor slot {key}"
                break
        if square_loc:
            break
    report.add("comultiplication square", not square_loc, square_loc)

    tri_loc = ""
    for i in range(nc):
        total = zero
        for m, fm in _row_items(F[i]):
            total = total + fm * f.codomain.counit[m]
        if norm(total - f.domain.counit[i]):
            tri_loc = f"basis {i}"
            break
    report.add("counit triangle", not tri_loc, tri_loc)
    return report


# --- subcoalgebras --------------------------------------------------------------


def cleared_delta(c: Coalgebra):
    """(base, D, rows): Delta with its denominators cleared, over Z or F_p.

    Over Z, Q and Z[S^-1] the rows are D * Delta in integers, with D the
    lcm of all denominators of Delta (1 over Z); over F_p they are Delta
    itself with D = 1.  Every block of the result is integral, and its
    eigenvalues are D times those of the block of Delta.
    """
    rows = c.delta.rows
    if c.ring.kind == "Fp":
        return c.ring, 1, rows
    if c.ring.kind == "Z":
        return ZZ, 1, rows
    denom = math.lcm(*(v.denominator for row in rows for v in row))
    return ZZ, denom, [[v.numerator * (denom // v.denominator) for v in row] for row in rows]


def delta_blocks(c: Coalgebra, cleared, rows):
    """Delta(x) for each row x, as the n x n integer matrix X with X[j][k] at e_j (x) e_k.

    X is held by its nonzero rows, a dict j -> [(k, X[j][k]) nonzero].
    Delta comes cleared of denominators (``cleared`` is
    ``cleared_delta(c)``) and x is cleared too, so each X is Delta(x)
    times one nonzero integer, and over F_p the entries are residues
    mod p.  Zero tests and kernels see no difference.
    """
    _, _, delta = cleared
    n = c.rank
    for x in rows:
        acc = [0] * (n * n)
        for a, drow in zip(cleared_row(c.ring, x), delta):
            if a:
                acc = [u + a * v for u, v in zip(acc, drow)]
        yield tensor_block(acc, n, c.ring)


def tensor_block(vector, n: int, ring: Ring):
    """The n x n matrix of a tensor given in the row-major basis, as in ``delta_blocks``."""
    if ring.kind == "Fp":
        vector = [v % ring.p for v in vector]
    block: dict[int, list] = {}
    for jk, v in enumerate(vector):
        if v:
            j, k = divmod(jk, n)
            block.setdefault(j, []).append((k, v))
    return block


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
    if ring.kind == "Fp":
        p = ring.p
        return not any(v % p for row in rows for v in row)
    return not any(v for row in rows for v in row)


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
    return _is_subcoalgebra(l, c, cleared_delta(c))


def _is_subcoalgebra(l: Lattice, c: Coalgebra, cleared) -> bool:
    """``is_subcoalgebra`` for a caller that holds ``cleared = cleared_delta(c)``."""
    if l.ambient_rank != c.rank:
        raise AmbientMismatch(f"lattice ambient {l.ambient_rank} vs coalgebra rank {c.rank}")
    if l.ring != c.ring:
        raise RingMismatch(f"{l.ring} vs {c.ring}")
    proj, n = l.integral_projection(), c.rank
    return all(
        vanishes(sandwich(None, x, proj, n), c.ring) and vanishes(sandwich(proj, x, None, n), c.ring)
        for x in delta_blocks(c, cleared, l.basis.rows)
    )


def purify_subcoalgebra(l: Lattice, c: Coalgebra) -> Lattice:
    """Saturation of a subcoalgebra lattice, which is again a subcoalgebra."""
    cleared = cleared_delta(c)
    if not _is_subcoalgebra(l, c, cleared):
        raise NotSubcoalgebra("purification requires a subcoalgebra lattice")
    sat = l.saturate()
    if not _is_subcoalgebra(sat, c, cleared):
        raise AssertionError("purification failed to stay a subcoalgebra")
    return sat


def restrict_to_subcoalgebra(l: Lattice, c: Coalgebra):
    """Coalgebra structure on a pure subcoalgebra lattice plus its inclusion.

    The structure constants come from solving Delta(b_i) against the
    product basis {b_j (x) b_k}; purity guarantees integral solutions.
    """
    flag, _ = l.is_pure()
    if not flag:
        raise NotSubcoalgebra("restriction requires a pure subcoalgebra lattice")
    if not is_subcoalgebra(l, c):
        raise NotSubcoalgebra("restriction requires a subcoalgebra lattice")
    prod_basis = l.basis.kron(l.basis)
    rows = []
    for row in l.basis.rows:
        coords = solve_in_rows(prod_basis, c.comultiply(row))
        if coords is None:
            raise AssertionError("subcoalgebra structure constants failed to solve")
        rows.append(coords)
    counit = [c.counit_of(row) for row in l.basis.rows]
    sub = Coalgebra(c.ring, l.rank, Matrix(c.ring, rows, l.rank * l.rank), counit)
    incl = CoalgebraMap(sub, c, Matrix(c.ring, l.basis.rows, c.rank))
    return sub, incl
