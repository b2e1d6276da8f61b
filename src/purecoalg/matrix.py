"""Exact dense matrices and their normal forms over the supported rings.

Row convention throughout the package: vectors are rows, a linear map
with matrix F sends x to x*F, and composition reads left to right.

The Hermite form computed here is the canonical row-style one: pivot
columns strictly increase, pivots are canonical associates (positive
integers for Z, positive prime-to-S integers for Z[S^-1], 1 over a
field), entries above a pivot are canonical residues, and zero rows are
trimmed.  Two row-equivalent matrices therefore have equal Hermite
forms, which is what makes lattice equality a bitwise comparison.

One elimination kernel runs over Z and over F_p, and every normal form
comes from it: Hermite forms and left kernels directly, Smith forms
from alternating Hermite passes on the rows and on the columns, and a
gcd/lcm pass over the diagonal; a rank is its forward pass alone.  A transform rides along as columns
appended to the rows that are never pivots, so each row operation is
written once: the kernel turns [A | T] into [U * A | U * T] (Cohen,
GTM 138, 2.4).  Over Q and Z[S^-1] each row is first cleared by the lcm
of its denominators, a unit of the ring, so the row module does not
change; the integer kernel runs on the cleared rows with T = diag(row
scales) (the identity over Z and F_p), so U * T transforms the rows
themselves.  One boundary pass on whole integer rows, riding columns
included, then makes each pivot (or Smith divisor) its canonical
associate and reduces the entries above each pivot to canonical
residues, in pivot order.  It keeps one denominator per row, so
Fractions are formed only for the entries it returns, never inside
the O(n^3) loops.

Entries are arbitrary precision, so no overflow policy is needed; the
elimination kernel favors the exact-division fast path and falls back
to a 2x2 unimodular gcd transform, which keeps intermediate swell
acceptable at desk scale.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import RingMismatch
from .rings import ZZ, Ring, prime_field, reduce_rows_mod_p


class Matrix:
    """Immutable-by-convention dense matrix over one of the ground rings."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows, ncols: int):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError(f"row of length {len(r)} in a {self.nrows}x{ncols} matrix")

    # --- constructors -------------------------------------------------
    @classmethod
    def _owning(cls, ring: Ring, rows: list, ncols: int) -> "Matrix":
        """A matrix on rows just built by the caller, each a fresh list of length ncols, taken without a copy."""
        mat = object.__new__(cls)
        mat.ring = ring
        mat.rows = rows
        mat.nrows = len(rows)
        mat.ncols = ncols
        return mat

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        one, zero = ring.one, ring.zero
        return cls._owning(ring, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, ring: Ring, m: int, n: int) -> "Matrix":
        zero = ring.zero
        return cls._owning(ring, [[zero] * n for _ in range(m)], n)

    # --- basic queries -------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols, tuple(map(tuple, self.rows))))

    def __repr__(self):
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(v == zero for row in self.rows for v in row)

    # --- arithmetic ------------------------------------------------------
    def _same_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return Matrix._owning(self.ring, self._post_rows(rows), self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        rows = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return Matrix._owning(self.ring, self._post_rows(rows), self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix._owning(self.ring, self._post_rows([[-a for a in r] for r in self.rows]), self.ncols)

    def scale(self, c) -> "Matrix":
        return Matrix._owning(self.ring, self._post_rows([[c * a for a in r] for r in self.rows]), self.ncols)

    def _post_rows(self, rows):
        post = _post_fn(self.ring)
        return [post(r) for r in rows] if post else rows

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Product; over Q and Z[S^-1] in integers, on the rows of self and of other cleared."""
        self._same_ring(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cleared = self.ring.cleared(self.rows)
        arows, brows, zero = self.rows, other.rows, self.ring.zero
        if cleared is not None:
            # row i is (N_i / a_i) * (M / L), M the rows of other over one common denominator L
            scales, arows = cleared
            bscales, brows = self.ring.cleared(other.rows)
            common = math.lcm(*bscales)
            brows = [row if b == common else [x * (common // b) for x in row] for row, b in zip(brows, bscales)]
            zero = 0
        out = []
        for arow in arows:
            acc = [zero] * other.ncols
            for j, a in enumerate(arow):
                if a:
                    brow = brows[j]
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(acc)
        if cleared is not None:
            out = [_fractions(row, a * common) for row, a in zip(out, scales)]
        return Matrix._owning(self.ring, self._post_rows(out), other.ncols)

    def transpose(self) -> "Matrix":
        rows = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Matrix._owning(self.ring, rows, self.nrows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product with the row-major basis convention e_i (x) e_j -> i*n2 + j."""
        self._same_ring(other)
        rows = []
        for arow in self.rows:
            for brow in other.rows:
                rows.append([a * b for a in arow for b in brow])
        return Matrix._owning(self.ring, self._post_rows(rows), self.ncols * other.ncols)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if self.ncols != other.ncols:
            raise ValueError("column mismatch in vstack")
        return Matrix(self.ring, self.rows + other.rows, self.ncols)

    # --- ring changes ----------------------------------------------------
    def reduce_mod(self, p: int) -> "Matrix":
        return Matrix(prime_field(p), reduce_rows_mod_p(self.ring, self.rows, p), self.ncols)

    # --- derived quantities ----------------------------------------------
    def rank(self) -> int:
        """Rank over the fraction field: the forward pass of the elimination kernel alone.

        A rank needs no canonical form, so no pivot is normalized, no entry
        above a pivot is reduced, and over Q and Z[S^-1] no boundary pass
        runs on the cleared rows.
        """
        base, ints, _ = _kernel_input(self.ring, self.rows)
        return _elim(base, ints, self.ncols, canonical=False)[1]

    def inverse(self) -> "Matrix":
        """Inverse of a matrix that is invertible over its own ring."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        h, u = hnf(self)
        if h != Matrix.identity(self.ring, self.nrows):
            raise ValueError("matrix is not invertible over its ring")
        return u

    def pivot_columns(self) -> list[int]:
        """First nonzero column of each row (meaningful for Hermite forms)."""
        out = []
        for row in self.rows:
            for j, v in enumerate(row):
                if v:
                    out.append(j)
                    break
        return out


def _post_fn(ring: Ring):
    """The row reduction mod p over F_p, None elsewhere, so the kernels skip the call."""
    return ring.reduce_row if ring.kind == "Fp" else None


def _elim(ring: Ring, rows, ncols: int, canonical: bool = True):
    """The elimination kernel, over Z or F_p: (reduced rows, rank).

    The first ncols entries of the reduced rows hold the canonical
    Hermite form on top and exact zero rows below.  Entries past ncols
    are never pivots but take part in every row operation, so rows
    [A | T] come back as [U * A | U * T] with U invertible over the ring.
    With canonical False only the forward pass runs: the rows come back
    in an echelon form whose pivots are neither normalized nor reduced
    above, which is enough for the rank.
    """
    A = [list(r) for r in rows]
    m = len(A)
    post = _post_fn(ring)
    if post:
        A = [post(r) for r in A]
    one = ring.one
    try_div = ring.try_exact_div
    gcdex = ring.gcdex
    exact_div = ring.exact_div
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            b = A[i][c]
            if not b:
                continue
            a = A[r][c]
            q = try_div(b, a)
            Ar, Ai = A[r], A[i]
            if q is not None:
                Ai[c:] = [x - q * y for x, y in zip(Ai[c:], Ar[c:])]
                if post:
                    A[i] = post(Ai)
            else:
                g, s, t = gcdex(a, b)
                af = exact_div(a, g)
                bf = exact_div(b, g)
                tail_r = [s * x + t * y for x, y in zip(Ar[c:], Ai[c:])]
                tail_i = [af * y - bf * x for x, y in zip(Ar[c:], Ai[c:])]
                Ar[c:] = tail_r
                Ai[c:] = tail_i
                if post:
                    A[r] = post(Ar)
                    A[i] = post(Ai)
        if canonical:
            # normalize the pivot to its canonical associate
            u_, _canon = ring.canonicalize_unit(A[r][c])
            if u_ != one:
                A[r] = [u_ * x for x in A[r]]
                if post:
                    A[r] = post(A[r])
            # reduce entries above the pivot to canonical residues
            a = A[r][c]
            for i in range(r):
                b = A[i][c]
                if not b:
                    continue
                q, _ = ring.mod_reduce(b, a)
                if q:
                    Ai, Ar = A[i], A[r]
                    Ai[c:] = [x - q * y for x, y in zip(Ai[c:], Ar[c:])]
                    if post:
                        A[i] = post(Ai)
        r += 1
        if r == m:
            break
    return A, r


def _kernel_input(ring: Ring, rows):
    """(kernel ring, kernel rows, row scales): Z on the cleared rows over Q and Z[S^-1], else the rows themselves and None."""
    cleared = ring.cleared(rows)
    if cleared is None:
        return ring, rows, None
    scales, ints = cleared
    return ZZ, ints, scales


def _start(ring: Ring, n: int, scales) -> list:
    """The transform that riding columns start from: diag(row scales) over Q and Z[S^-1], else the identity.

    The kernel then returns U * diag(scales), a transform of the cleared
    rows made a transform of the rows themselves.
    """
    zero = ring.zero
    return [[zero] * i + [d] + [zero] * (n - 1 - i) for i, d in enumerate(scales or [ring.one] * n)]


_ZERO = Fraction(0)


def _fractions(row, d: int) -> list:
    """The ring row row / d, for an integer row and a positive integer d; zeros share one Fraction."""
    if d == 1:
        return [Fraction(x) if x else _ZERO for x in row]
    return [Fraction(x, d) if x else _ZERO for x in row]


def _boundary(ring: Ring, A) -> list[int]:
    """Integer Hermite rows made the canonical Hermite form over Q or Z[S^-1], in place.

    Returns one positive integer d_k per row, and row k of the form is
    A[k] / d_k, riding columns included.  In pivot order, the integer
    pivot p of row k becomes its canonical associate c (d_k = p / c, a
    unit), and every row i above it is reduced by the q with b - q * c
    the canonical residue of its entry b in that column: in integers,
    row i becomes (p * A[i] - t * A[k]) / (d_i * p) with
    t = d_i * (b - residue), and the common content is divided out.
    """
    dens = [1] * len(A)
    for k, row in enumerate(A):
        pc = next(j for j, v in enumerate(row) if v)
        p = row[pc]
        c = int(ring.canonicalize_unit(p)[1])
        dens[k] = p // c
        for i in range(k):
            b = A[i][pc]
            if not b:
                continue
            d = dens[i]
            t = b - b * pow(d, -1, c) % c * d if c != 1 else b
            if not t:
                continue
            A[i] = [p * x - t * y for x, y in zip(A[i], row)]
            d *= p
            g = math.gcd(d, *A[i])
            if g != 1:
                A[i] = [x // g for x in A[i]]
            dens[i] = d // g
    return dens


def _hnf_rows(ring: Ring, rows, ncols: int, track: bool):
    """(Hermite rows, transform rows or None, rank) over the ring.

    The transform U is square and invertible over the ring, with U * rows
    equal to the Hermite rows on top and zero below.
    """
    base, ints, scales = _kernel_input(ring, rows)
    if track:
        ints = [row + t for row, t in zip(ints, _start(base, len(ints), scales))]
    A, r = _elim(base, ints, ncols)
    if scales is None:
        return [row[:ncols] for row in A[:r]], ([row[ncols:] for row in A] if track else None), r
    top = A[:r]
    dens = _boundary(ring, top) + [1] * (len(A) - r)
    A[:r] = top
    U = [_fractions(row[ncols:], d) for row, d in zip(A, dens)] if track else None
    return [_fractions(row[:ncols], d) for row, d in zip(top, dens)], U, r


def from_integer_hermite(ring: Ring, rows, ncols: int) -> Matrix:
    """The canonical Hermite form over Q or Z[S^-1] of integer rows already in Hermite form over Z.

    This is the boundary pass alone.
    """
    A = [list(row) for row in rows]
    dens = _boundary(ring, A)
    return Matrix._owning(ring, [_fractions(row, d) for row, d in zip(A, dens)], ncols)


def hnf(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Canonical row Hermite normal form.

    Returns (h, u) where u is square and invertible over the ring,
    u * mat agrees with h on the first h.nrows rows and is zero below,
    and h is the canonical representative of the row space: equality of
    row spaces (as sublattices) is equality of Hermite forms.
    """
    h, U, _ = _hnf_rows(mat.ring, mat.rows, mat.ncols, track=True)
    return Matrix._owning(mat.ring, h, mat.ncols), Matrix._owning(mat.ring, U, mat.nrows)


def hnf_basis(mat: Matrix) -> Matrix:
    """Hermite form only, skipping the transform bookkeeping."""
    h, _, _ = _hnf_rows(mat.ring, mat.rows, mat.ncols, track=False)
    return Matrix._owning(mat.ring, h, mat.ncols)


def left_kernel_rows(mat: Matrix) -> list[list]:
    """Basis rows of { x : x * mat = 0 }, already saturated, in Hermite form.

    Over Q and Z[S^-1] the kernel of the rows is the kernel of the
    cleared rows times the row scales, taken and brought to Hermite form
    in integers before the boundary pass.
    """
    ring = mat.ring
    base, ints, scales = _kernel_input(ring, mat.rows)
    h, U = _hermite_pass(base, ints, _start(base, mat.nrows, scales), mat.ncols)
    ker, _ = _hermite_pass(base, U[len(h):], None, mat.nrows)
    if scales is None:
        return ker
    return from_integer_hermite(ring, ker, mat.nrows).rows


def snf(mat: Matrix) -> tuple[list, Matrix, Matrix]:
    """Smith normal form: returns (divisors, u, v) with u*mat*v diagonal.

    The divisors are canonical associates forming a divisibility chain
    d1 | d2 | ...; over Z[S^-1] all inverted primes are stripped so
    units have unit divisors, and over a field every divisor is 1.  Over
    Q and Z[S^-1], v is the integer column transform of the cleared rows.
    """
    divs, u_rows, v_rows = _snf_rows(mat.ring, mat.rows, mat.ncols, track=True)
    return (
        divs,
        Matrix._owning(mat.ring, u_rows, mat.nrows),
        Matrix._owning(mat.ring, v_rows, mat.ncols),
    )


def elementary_divisors(mat: Matrix) -> list:
    """Divisors only, skipping transform bookkeeping."""
    divs, _, _ = _snf_rows(mat.ring, mat.rows, mat.ncols, track=False)
    return divs


def _snf_rows(ring: Ring, rows, ncols: int, track: bool):
    """(canonical divisors, U, V) over the ring; over Q and Z[S^-1] from the integer Smith form of the cleared rows.

    With U_Z * (D * rows) * V = diag(e) over Z, D the row scales, the
    divisor e_k has canonical associate c_k = u_k * e_k, and U is
    diag(u) * U_Z * D, where U_Z * D is what the kernel returns when
    the transform starts from D.
    """
    base, ints, scales = _kernel_input(ring, rows)
    divs, U, V = _smith(base, ints, ncols, _start(base, len(ints), scales) if track else None)
    if scales is None:
        return divs, U, V
    canon = [ring.canonicalize_unit(e)[1] for e in divs]
    if track:
        U = [[Fraction(x * c.numerator, e) for x in row] for row, c, e in zip(U, canon, divs)] + [
            _fractions(row, 1) for row in U[len(divs):]
        ]
        V = [_fractions(row, 1) for row in V]
    return canon, U, V


def _hermite_pass(ring: Ring, block, transform, ncols: int):
    """(nonzero Hermite rows of block, transform or None): one run of the kernel, the transform split off.

    The first len(block) rows of the transform ride along as extra
    columns, so the row operations reach them without a product; its
    rows past the block stay as they are.
    """
    if transform is None:
        A, r = _elim(ring, block, ncols)
        return A[:r], None
    A, r = _elim(ring, [row + t for row, t in zip(block, transform)], ncols)
    return [row[:ncols] for row in A[:r]], [row[ncols:] for row in A] + transform[len(block):]


def _smith(ring: Ring, rows, ncols: int, transform):
    """(divisors, U, V) over Z or F_p with U * rows * V = diag(divisors), by alternating Hermite passes.

    A pass brings the rows of the block to Hermite form; the next brings
    its columns there, as the rows of the transpose.  An input with no
    more rows than columns starts with its columns: a Hermite basis, the
    usual input, would come through a first row pass unchanged.  After
    two passes the nonzero part is a square block with its pivots on the
    diagonal.  Take the first pivot whose row or column is not clear: the
    next pass clears them or makes it a proper divisor of itself, and
    cleared rows and columns stay clear, so the passes end, at the first
    one that leaves the block diagonal (Kannan and Bachem, SIAM J.
    Comput. 8, 1979; Cohen, GTM 138, 2.4.4).  A gcd/lcm pass over the
    diagonal then forces d_1 | d_2 | ...; over F_p every pivot is 1 and
    it changes nothing.  Row operations act on the rows of U, which
    starts from the given transform T (so the U returned is the row
    transform times T), column operations on the rows of V^T, which
    starts from the identity; with T None neither is formed.
    """
    # the transforms [U, V^T]; a pass on the rows of the block acts on the rows of one of them
    transforms = [transform, None if transform is None else _start(ring, ncols, None)]
    block, width, side = rows, ncols, 0
    if len(rows) <= ncols:
        block, width, side = [list(col) for col in zip(*rows)], len(rows), 1
    while True:
        block, transforms[side] = _hermite_pass(ring, block, transforms[side], width)
        if all(not any(row[:i]) and not any(row[i + 1:]) for i, row in enumerate(block)):
            break
        width, block, side = len(block), [list(col) for col in zip(*block)], 1 - side
    U, Vt = transforms
    divs = [row[i] for i, row in enumerate(block)]
    for i in range(len(divs)):
        for j in range(i + 1, len(divs)):
            a, b = divs[i], divs[j]
            if ring.try_exact_div(b, a) is not None:
                continue
            # [[s, t], [-b/g, a/g]] * diag(a, b) * [[1, -t b/g], [1, s a/g]] = diag(g, lcm)
            g, s, t = ring.gcdex(a, b)
            af, bf = ring.exact_div(a, g), ring.exact_div(b, g)
            divs[i], divs[j] = g, af * b
            if U is not None:
                Ui, Uj, Vi, Vj = U[i], U[j], Vt[i], Vt[j]
                U[i] = [s * x + t * y for x, y in zip(Ui, Uj)]
                U[j] = [af * y - bf * x for x, y in zip(Ui, Uj)]
                Vt[i] = [x + y for x, y in zip(Vi, Vj)]
                Vt[j] = [s * af * y - t * bf * x for x, y in zip(Vi, Vj)]
    return divs, U, (None if Vt is None else [list(col) for col in zip(*Vt)])


def charpoly(mat: Matrix) -> list:
    """Characteristic polynomial det(x*I - M) by the Berkowitz method.

    Division free, so it is exact over every supported ring; returns
    coefficients in descending powers, leading coefficient one.
    """
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    ring = mat.ring
    one, zero = ring.one, ring.zero
    if n == 0:
        return [one]
    M = mat.rows
    poly = [one, -M[0][0]]
    for i in range(1, n):
        R = M[i][:i]
        Ccol = [M[j][i] for j in range(i)]
        Ablock = [row[:i] for row in M[:i]]
        toe = [one, -M[i][i]]
        v = Ccol
        toe.append(-sum(map(operator.mul, R, v)))
        for _ in range(i - 1):
            v = [sum(map(operator.mul, row, v)) for row in Ablock]
            toe.append(-sum(map(operator.mul, R, v)))
        new = []
        for k in range(i + 2):
            acc = zero
            lo = max(0, k - (i + 1))
            for j in range(lo, min(k, i) + 1):
                acc = acc + toe[k - j] * poly[j]
            new.append(acc)
        poly = new
    return ring.reduce_row(poly)
