"""Exact dense matrices and their normal forms over the supported rings.

Row convention throughout the package: vectors are rows, a linear map
with matrix F sends x to x*F, and composition reads left to right.

The Hermite form computed here is the canonical row-style one: pivot
columns strictly increase, pivots are canonical associates (positive
integers for Z, positive prime-to-S integers for Z[S^-1], 1 over a
field), entries above a pivot are canonical residues, and zero rows are
trimmed.  Two row-equivalent matrices therefore have equal Hermite
forms, which is what makes lattice equality a bitwise comparison.

Entries are arbitrary precision, so no overflow policy is needed; the
elimination kernel favors the exact-division fast path and falls back
to a 2x2 unimodular gcd transform, which keeps intermediate swell
acceptable at desk scale.
"""

from __future__ import annotations

import operator

from .errors import RingMismatch
from .rings import QQ, Ring, prime_field, reduce_rows_mod_p


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
        self._same_ring(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        zero = self.ring.zero
        brows = other.rows
        out = []
        for arow in self.rows:
            acc = [zero] * other.ncols
            for j, a in enumerate(arow):
                if a:
                    brow = brows[j]
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(acc)
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
    def to_field(self) -> "Matrix":
        """Image in the fraction field (identity for Q and F_p)."""
        field = self.ring.fraction_field()
        if field == self.ring:
            return self
        conv = self.ring.to_fraction
        return Matrix(field, [[conv(v) for v in row] for row in self.rows], self.ncols)

    def reduce_mod(self, p: int) -> "Matrix":
        return Matrix(prime_field(p), reduce_rows_mod_p(self.ring, self.rows, p), self.ncols)

    # --- derived quantities ----------------------------------------------
    def rank(self) -> int:
        return hnf_basis(self.to_field()).nrows

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


def _hnf_rows(ring: Ring, rows, ncols: int, track: bool):
    """Shared elimination kernel.

    Returns (reduced rows, transform rows or None, rank).  The reduced
    rows hold the canonical Hermite form on top and exact zero rows
    below; when ``track`` is set, the returned transform U is a square
    matrix, invertible over the ring, with U * input = reduced.
    """
    A = [list(r) for r in rows]
    m = len(A)
    post = _post_fn(ring)
    if post:
        A = [post(r) for r in A]
    U = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)] if track else None
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
            if track:
                U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            b = A[i][c]
            if not b:
                continue
            a = A[r][c]
            q = try_div(b, a)
            if q is not None:
                Ar, Ai = A[r], A[i]
                Ai[c:] = [x - q * y for x, y in zip(Ai[c:], Ar[c:])]
                if post:
                    A[i] = post(Ai)
                if track:
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                    if post:
                        U[i] = post(U[i])
            else:
                g, s, t = gcdex(a, b)
                af = exact_div(a, g)
                bf = exact_div(b, g)
                Ar, Ai = A[r], A[i]
                tail_r = [s * x + t * y for x, y in zip(Ar[c:], Ai[c:])]
                tail_i = [af * y - bf * x for x, y in zip(Ar[c:], Ai[c:])]
                Ar[c:] = tail_r
                Ai[c:] = tail_i
                if post:
                    A[r] = post(Ar)
                    A[i] = post(Ai)
                if track:
                    Ur, Ui = U[r], U[i]
                    new_r = [s * x + t * y for x, y in zip(Ur, Ui)]
                    new_i = [af * y - bf * x for x, y in zip(Ur, Ui)]
                    U[r] = post(new_r) if post else new_r
                    U[i] = post(new_i) if post else new_i
        # normalize the pivot to its canonical associate
        u_, _canon = ring.canonicalize_unit(A[r][c])
        if u_ != one:
            A[r] = [u_ * x for x in A[r]]
            if post:
                A[r] = post(A[r])
            if track:
                U[r] = [u_ * x for x in U[r]]
                if post:
                    U[r] = post(U[r])
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
                if track:
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                    if post:
                        U[i] = post(U[i])
        r += 1
        if r == m:
            break
    return A, U, r


def hnf(mat: Matrix) -> tuple[Matrix, Matrix]:
    """Canonical row Hermite normal form.

    Returns (h, u) where u is square and invertible over the ring,
    u * mat agrees with h on the first h.nrows rows and is zero below,
    and h is the canonical representative of the row space: equality of
    row spaces (as sublattices) is equality of Hermite forms.
    """
    A, U, r = _hnf_rows(mat.ring, mat.rows, mat.ncols, track=True)
    h = Matrix._owning(mat.ring, A[:r], mat.ncols)
    u = Matrix._owning(mat.ring, U, mat.nrows)
    return h, u


def hnf_basis(mat: Matrix) -> Matrix:
    """Hermite form only, skipping the transform bookkeeping."""
    A, _, r = _hnf_rows(mat.ring, mat.rows, mat.ncols, track=False)
    return Matrix._owning(mat.ring, A[:r], mat.ncols)


def left_kernel_rows(mat: Matrix) -> list[list]:
    """Basis rows of { x : x * mat = 0 }, already saturated."""
    A, U, r = _hnf_rows(mat.ring, mat.rows, mat.ncols, track=True)
    ker, _, k = _hnf_rows(mat.ring, U[r:], mat.nrows, track=False)
    return ker[:k]


def snf(mat: Matrix) -> tuple[list, Matrix, Matrix]:
    """Smith normal form: returns (divisors, u, v) with u*mat*v diagonal.

    The divisors are canonical associates forming a divisibility chain
    d1 | d2 | ...; over Z[S^-1] all inverted primes are stripped so
    units have unit divisors, and over a field every divisor is 1.
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
    A = [list(r) for r in rows]
    m = len(A)
    n = ncols
    post = _post_fn(ring)
    if post:
        A = [post(r) for r in A]
    U = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)] if track else None
    V = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)] if track else None
    try_div = ring.try_exact_div
    gcdex = ring.gcdex
    exact_div = ring.exact_div

    def row_combine(r, i, c):
        """Clear A[i][c] against pivot A[r][c] via a unimodular row pair."""
        a, b = A[r][c], A[i][c]
        q = try_div(b, a)
        if q is not None:
            A[i] = [x - q * y for x, y in zip(A[i], A[r])]
            if post:
                A[i] = post(A[i])
            if track:
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                if post:
                    U[i] = post(U[i])
            return
        g, s, t = gcdex(a, b)
        af, bf = exact_div(a, g), exact_div(b, g)
        Ar, Ai = A[r], A[i]
        A[r] = [s * x + t * y for x, y in zip(Ar, Ai)]
        A[i] = [af * y - bf * x for x, y in zip(Ar, Ai)]
        if post:
            A[r], A[i] = post(A[r]), post(A[i])
        if track:
            Ur, Ui = U[r], U[i]
            U[r] = [s * x + t * y for x, y in zip(Ur, Ui)]
            U[i] = [af * y - bf * x for x, y in zip(Ur, Ui)]
            if post:
                U[r], U[i] = post(U[r]), post(U[i])

    def col_combine(c, j, r):
        """Clear A[r][j] against pivot A[r][c] via a unimodular column pair."""
        a, b = A[r][c], A[r][j]
        q = try_div(b, a)
        if q is not None:
            for row in A:
                row[j] = row[j] - q * row[c]
            if track:
                for row in V:
                    row[j] = row[j] - q * row[c]
        else:
            g, s, t = gcdex(a, b)
            af, bf = exact_div(a, g), exact_div(b, g)
            for row in A:
                x, y = row[c], row[j]
                row[c] = s * x + t * y
                row[j] = af * y - bf * x
            if track:
                for row in V:
                    x, y = row[c], row[j]
                    row[c] = s * x + t * y
                    row[j] = af * y - bf * x
        if post:
            for idx in range(m):
                A[idx] = post(A[idx])
            if track:
                for idx in range(n):
                    V[idx] = post(V[idx])

    t_idx = 0
    while True:
        # locate a pivot in the unfinished block
        piv = None
        for i in range(t_idx, m):
            for j in range(t_idx, n):
                if A[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != t_idx:
            A[t_idx], A[i] = A[i], A[t_idx]
            if track:
                U[t_idx], U[i] = U[i], U[t_idx]
        if j != t_idx:
            for row in A:
                row[t_idx], row[j] = row[j], row[t_idx]
            if track:
                for row in V:
                    row[t_idx], row[j] = row[j], row[t_idx]
        while True:
            for i in range(t_idx + 1, m):
                if A[i][t_idx]:
                    row_combine(t_idx, i, t_idx)
            dirty = False
            for j in range(t_idx + 1, n):
                if A[t_idx][j]:
                    col_combine(t_idx, j, t_idx)
                    dirty = True
            if dirty:
                # column work may reintroduce entries below the pivot
                if any(A[i][t_idx] for i in range(t_idx + 1, m)):
                    continue
            # force the divisibility chain: pivot must divide the rest
            a = A[t_idx][t_idx]
            offender = None
            for i in range(t_idx + 1, m):
                row = A[i]
                for j in range(t_idx + 1, n):
                    if row[j] and try_div(row[j], a) is None:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t_idx] = [x + y for x, y in zip(A[t_idx], A[offender])]
            if post:
                A[t_idx] = post(A[t_idx])
            if track:
                U[t_idx] = [x + y for x, y in zip(U[t_idx], U[offender])]
                if post:
                    U[t_idx] = post(U[t_idx])
        u_, _ = ring.canonicalize_unit(A[t_idx][t_idx])
        if u_ != ring.one:
            A[t_idx] = [u_ * x for x in A[t_idx]]
            if post:
                A[t_idx] = post(A[t_idx])
            if track:
                U[t_idx] = [u_ * x for x in U[t_idx]]
                if post:
                    U[t_idx] = post(U[t_idx])
        t_idx += 1
        if t_idx == m or t_idx == n:
            break
    divisors = [A[i][i] for i in range(min(m, n)) if i < t_idx and A[i][i]]
    return divisors, U, V


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
