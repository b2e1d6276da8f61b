"""Sub-lattices of R^n in canonical Hermite form.

A Lattice is a finitely generated submodule of the free module R^n,
stored by its canonical Hermite basis, so lattice equality is equality
of bases.  The operations here are the purity toolkit: saturation (the
smallest pure overlattice), intersections, two cross-checked purity
tests, membership with certificates, quotient projections (the
integral one cached per lattice), and Kronecker products under the
fixed row-major basis ordering e_i (x) e_j -> i*n2 + j.

Purity of N in R^n means r*N = r*R^n `intersect` N for every scalar r;
over the supported rings that is exactly "all elementary divisors of a
basis are units", and equivalently "reduction mod p stays injective at
every prime p".  Both characterizations are computed and compared.
"""

from __future__ import annotations

from .errors import AmbientMismatch, NotPure, RingMismatch
from .matrix import Matrix, elementary_divisors, hnf_basis, left_kernel_rows, snf
from .numtheory import factorize
from .rings import Ring, cleared_rows


class Lattice:
    __slots__ = ("ring", "ambient_rank", "basis", "_pivots", "_projection")

    def __init__(self, ring: Ring, ambient_rank: int, basis: Matrix):
        if basis.ncols != ambient_rank:
            raise AmbientMismatch(f"basis has {basis.ncols} columns in ambient rank {ambient_rank}")
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.basis = basis
        self._pivots = None
        self._projection = None

    # --- constructors -------------------------------------------------
    @classmethod
    def from_rows(cls, ring: Ring, ambient_rank: int, rows) -> "Lattice":
        mat = Matrix(ring, rows, ambient_rank)
        return cls(ring, ambient_rank, hnf_basis(mat))

    @classmethod
    def zero(cls, ring: Ring, ambient_rank: int) -> "Lattice":
        return cls(ring, ambient_rank, Matrix(ring, [], ambient_rank))

    @classmethod
    def full(cls, ring: Ring, ambient_rank: int) -> "Lattice":
        return cls(ring, ambient_rank, Matrix.identity(ring, ambient_rank))

    # --- basic queries -------------------------------------------------
    @property
    def rank(self) -> int:
        return self.basis.nrows

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ring == other.ring
            and self.ambient_rank == other.ambient_rank
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ring, self.ambient_rank, self.basis))

    def __repr__(self):
        return f"Lattice(rank {self.rank} in {self.ring}^{self.ambient_rank})"

    def _check_compatible(self, other: "Lattice"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch(f"ambient ranks {self.ambient_rank} vs {other.ambient_rank}")

    # --- membership ------------------------------------------------------
    def solve(self, vector):
        """Coordinates of the vector in the Hermite basis, or None.

        Walking the pivots in order keeps earlier pivot columns intact,
        so a single pass decides membership and produces the coefficient
        vector at the same time.
        """
        if len(vector) != self.ambient_rank:
            raise AmbientMismatch(f"vector of length {len(vector)} in ambient rank {self.ambient_rank}")
        ring = self.ring
        v = list(vector)
        coords = []
        member = True
        if self._pivots is None:
            self._pivots = self.basis.pivot_columns()
        for row, pc in zip(self.basis.rows, self._pivots):
            c = v[pc]
            if not c:
                coords.append(ring.zero)
                continue
            q = ring.try_exact_div(c, row[pc])
            if q is None:
                member = False
                break
            coords.append(q)
            v = ring.reduce_row([x - q * y for x, y in zip(v, row)])
        if member and any(v):
            member = False
        return coords if member else None

    def contains(self, vector) -> bool:
        return self.solve(vector) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        self._check_compatible(other)
        return all(self.contains(row) for row in other.basis.rows)

    # --- lattice algebra ---------------------------------------------------
    def add(self, other: "Lattice") -> "Lattice":
        self._check_compatible(other)
        return Lattice.from_rows(self.ring, self.ambient_rank, self.basis.rows + other.basis.rows)

    def intersect(self, other: "Lattice") -> "Lattice":
        """All vectors lying in both lattices.

        A vector in the intersection is x*A = -y*B for an integral
        relation (x, y) of the stacked basis, and every relation arises
        from the saturated left kernel, so this is exact, not merely of
        finite index.
        """
        self._check_compatible(other)
        ra = self.rank
        stacked = self.basis.vstack(other.basis)
        rows = []
        for rel in left_kernel_rows(stacked):
            vec = [self.ring.zero] * self.ambient_rank
            for c, brow in zip(rel[:ra], self.basis.rows):
                if c:
                    vec = [x + c * y for x, y in zip(vec, brow)]
            rows.append(vec)
        out = Lattice.from_rows(self.ring, self.ambient_rank, rows)
        return out

    def saturate(self) -> "Lattice":
        """Smallest pure sub-lattice containing this one.

        Computed as the integral points of the rational row span: the
        left kernel of a right-kernel matrix.  Rank is preserved; over a
        field (and for already-pure input) this is the identity.
        """
        if self.ring.is_field or self.rank == 0:
            return self
        if self.rank == self.ambient_rank:
            return Lattice.full(self.ring, self.ambient_rank)
        cokernel = left_kernel_rows(self.basis.transpose())
        cmat = Matrix(self.ring, cokernel, self.ambient_rank).transpose()
        return kernel_lattice(cmat)

    def is_pure(self):
        """(flag, witness): purity decided two independent ways.

        Method one asks that every elementary divisor of the basis be a
        unit; method two reduces the basis mod p for each prime p
        dividing a divisor and asks that the rank not drop.  The two
        verdicts are cross-checked, and on failure the witness is a
        prime at which reduction fails to inject.
        """
        if self.ring.is_field or self.rank == 0:
            return True, None
        divs = elementary_divisors(self.basis)
        unit_ok = all(self.ring.is_unit(d) for d in divs)
        primes: set[int] = set()
        for d in divs:
            n = int(self.ring.to_fraction(d))
            if abs(n) != 1:
                primes.update(factorize(abs(n)))
        witness = None
        mod_ok = True
        for p in sorted(primes):
            reduced = self.basis.reduce_mod(p)
            if reduced.rank() < self.rank:
                mod_ok = False
                witness = p
                break
        if unit_ok != mod_ok:
            raise AssertionError("purity tests disagree: divisors vs reduction mod p")
        return unit_ok, witness

    def kron(self, other: "Lattice") -> "Lattice":
        """Kronecker product lattice under the row-major ordering."""
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return Lattice(
            self.ring,
            self.ambient_rank * other.ambient_rank,
            hnf_basis(self.basis.kron(other.basis)),
        )

    def reduce_mod(self, p: int) -> "Lattice":
        reduced = self.basis.reduce_mod(p)
        return Lattice.from_rows(reduced.ring, self.ambient_rank, reduced.rows)

    # --- quotients -------------------------------------------------------
    def complement_projection(self):
        """(projection, section) for the quotient by a pure lattice.

        Purity makes the quotient free, so there is an integral matrix P
        of shape n x (n - r) with x*P = 0 exactly on the lattice, and a
        section s with s*P = I.  Both come out of a Smith decomposition
        of the basis.
        """
        n = self.ambient_rank
        r = self.rank
        if r == 0:
            ident = Matrix.identity(self.ring, n)
            return ident, ident
        divs, _, v = snf(self.basis)
        if len(divs) != r or not all(self.ring.is_unit(d) for d in divs):
            raise NotPure("quotient projection requires a pure lattice")
        proj = Matrix(self.ring, [row[r:] for row in v.rows], n - r)
        vinv = v.inverse()
        section = Matrix(self.ring, vinv.rows[r:], n)
        return proj, section

    def integral_projection(self) -> list:
        """Rows of an integral n x (n - r) matrix P with x * P = 0 exactly on the saturation.

        The last n - r columns of the column transform V of a Smith
        decomposition B * V = U^-1 * [diag | 0] of the basis B kill the
        basis, and V is invertible, so their kernel is the pure lattice
        of rank r containing this one: its saturation.  Over Q and
        Z[S^-1] each column is cleared of denominators (a column scalar
        leaves the kernel alone); over F_p the entries are residues.
        Computed once per lattice.
        """
        if self._projection is None:
            n, r = self.ambient_rank, self.rank
            if r == 0:
                rows = [[int(i == j) for j in range(n)] for i in range(n)]
            else:
                _, _, v = snf(self.basis)
                cols = [cleared_rows([[row[j] for row in v.rows]])[1][0] for j in range(r, n)]
                rows = [list(row) for row in zip(*cols)] if cols else [[] for _ in range(n)]
            self._projection = rows
        return self._projection


def kernel_lattice(mat: Matrix) -> Lattice:
    """Lattice of all vectors x with x * mat = 0.

    Kernels of maps into torsion-free modules are pure, so the result
    is always saturated.
    """
    rows = left_kernel_rows(mat)
    return Lattice(mat.ring, mat.nrows, Matrix(mat.ring, rows, mat.nrows))


def solve_in_rows(mat: Matrix, vector):
    """Solve x * mat = vector over the ring, against the rows as given.

    Returns a coefficient vector or None when the vector does not lie in
    the row lattice; when the rows are independent the solution is
    unique.  Unlike ``Lattice.solve`` this expresses the solution
    against the original rows, not against their Hermite form.
    """
    from .matrix import hnf

    h, u = hnf(mat)
    coords = Lattice(mat.ring, mat.ncols, h).solve(vector)
    if coords is None:
        return None
    ring = mat.ring
    out = [ring.zero] * mat.nrows
    for c, urow in zip(coords, u.rows):
        if c:
            out = [x + c * y for x, y in zip(out, urow)]
    return ring.reduce_row(out)
