"""Sub-lattices of R^n in canonical Hermite form.

A Lattice is a finitely generated submodule of the free module R^n,
stored by its canonical Hermite basis, so lattice equality is equality
of bases.  The operations here are the purity toolkit: saturation (the
smallest pure overlattice), intersections, a purity verdict decided
once per lattice by two cross-checked tests, membership with
certificates, quotient projections and sections, and Kronecker
products under the fixed row-major basis ordering
e_i (x) e_j -> i*n2 + j.

Purity of N in R^n means r*N = r*R^n `intersect` N for every scalar r;
over the supported rings that is exactly "all elementary divisors of a
basis are units", and equivalently "every pivot of the Hermite form of
the transposed basis is a unit".  Both are computed and compared, and
only an impure lattice factors a number: its largest divisor, to name
the least prime at which reduction fails to inject.

Over Q and Z[S^-1] a lattice keeps, next to its canonical basis, a
cleared integer copy: each basis row times the lcm of its denominators,
a unit of the ring.  Membership, coordinates, the Smith test of purity
and the quotient all work on that copy in integers; a coordinate
becomes a Fraction only when it is returned.

Quotients and saturation read one held Hermite transform U of the
transposed cleared basis, U * B^T = [H; 0], taken once per lattice,
and whether every pivot of H is a unit of the ring (Cohen, GTM 138,
2.4).  With V = U^T, B * V = [H^T | 0]: the last n - r columns of V
are the integral projection, whose kernel over the ring is the
saturation; the lattice is pure exactly when those pivots are units,
and then the rows r.. of V^-1 are a section of the projection and
V[:, :r] * (B * V[:, :r])^-1 one of the basis.  A saturation inherits
the transform, marked pure.  Kernels over every ring are formed once,
in ``kernel_lattice``.  No Smith transform is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import AmbientMismatch, NotPure, RingMismatch
from .matrix import Matrix, _fractions, elementary_divisors, from_integer_hermite, hnf, hnf_basis, left_kernel_rows
from .numtheory import factorize
from .rings import ZZ, Ring

_UNSET = object()


class Lattice:
    __slots__ = ("ring", "ambient_rank", "basis", "_pivots", "_cleared", "_transform", "_purity")

    def __init__(self, ring: Ring, ambient_rank: int, basis: Matrix):
        if basis.ncols != ambient_rank:
            raise AmbientMismatch(f"basis has {basis.ncols} columns in ambient rank {ambient_rank}")
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.basis = basis
        self._pivots = None
        self._cleared = _UNSET
        self._transform = None
        self._purity = None

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
    def _integral(self):
        """``ring.cleared`` of the basis, built once: (scales, integer rows) over Q and Z[S^-1], None over Z and F_p."""
        if self._cleared is _UNSET:
            self._cleared = self.ring.cleared(self.basis.rows)
        return self._cleared

    def _integer_basis(self) -> Matrix:
        """The basis, cleared over Q and Z[S^-1] to an integer matrix with the same row module."""
        integral = self._integral()
        return self.basis if integral is None else Matrix(ZZ, integral[1], self.ambient_rank)

    def _pivot_columns(self) -> list[int]:
        if self._pivots is None:
            self._pivots = self.basis.pivot_columns()
        return self._pivots

    def solve(self, vector):
        """Coordinates of the vector in the Hermite basis, or None.

        Walking the pivots in order keeps earlier pivot columns intact,
        so a single pass decides membership and produces the coefficient
        vector at the same time.
        """
        if len(vector) != self.ambient_rank:
            raise AmbientMismatch(f"vector of length {len(vector)} in ambient rank {self.ambient_rank}")
        ring = self.ring
        if self._integral() is not None:
            (scale,), (ints,) = ring.cleared([vector])
            return self._walk(ints, scale, True)
        v = list(vector)
        coords = []
        for row, pc in zip(self.basis.rows, self._pivot_columns()):
            c = v[pc]
            if not c:
                coords.append(ring.zero)
                continue
            q = ring.try_exact_div(c, row[pc])
            if q is None:
                return None
            coords.append(q)
            v = ring.reduce_row([x - q * y for x, y in zip(v, row)])
        return None if any(v) else coords

    def _walk(self, v, denom: int, coords: bool):
        """``solve`` of v / denom over Q or Z[S^-1], for an integer row v and a positive integer denom.

        With basis row k equal to N_k / d_k and pivot P = N_k[pc], the
        coordinate of the remainder w / denom is w[pc] * d_k / (denom * P),
        which must lie in the ring; the remainder then becomes
        (P * w - w[pc] * N_k) / (denom * P), with the gcd of P and w[pc]
        divided out.  Only the coordinates are Fractions, and only when
        ``coords`` is set; otherwise a member gives [].
        """
        ring = self.ring
        scales, ints = self._integral()
        out = []
        for d, row, pc in zip(scales, ints, self._pivot_columns()):
            c = v[pc]
            if not c:
                if coords:
                    out.append(ring.zero)
                continue
            p = row[pc]
            num, den = c * d, denom * p
            g = math.gcd(num, den)
            if not ring.is_unit(den // g):
                return None
            if coords:
                out.append(Fraction(num // g, den // g))
            g = math.gcd(p, c)
            p, c = p // g, c // g
            v = [p * x - c * y for x, y in zip(v, row)]
            denom *= p
        return None if any(v) else out

    def contains(self, vector) -> bool:
        return self.solve(vector) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        self._check_compatible(other)
        integral = other._integral()
        if integral is None:
            return all(self.contains(row) for row in other.basis.rows)
        # each row of other is its cleared row times a unit
        return all(self._walk(row, 1, False) is not None for row in integral[1])

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

        The kernel over the ring of the integral projection: the integral
        points of the rational row span.  Rank is preserved; over a field
        and for pure input this is the lattice itself.  The saturation
        inherits the held transform, marked pure, so its projection is
        this lattice's, computed once.
        """
        if self.ring.is_field or self.rank == 0:
            return self
        if self.rank == self.ambient_rank:
            return Lattice.full(self.ring, self.ambient_rank)
        v, proj, pure = self._hermite()
        if pure:
            return self
        out = kernel_lattice(Matrix(v.ring, proj, self.ambient_rank - self.rank), self.ring)
        out._transform = (v, proj, True)
        return out

    def is_pure(self):
        """(flag, witness): purity decided two independent ways, once per lattice.

        The held Hermite transform says whether every pivot of H is a
        unit; one Smith form of the cleared basis says whether every
        elementary divisor is.  The two verdicts are cross-checked, and
        the verdict is held.  The divisors form a chain d_1 | ... | d_r,
        so every prime of a divisor's S-free part divides that of d_r,
        and reduction mod each of them drops the rank: the witness of an
        impure lattice, the least prime at which reduction fails to
        inject, is the least prime of d_r, found with one ``factorize``.
        """
        if self.ring.is_field or self.rank == 0:
            return True, None
        if self._purity is None:
            ring = self.ring
            # over Z[S^-1] the test reads: the divisors of the cleared basis are S-smooth
            divs = elementary_divisors(self._integer_basis())
            pure = all(ring.is_unit(d) for d in divs)
            if pure != self._hermite()[2]:
                raise AssertionError("purity tests disagree: Smith divisors vs Hermite pivots")
            witness = None if pure else min(factorize(int(ring.canonicalize_unit(divs[-1])[1])))
            self._purity = (pure, witness)
        return self._purity

    def kron(self, other: "Lattice") -> "Lattice":
        """Kronecker product lattice under the row-major ordering."""
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return Lattice(
            self.ring,
            self.ambient_rank * other.ambient_rank,
            hnf_basis(self.basis.kron(other.basis)),
        )

    # --- quotients -------------------------------------------------------
    def _hermite(self):
        """(V, P, pure), held: V = U^T for the Hermite transform U * B^T = [H; 0] of the cleared basis B.

        P is the last n - r columns of V as rows, and pure says that every
        pivot of H is a unit of the ring.  Over Q and Z[S^-1] V is an
        integer matrix; over F_p its entries are residues.
        """
        if self._transform is None:
            h, u = hnf(self._integer_basis().transpose())
            v = u.transpose()
            pure = all(self.ring.is_unit(row[k]) for k, row in enumerate(h.rows))
            self._transform = (v, [row[self.rank:] for row in v.rows], pure)
        return self._transform

    def _pure_transform(self, need: str) -> Matrix:
        v, _, pure = self._hermite()
        if not pure:
            raise NotPure(f"{need} requires a pure lattice")
        return v

    def _in_ring(self, rows) -> list:
        """Integer rows as rows over the ring: Fractions over Q and Z[S^-1]."""
        return rows if self._integral() is None else [_fractions(row, 1) for row in rows]

    def complement_projection(self):
        """(projection, section) for the quotient by a pure lattice.

        Purity makes the quotient free, so there is an integral matrix P
        of shape n x (n - r) with x*P = 0 exactly on the lattice, and a
        section s with s*P = I: P is the integral projection, the last
        n - r columns of the held V, and s the last n - r rows of V^-1.
        A pivot of H that is not a unit raises NotPure.
        """
        n, r = self.ambient_rank, self.rank
        v = self._pure_transform("quotient projection")
        proj = Matrix(self.ring, self._in_ring(self.integral_projection()), n - r)
        return proj, Matrix(self.ring, self._in_ring(v.inverse().rows[r:]), n)

    def section(self) -> Matrix:
        """An n x r matrix T over the ring with B * T = I, for the basis B of a pure lattice.

        With W the first r columns of the held V, B * W is invertible over
        the ring exactly when the lattice is pure, and T = W * (B * W)^-1;
        over Z and F_p, B * W is the identity.
        """
        r = self.rank
        w = Matrix(self.ring, self._in_ring([row[:r] for row in self._pure_transform("a section").rows]), r)
        return w * (self.basis * w).inverse()

    def integral_projection(self) -> list:
        """Rows of an integral n x (n - r) matrix P with x * P = 0 exactly on the saturation.

        The transposed rows r.. of U kill the basis B, and U is
        invertible, so their kernel is the pure lattice of rank r
        containing this one: its saturation.  Over Q and Z[S^-1] B is the
        cleared integer basis, which spans the same module, and P is an
        integer matrix; over F_p the entries are residues.
        """
        return self._hermite()[1]


def kernel_lattice(mat: Matrix, ring: Ring = None) -> Lattice:
    """Lattice over the ring (the matrix's own by default) of all vectors x with x * mat = 0.

    Kernels of maps into torsion-free modules are pure, so the result
    is always saturated.  A matrix over Z may have its kernel taken over
    Q or Z[S^-1], as its span there: the integer Hermite rows of the
    kernel go straight to the boundary pass that makes them canonical.
    """
    rows = left_kernel_rows(mat)
    if ring is None or ring == mat.ring:
        return Lattice(mat.ring, mat.nrows, Matrix(mat.ring, rows, mat.nrows))
    return Lattice(ring, mat.nrows, from_integer_hermite(ring, rows, mat.nrows))


def solve_in_rows(mat: Matrix, vector):
    """Solve x * mat = vector over the ring, against the rows as given.

    Returns a coefficient vector or None when the vector does not lie in
    the row lattice; when the rows are independent the solution is
    unique.  Unlike ``Lattice.solve`` this expresses the solution
    against the original rows, not against their Hermite form.
    """
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
