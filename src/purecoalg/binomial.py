"""Binomial-ring conditions on finite algebra presentations.

A torsion-free ring is binomial when, at every rational prime p, the
reduction A/pA is reduced and all of its residue fields are F_p.  Both
conditions are decidable by linear algebra over F_p: the nilradical is
the kernel of an iterated Frobenius, and a finite reduced commutative
F_p-algebra is a product of copies of F_p exactly when the Frobenius is
the identity on it.  The property quantifies over all primes; this
module checks a finite list and reports verdicts per tested prime, never
claiming the unqualified property.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import AlgebraPresentation
from .errors import UnsupportedRing
from .lattice import Lattice, kernel_lattice
from .matrix import Matrix
from .rings import reduce_rows_mod_p

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)


def algebra_mod_p(a: AlgebraPresentation, p: int) -> AlgebraPresentation:
    """Reduction A/pA as an algebra over F_p."""
    if a.ring.kind not in ("Z", "ZS"):
        raise UnsupportedRing("reduction mod p needs an algebra over Z or Z[S^-1]")
    mult = a.mult.reduce_mod(p)
    unit = reduce_rows_mod_p(a.ring, [a.unit], p)[0]
    return AlgebraPresentation(mult.ring, a.rank, mult, unit, basis_names=a.basis_names)


def frobenius_matrix(ap: AlgebraPresentation) -> Matrix:
    """Matrix of x -> x^p on an F_p-algebra (rows are e_i^p)."""
    if ap.ring.kind != "Fp":
        raise UnsupportedRing("the Frobenius matrix needs a prime-field algebra")
    p = ap.ring.p
    rows = []
    for i in range(ap.rank):
        e = [ap.ring.one if t == i else ap.ring.zero for t in range(ap.rank)]
        rows.append(ap.power(e, p))
    return Matrix(ap.ring, rows, ap.rank)


def iterated_frobenius(fro: Matrix) -> Matrix:
    """The Frobenius matrix raised to the k-th power, for the least k with p^k >= rank.

    On a finite F_p-algebra this power kills exactly the nilradical, so
    its kernel is the nilradical and its rank is the dimension of the
    semisimple quotient.
    """
    p = fro.ring.p
    power = fro
    size = p
    while size < fro.nrows:
        power = power * fro
        size *= p
    return power


def nilradical_mod_p(a: AlgebraPresentation, p: int) -> Lattice:
    """Nilradical of A/pA: the kernel of Frobenius iterated past the rank."""
    a.require_valid()
    ap = algebra_mod_p(a, p)
    if ap.rank == 0:
        return Lattice.zero(ap.ring, 0)
    return kernel_lattice(iterated_frobenius(frobenius_matrix(ap)))


@dataclass
class BinomialPrimeResult:
    p: int
    reduced: bool
    residue_fields_prime: bool
    nilradical_rank: int

    @property
    def verdict(self) -> bool:
        return self.reduced and self.residue_fields_prime

    def __str__(self):
        return (
            f"p={self.p}: reduced={'yes' if self.reduced else 'no'}"
            f" (nilradical rank {self.nilradical_rank}),"
            f" residue fields F_p={'yes' if self.residue_fields_prime else 'no'}"
            f" -> {'ok' if self.verdict else 'fails'}"
        )


@dataclass
class BinomialReport:
    tested_primes: tuple
    results: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.verdict for r in self.results)

    def __str__(self):
        lines = [str(r) for r in self.results]
        status = "binomial" if self.all_pass else "not binomial"
        primes = ", ".join(str(p) for p in self.tested_primes)
        lines.append(f"verdict: {status} up to the tested primes {{{primes}}}")
        return "\n".join(lines)


def binomial_check(a: AlgebraPresentation, primes=DEFAULT_PRIMES) -> BinomialReport:
    """Test the two binomial conditions at every prime in the list.

    Condition one at p is emptiness of the nilradical of A/pA; condition
    two asks that the Frobenius equal the identity on the reduced
    quotient, which characterizes products of copies of F_p without
    enumerating maximal ideals.
    """
    a.require_valid()
    results = []
    for p in primes:
        ap = algebra_mod_p(a, p)
        if ap.rank == 0:
            results.append(BinomialPrimeResult(p, True, True, 0))
            continue
        fro = frobenius_matrix(ap)
        nil = kernel_lattice(iterated_frobenius(fro))
        reduced = nil.rank == 0
        proj, section = nil.complement_projection()
        quotient_frobenius = section * fro * proj
        residue_ok = quotient_frobenius == Matrix.identity(ap.ring, proj.ncols)
        results.append(BinomialPrimeResult(p, reduced, residue_ok, nil.rank))
    return BinomialReport(tuple(primes), tuple(results))
