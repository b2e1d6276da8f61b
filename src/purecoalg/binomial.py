"""Binomial-ring conditions on finite algebra presentations.

A torsion-free ring is binomial when, at every rational prime p, the
reduction A/pA is reduced and all of its residue fields are F_p.  Both
conditions are read off the Frobenius F (x -> x^p, an F_p-linear map)
of A/pA and its powers.  Let n be the rank and k the least integer
with p^k >= n.  A nilpotent x has x^n = 0, and the Frobenius is
injective on a reduced algebra, so ker F^k is the nilradical: the
nilradical has rank n - rank(F^k), and A/pA is reduced exactly when
rank(F^k) = n.  A finite reduced commutative F_p-algebra is a product
of copies of F_p exactly when its Frobenius is the identity, so all
residue fields of A/pA are F_p exactly when F - 1 maps A/pA into
ker F^k, that is when F^{k+1} = F^k.  F is built at each prime from the
nonzero structure constants read off the blocks of the dual coalgebra
the presentation holds, reduced mod p, so neither a dense
multiplication table nor the algebra A/pA is formed, and the
nilradical is read only through its rank.  The property quantifies
over all primes; this module checks a finite list and reports verdicts
per tested prime, never claiming the unqualified property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coalgebra import AlgebraPresentation
from .errors import UnsupportedRing
from .matrix import Matrix
from .rings import prime_field, reduce_rows_mod_p

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)


def _flat_constants(a: AlgebraPresentation):
    """(positions, values): the nonzero structure constants of A, numbered in one flat list.

    ``positions[i * n + j]`` lists (t, m), t ascending, for each nonzero
    coefficient values[m] of e_t in e_i * e_j, read off the dual's block
    X_t as X_t[i][j] / D.  Reducing mod p changes only values.
    """
    c, n = a.dual, a.rank
    scale = c.ring.one if c.denom == 1 else Fraction(1, c.denom)
    positions = [[] for _ in range(n * n)]
    values = []
    for t, block in enumerate(c.blocks):
        for i, row in block.items():
            for j, v in row:
                positions[i * n + j].append((t, len(values)))
                values.append(scale * v)
    return positions, values


def _values_mod_p(a: AlgebraPresentation, p: int, values) -> list:
    """The values of ``_flat_constants`` mod p, reduced by one ``reduce_rows_mod_p`` call.

    The ring is checked first, then that call checks that p is a prime
    below 2**64 and that the ring does not invert it.
    """
    if a.ring.kind not in ("Z", "ZS"):
        raise UnsupportedRing("reduction mod p needs an algebra over Z or Z[S^-1]")
    return reduce_rows_mod_p(a.ring, [values], p)[0]


def _frobenius(positions, values, n: int, p: int) -> Matrix:
    """Matrix of x -> x^p on the F_p-algebra with these structure constants (rows are e_i^p).

    The constants are ``_flat_constants`` with residues mod p as values.
    Each e_i^p is taken by left-to-right binary powering: square, then
    multiply by e_i on a one bit, which walks only the products with e_i.
    """

    def times(x, y):
        acc = [0] * n
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                at = i * n
                for j, yj in ys:
                    coeff = xi * yj
                    for t, m in positions[at + j]:
                        acc[t] += coeff * values[m]
        return [v % p for v in acc]

    bits = bin(p)[3:]
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        x = e
        for bit in bits:
            x = times(x, x)
            if bit == "1":
                x = times(x, e)
        rows.append(x)
    return Matrix(prime_field(p), rows, n)


def frobenius_matrix(ap: AlgebraPresentation) -> Matrix:
    """Matrix of x -> x^p on an F_p-algebra (rows are e_i^p)."""
    if ap.ring.kind != "Fp":
        raise UnsupportedRing("the Frobenius matrix needs a prime-field algebra")
    return _frobenius(*_flat_constants(ap), ap.rank, ap.ring.p)


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

    With F the Frobenius of A/pA and F^k its power past the rank,
    condition one at p is rank(F^k) = n (the nilradical ker F^k is
    zero), and condition two is F^{k+1} = F^k (the Frobenius is the
    identity on the reduced quotient), which characterizes products of
    copies of F_p without enumerating maximal ideals.  The axioms are
    checked once per algebra and its dual, which share the verdict.
    """
    a.require_valid()
    n = a.rank
    positions, integral = _flat_constants(a)
    results = []
    for p in primes:
        values = _values_mod_p(a, p, integral)
        if n == 0:
            results.append(BinomialPrimeResult(p, True, True, 0))
            continue
        fro = _frobenius(positions, values, n, p)
        power = iterated_frobenius(fro)
        nil_rank = n - power.rank()
        results.append(BinomialPrimeResult(p, nil_rank == 0, power * fro == power, nil_rank))
    return BinomialReport(tuple(primes), tuple(results))
