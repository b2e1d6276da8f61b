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

Row i of F is e_i^p mod p.  The rows for the tested primes come from one
chain e_i, e_i^2, e_i^3, ... per basis element, taken in Z/M with M the
product of the distinct primes the chain covers and the constants X/D
taken with D^-1 mod M; row i of F at p is the chain's k = p term mod p.
A step multiplies by e_i, so it walks one column of the constants,
where a squaring walks all of them.  A prime joins the chain when the
steps from the chain's last prime cost no more multiply-adds than
binary powering to it; both costs are multiples of the number of
nonzero constants, so the rule reads only the rank and bitlen(p)
(``_on_chain``).  Every other prime, up to 2**64, is taken by binary
powering (``_frobenius``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coalgebra import AlgebraPresentation, Coalgebra
from .errors import UnsupportedRing
from .matrix import Matrix
from .rings import prime_field, reduce_rows_mod_p

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)


def _flat_constants(c: Coalgebra):
    """(positions, values): the nonzero structure constants of the dual algebra of c, in one flat list.

    ``positions[i * n + j]`` lists (t, m), t ascending, for each nonzero
    coefficient values[m] / D of e_t in e_i * e_j, read off the block X_t
    as the integer X_t[i][j].  Reducing mod p changes only values.
    """
    n = c.rank
    positions = [[] for _ in range(n * n)]
    values = []
    for t, block in enumerate(c.blocks):
        for i, row in block.items():
            for j, v in row:
                positions[i * n + j].append((t, len(values)))
                values.append(v)
    return positions, values


def _check_primes(a: AlgebraPresentation, primes):
    """Refuse the first bad prime in list order, as reducing the constants mod p would.

    At each prime the ring is checked first, then ``reduce_rows_mod_p``
    checks that p is a prime below 2**64 and that the ring does not
    invert it; no denominator D of the constants then shares a factor
    with p.
    """
    for p in primes:
        if a.ring.kind not in ("Z", "ZS"):
            raise UnsupportedRing("reduction mod p needs an algebra over Z or Z[S^-1]")
        reduce_rows_mod_p(a.ring, [], p)


def _frobenius(positions, values, n: int, p: int) -> Matrix:
    """Matrix of x -> x^p on the F_p-algebra with these structure constants (rows are e_i^p).

    The constants are ``_flat_constants`` with residues mod p as values.
    Each e_i^p is taken by left-to-right binary powering: square, then
    multiply by e_i on a one bit, which walks only the products with e_i.
    This serves the primes off the chain (``_on_chain``).
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


def _on_chain(n: int, primes) -> list:
    """The distinct primes, ascending, whose Frobenius rows are read off the chain.

    With N nonzero constants, one chain step costs all n rows N
    multiply-adds (each row walks one column), and binary powering to p
    costs them about (n + 1) * (bitlen(p) - 1) * N: bitlen(p) - 1
    squarings of up to N each per row, and as many products with e_i.  A
    prime joins when the steps from the last prime on the chain (from 1
    for the first) cost no more; N cancels from both sides.
    """
    out, last = [], 1
    for p in sorted(set(primes)):
        if p - last <= (n + 1) * (p.bit_length() - 1):
            out.append(p)
            last = p
    return out


def _chained_frobenius(c: Coalgebra, primes) -> dict:
    """{p: matrix of x -> x^p mod p} for ascending distinct primes, from one chain per basis element.

    c holds the algebra as its dual: e_j * e_i has coefficient X_t[j][i]
    / D at e_t.  The chain e_i, e_i^2, e_i^3, ... runs in Z/M, M the
    product of the primes, with D^-1 taken mod M; each step multiplies by
    e_i, so it walks only column i of the constants, and row i of F_p is
    e_i^k mod p at k = p.  A power that repeats its predecessor is a fixed
    point of x -> x * e_i, so the chain stops there.
    """
    n, m = c.rank, math.prod(primes)
    scale = pow(c.denom, -1, m)
    columns = [{} for _ in range(n)]
    for t, block in enumerate(c.blocks):
        for j, row in block.items():
            for i, v in row:
                columns[i].setdefault(j, []).append((t, v))
    top = primes[-1]
    rows = {p: [] for p in primes}
    for i, column in enumerate(columns):
        x, k = [int(t == i) for t in range(n)], 1
        for p in primes:
            while k < p:
                acc = [0] * n
                for j, entries in column.items():
                    xj = x[j]
                    if xj:
                        for t, v in entries:
                            acc[t] += xj * v
                y = [v * scale % m for v in acc]
                k = top if y == x else k + 1
                x = y
            rows[p].append([v % p for v in x])
    return {p: Matrix(prime_field(p), r, n) for p, r in rows.items()}


def _frobenius_matrices(c: Coalgebra, primes) -> dict:
    """{p: Frobenius matrix of A/pA} for the distinct primes, A the dual algebra of c.

    The primes ``_on_chain`` picks share one chain; every other prime is
    taken by binary powering (``_frobenius``) on the constants X * D^-1
    mod p.  The primes must already be checked (``_check_primes``).
    """
    n = c.rank
    chained = _on_chain(n, primes)
    out = _chained_frobenius(c, chained) if chained else {}
    far = [p for p in dict.fromkeys(primes) if p not in out]
    if far:
        positions, values = _flat_constants(c)
        for p in far:
            scale = pow(c.denom, -1, p)
            out[p] = _frobenius(positions, [v * scale % p for v in values], n, p)
    return out


def frobenius_matrix(ap: AlgebraPresentation) -> Matrix:
    """Matrix of x -> x^p on an F_p-algebra (rows are e_i^p)."""
    if ap.ring.kind != "Fp":
        raise UnsupportedRing("the Frobenius matrix needs a prime-field algebra")
    p = ap.ring.p
    return _frobenius_matrices(ap.dual, (p,))[p]


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
    primes = tuple(primes)
    _check_primes(a, primes)
    n = a.rank
    fro = _frobenius_matrices(a.dual, primes) if n else {}
    results = {}
    for p in dict.fromkeys(primes):
        if n == 0:
            results[p] = BinomialPrimeResult(p, True, True, 0)
            continue
        power = iterated_frobenius(fro[p])
        nil_rank = n - power.rank()
        results[p] = BinomialPrimeResult(p, nil_rank == 0, power * fro[p] == power, nil_rank)
    return BinomialReport(primes, tuple(results[p] for p in primes))
