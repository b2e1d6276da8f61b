"""Binomial-ring conditions on finite algebra presentations.

A torsion-free ring is binomial when, at every rational prime p, the
reduction A/pA is reduced and all of its residue fields are F_p.  Both
conditions are read off the Frobenius F (x -> x^p, an F_p-linear map)
of A/pA and its powers.  Let n be the rank and k_p the least integer
k >= 1 with p^k >= n.  A nilpotent x has x^n = 0, and the Frobenius is
injective on a reduced algebra, so ker F^K is the nilradical for every
K >= k_p: the nilradical has rank n - rank(F^K), and A/pA is reduced
exactly when rank(F^K) = n.  A finite reduced commutative F_p-algebra
is a product of copies of F_p exactly when its Frobenius is the
identity, so all residue fields of A/pA are F_p exactly when F is the
identity on the stable image F^K(A/pA), that is when F^{K+1} = F^K;
the stable image, and so the verdict, is the same for every K >= k_p.
F is built at each prime from the nonzero structure constants read off
the blocks of the dual coalgebra the presentation holds, reduced mod p,
so neither a dense multiplication table nor the algebra A/pA is formed,
and the nilradical is read only through its rank.  The property
quantifies over all primes; this module checks a finite list and
reports verdicts per tested prime, never claiming the unqualified
property.

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
powering (``_frobenius``) and forms a group of its own with M = p.

Each group of primes is decided together.  The chain's rows are
combined by CRT into one matrix F~ over Z/M with F~ = F mod each of its
primes; with K the least power of two >= every k_p of the group,
G = F~^K takes log2(K) squarings and G * F~ one more product, all mod M
(``_product``, on packed rows).  At each prime p of the group, condition
two holds when p divides the gcd of M and every entry of G * F~ - G,
and the nilradical has rank n - rank(G mod p), one forward elimination
pass per distinct prime.  At rank 12 and the primes 2-13 that is three
products over Z/30030 and six ranks.
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


def _chained_frobenius(c: Coalgebra, primes) -> tuple:
    """(M, rows of F~): one Frobenius over Z/M for ascending distinct primes, from one chain per basis element.

    c holds the algebra as its dual: e_j * e_i has coefficient X_t[j][i]
    / D at e_t.  The chain e_i, e_i^2, e_i^3, ... runs in Z/M, M the
    product of the primes, with D^-1 taken mod M; each step multiplies by
    e_i, so it walks only column i of the constants.  Row i of F~ is the
    sum over p of u_p * e_i^p, u_p the CRT idempotent (1 mod p, 0 mod the
    other primes), taken mod M, so F~ mod p is the Frobenius of A/pA.  A
    power that repeats its predecessor is a fixed point of x -> x * e_i,
    so the chain stops there.
    """
    n, m = c.rank, math.prod(primes)
    scale = pow(c.denom, -1, m)
    columns = [{} for _ in range(n)]
    for t, block in enumerate(c.blocks):
        for j, row in block.items():
            for i, v in row:
                columns[i].setdefault(j, []).append((t, v))
    top = primes[-1]
    idempotents = [(p, m // p * pow(m // p, -1, p)) for p in primes]
    rows = []
    for i, column in enumerate(columns):
        x, k = [int(t == i) for t in range(n)], 1
        row = [0] * n
        for p, u in idempotents:
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
            row = [r + u * v for r, v in zip(row, x)]
        rows.append([r % m for r in row])
    return m, rows


def _frobenius_groups(c: Coalgebra, primes) -> list:
    """[(primes, M, rows of F~)]: the distinct primes in groups, each with one Frobenius over Z/M.

    The primes ``_on_chain`` picks share one chain and M is their
    product; every other prime is a group of its own with M = p, taken by
    binary powering (``_frobenius``) on the constants X * D^-1 mod p.  In
    each group F~ mod p is the Frobenius of A/pA, A the dual algebra of
    c.  The primes must already be checked (``_check_primes``).
    """
    n = c.rank
    chained = _on_chain(n, primes)
    groups = [(chained, *_chained_frobenius(c, chained))] if chained else []
    far = [p for p in dict.fromkeys(primes) if p not in chained]
    if far:
        positions, values = _flat_constants(c)
        for p in far:
            scale = pow(c.denom, -1, p)
            groups.append(([p], p, _frobenius(positions, [v * scale % p for v in values], n, p).rows))
    return groups


def _product(a, b, m: int) -> list:
    """a * b mod m, for square row lists with entries in [0, m).

    Each row of b is packed into one int with slot width w, the bit
    length of n * (m - 1)^2, which bounds every entry of the integer
    product, so a row of a * b is one multiply-add per nonzero entry of
    the row of a, and its slots are read back and reduced mod m.
    """
    n = len(b)
    w = max((n * (m - 1) ** 2).bit_length(), 1)  # rank 0 has no slots
    mask = (1 << w) - 1
    packed = []
    for row in b:
        acc = 0
        for v in reversed(row):
            acc = acc << w | v
        packed.append(acc)
    shifts = range(0, n * w, w)
    out = []
    for arow in a:
        acc = 0
        for x, y in zip(arow, packed):
            if x:
                acc += x * y
        out.append([(acc >> s & mask) % m for s in shifts])
    return out


def _stable_power(rows, m: int, q: int, n: int) -> list:
    """F^K mod m by squaring the rows of F, K the least power of two with q^K >= n.

    With q the least prime of a group, K >= k_p at every prime p of it.
    """
    power, k = rows, 1
    while q**k < n:
        power, k = _product(power, power, m), 2 * k
    return power


def frobenius_matrix(ap: AlgebraPresentation) -> Matrix:
    """Matrix of x -> x^p on an F_p-algebra (rows are e_i^p)."""
    if ap.ring.kind != "Fp":
        raise UnsupportedRing("the Frobenius matrix needs a prime-field algebra")
    p = ap.ring.p
    ((_, _, rows),) = _frobenius_groups(ap.dual, (p,))
    return Matrix._owning(ap.ring, rows, ap.rank)


def stable_frobenius(ap: AlgebraPresentation) -> Matrix:
    """The Frobenius of an F_p-algebra raised to the least power of two K with p^K >= rank.

    On a finite F_p-algebra every power F^K with p^K >= rank kills
    exactly the nilradical, so its kernel is the nilradical and its rank
    is the dimension of the semisimple quotient.
    """
    p = ap.ring.p
    return Matrix._owning(ap.ring, _stable_power(frobenius_matrix(ap).rows, p, p, ap.rank), ap.rank)


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

    At p, with F the Frobenius of A/pA and k the least integer >= 1 with
    p^k >= n, condition one is rank(F^k) = n (the nilradical ker F^k is
    zero), and condition two is F^{k+1} = F^k (the Frobenius is the
    identity on the reduced quotient), which characterizes products of
    copies of F_p without enumerating maximal ideals.  Both hold for every
    K >= k in place of k: ker F^K is still the nilradical, and F^{K+1} =
    F^K says that F is the identity on the stable image F^K(A/pA), the
    same for every K >= k.  So one exponent serves a whole group of
    primes (``_frobenius_groups``): with F~ its Frobenius over Z/M and K
    the least power of two >= every k_p, G = F~^K takes log2(K) squarings
    and G * F~ one more product, mod M.  Condition two holds at p exactly
    when p divides the gcd of M and every entry of G * F~ - G, and the
    nilradical has rank n - rank(G mod p).  The axioms are checked once
    per algebra and its dual, which share the verdict.
    """
    a.require_valid()
    primes = tuple(primes)
    _check_primes(a, primes)
    n = a.rank
    results = {}
    for group, m, rows in _frobenius_groups(a.dual, primes):
        power = _stable_power(rows, m, min(group), n)
        step = _product(power, rows, m)
        moved = math.gcd(m, *(x - y for srow, prow in zip(step, power) for x, y in zip(srow, prow)))
        for p in group:
            nil_rank = n - Matrix._owning(prime_field(p), [[v % p for v in row] for row in power], n).rank()
            results[p] = BinomialPrimeResult(p, nil_rank == 0, moved % p == 0, nil_rank)
    return BinomialReport(primes, tuple(results[p] for p in primes))
