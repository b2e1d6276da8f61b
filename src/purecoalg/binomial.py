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
F is built from the nonzero structure constants of the dual coalgebra
the presentation holds, read through one column table
(``coalgebra.dual_columns``) with every product reduced mod p or mod M,
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
powering (``_frobenius``, each product ``coalgebra.dual_times`` times
D^-1 mod p) and forms a group of its own with M = p.

Each group of primes is decided together.  The chain's rows are
combined by CRT into one matrix F~ over Z/M with F~ = F mod each of its
primes; with K the least power of two >= every k_p of the group,
G = F~^K takes log2(K) squarings and G * F~ one more product, all mod M
(``_product``, on packed rows).  At each prime p of the group, condition
two holds when p divides the gcd of M and every entry of G * F~ - G,
and the nilradical has rank n - rank(G mod p), one forward elimination
pass per distinct prime.  At rank 12 and the primes 2-13 that is three
products over Z/30030 and six ranks.

The report is held on the dual coalgebra, like its other derived
invariants (``Coalgebra._derived``): one entry, the last tuple of primes
checked and its report, so checking the same primes again reads the
report back, and a loop over many prime lists holds one report at a
time.  Reports and their per-prime results are frozen, as every caller
shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coalgebra import AlgebraPresentation, Coalgebra, dual_columns, dual_times
from .errors import UnsupportedRing
from .matrix import Matrix
from .rings import prime_field, reduce_rows_mod_p

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13)


def _check_primes(a: AlgebraPresentation, primes):
    """Refuse a ring without reduction mod p, then the first bad prime in list order.

    The ring is checked once, before any prime, so an empty list is
    refused over Q and F_p too.  Then ``reduce_rows_mod_p`` checks that
    each p is a prime below 2**64 and that the ring does not invert it;
    no denominator D of the constants then shares a factor with p.
    """
    if a.ring.is_field:
        raise UnsupportedRing("reduction mod p needs an algebra over Z or Z[S^-1]")
    for p in primes:
        reduce_rows_mod_p(a.ring, [], p)


def _frobenius(columns, p: int, scale: int) -> list:
    """Rows of x -> x^p on A/pA (row i is e_i^p), A the dual algebra with these ``dual_columns``.

    scale is D^-1 mod p.  Each e_i^p is taken by left-to-right binary
    powering: square, then multiply by e_i on a one bit, which walks only
    column i; every product is ``dual_times`` times scale, mod p.  This
    serves the primes off the chain (``_on_chain``).
    """
    n = len(columns)
    bits = bin(p)[3:]
    rows = []
    for i in range(n):
        x = e = [int(t == i) for t in range(n)]
        for bit in bits:
            x = [v * scale % p for v in dual_times(columns, x, x)]
            if bit == "1":
                x = [v * scale % p for v in dual_times(columns, x, e)]
        rows.append(x)
    return rows


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


def _chained_frobenius(columns, denom: int, primes) -> tuple:
    """(M, rows of F~): one Frobenius over Z/M for ascending distinct primes, from one chain per basis element.

    The algebra is the one with these ``dual_columns`` and denominator
    D: e_j * e_i has coefficient X_t[j][i] / D at e_t.  The chain e_i,
    e_i^2, e_i^3, ... runs in Z/M, M the product of the primes, with D^-1
    taken mod M; each step multiplies by e_i, so it walks only column i.
    Row i of F~ is the sum over p of u_p * e_i^p, u_p the CRT idempotent
    (1 mod p, 0 mod the other primes), taken mod M, so F~ mod p is the
    Frobenius of A/pA.  A power that repeats its predecessor is a fixed
    point of x -> x * e_i, so the chain stops there.
    """
    n, m = len(columns), math.prod(primes)
    scale = pow(denom, -1, m)
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
    binary powering (``_frobenius``).  Both read one ``dual_columns``
    table, built once here.  In each group F~ mod p is the Frobenius of
    A/pA, A the dual algebra of c.  The primes must already be checked
    (``_check_primes``).
    """
    columns = dual_columns(c)
    chained = _on_chain(c.rank, primes)
    groups = [(chained, *_chained_frobenius(columns, c.denom, chained))] if chained else []
    for p in dict.fromkeys(primes):
        if p not in chained:
            groups.append(([p], p, _frobenius(columns, p, pow(c.denom, -1, p))))
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
    if not ap.ring.modulus:
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
    rows = frobenius_matrix(ap).rows
    p = ap.ring.p
    return Matrix._owning(ap.ring, _stable_power(rows, p, p, ap.rank), ap.rank)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    The report is held on the dual coalgebra as ``_derived["binomial"]``,
    (primes, report) for the last tuple of primes checked, so a repeated
    call with the same tuple returns the held object and any other tuple
    replaces it.  The axioms and the primes are checked on every call,
    before the lookup, and a call that refuses holds nothing.
    """
    a.require_valid()
    primes = tuple(primes)
    _check_primes(a, primes)
    held = a.dual._derived.get("binomial")
    if held is not None and held[0] == primes:
        return held[1]
    n = a.rank
    results = {}
    for group, m, rows in _frobenius_groups(a.dual, primes):
        power = _stable_power(rows, m, min(group), n)
        step = _product(power, rows, m)
        moved = math.gcd(m, *[x - y for srow, prow in zip(step, power) for x, y in zip(srow, prow)])
        for p in group:
            nil_rank = n - Matrix._owning(prime_field(p), [[v % p for v in row] for row in power], n).rank()
            results[p] = BinomialPrimeResult(p, nil_rank == 0, moved % p == 0, nil_rank)
    report = BinomialReport(primes, tuple([results[p] for p in primes]))
    a.dual._derived["binomial"] = (primes, report)
    return report
