"""Exact root extraction inside the ground field.

Two situations occur when hunting eigenvalues: integer characteristic
polynomials (rational eigenvalues of a scaled rational matrix are the
integer roots, which divide the constant term), and polynomials over a
prime field, where for every p the distinct roots are those of
gcd(x^p - x, f), split by seeded equal-degree factorization.
"""

from __future__ import annotations

import random

from .numtheory import divisors


def integer_roots(coeffs: list[int]) -> list[int]:
    """Integer roots of a monic integer polynomial, sorted.

    Coefficients are in descending powers with leading coefficient 1;
    candidates are the divisors of the constant term after stripping
    powers of x, each verified by exact evaluation.
    """
    if not coeffs or coeffs[0] != 1:
        raise ValueError("integer_roots expects a monic polynomial")
    cs = list(coeffs)
    roots = []
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
        if 0 not in roots:
            roots.append(0)
    if len(cs) == 1:
        return sorted(roots)
    const = abs(cs[-1])
    for d in divisors(const):
        for cand in (d, -d):
            if _eval_int(cs, cand) == 0 and cand not in roots:
                roots.append(cand)
    return sorted(roots)


def _eval_int(cs, x):
    acc = 0
    for c in cs:
        acc = acc * x + c
    return acc


# --- polynomials over F_p, coefficients ascending ---------------------------


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _pdivmod(f, g, p):
    """(quotient, remainder) of f by a nonzero g over F_p, by long division."""
    f, g = _trim(list(f)), _trim(list(g))
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    quo = [0] * (len(f) - dg)
    while len(f) - 1 >= dg and f:
        coeff = f[-1] * inv % p
        shift = len(f) - 1 - dg
        quo[shift] = coeff
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - coeff * b) % p
        _trim(f)
    return _trim(quo), f


def _pgcd(f, g, p):
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def _ppow_mod(base, e, mod, p):
    result = [1]
    b = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, b, p), mod, p)[1]
        e >>= 1
        if e:
            b = _pdivmod(_pmul(b, b, p), mod, p)[1]
    return result


def prime_field_roots(coeffs_desc: list[int], p: int) -> list[int]:
    """Roots in F_p of a nonzero polynomial with coefficients mod p.

    Zero is split off first; the distinct linear part gcd(x^p - x, f) of
    the rest is then split by seeded equal-degree factorization.  For
    p = 2 that part has degree at most one, since only x + 1 remains.
    """
    cs = [c % p for c in coeffs_desc]
    while cs and cs[0] == 0:
        cs.pop(0)
    if not cs:
        raise ValueError("zero polynomial has every root")
    f = list(reversed(cs))
    _trim(f)
    roots = []
    if f and f[0] == 0:
        roots.append(0)
        while f and f[0] == 0:
            f.pop(0)
    # distinct roots in F_p are the roots of gcd(x^p - x, f)
    xp = _ppow_mod([0, 1], p, f, p)
    lin = _pgcd([(a - b) % p for a, b in _pad(xp, [0, 1])], f, p)
    roots.extend(_split_linear(lin, p, random.Random(0xC0A16)))
    return sorted(roots)


def _pad(f, g):
    m = max(len(f), len(g))
    return zip(f + [0] * (m - len(f)), g + [0] * (m - len(g)))


def _split_linear(f, p, rng):
    """Roots of a monic product of distinct linear factors over F_p."""
    deg = len(f) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-f[0]) % p]
    # equal-degree splitting: gcd with (x + a)^((p-1)/2) - 1 for random a
    while True:
        a = rng.randrange(p)
        h = _ppow_mod([a, 1], (p - 1) // 2, f, p)
        h = [(c - d) % p for c, d in _pad(h, [1])]
        _trim(h)
        g = _pgcd(h, f, p)
        if 0 < len(g) - 1 < deg:
            rest, _ = _pdivmod(f, g, p)
            return _split_linear(g, p, rng) + _split_linear(rest, p, rng)

