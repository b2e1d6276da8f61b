"""Root extraction in the ground field, for small and large primes alike."""

import itertools
import random

from purecoalg import ZZ, dual_of_algebra, group_likes, monogenic_algebra, prime_field
from purecoalg import polyroots
from purecoalg.polyroots import integer_roots, prime_field_roots


def test_integer_roots():
    # (x - 2)(x + 3)(x - 0) = x^3 + x^2 - 6x
    assert integer_roots([1, 1, -6, 0]) == [-3, 0, 2]
    assert integer_roots([1, 0, 2]) == []
    assert integer_roots([1]) == []


def test_prime_field_roots_small():
    # x^2 - 2 over F_7: roots 3 and 4
    assert prime_field_roots([1, 0, -2], 7) == [3, 4]
    assert prime_field_roots([1, 0, -2], 3) == []


def test_prime_field_roots_large_prime():
    p = 10007  # a large prime: x^p - x is only ever reduced modulo f
    rng = random.Random(5)
    for _ in range(10):
        roots = sorted({rng.randrange(p) for _ in range(rng.randint(1, 4))})
        coeffs = [1]
        for r in roots:
            coeffs = [a % p for a in _mul(coeffs, [1, -r], p)]
        got = prime_field_roots(coeffs, p)
        assert got == roots


def test_prime_field_roots_match_evaluation_small_primes(monkeypatch):
    # every polynomial of degree at most 4 over F_p (leading coefficient
    # nonzero, repeated and zero roots included) against evaluation at
    # every residue; p = 2 has (p - 1) // 2 = 0, so only a linear factor
    # may reach the equal-degree splitting there
    split = polyroots._split_linear

    def guarded(f, p, rng):
        assert p != 2 or len(f) <= 2, f
        return split(f, p, rng)

    monkeypatch.setattr(polyroots, "_split_linear", guarded)
    for p in (2, 3, 5, 7):
        for degree in range(5):
            for lead in range(1, p):
                for rest in itertools.product(range(p), repeat=degree):
                    coeffs = [lead, *rest]
                    want = [x for x in range(p) if _eval(coeffs, x, p) == 0]
                    assert prime_field_roots(coeffs, p) == want, (p, coeffs)


def _eval(coeffs, x, p):
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % p
    return acc


def _mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def test_group_likes_over_large_prime_field():
    p = 10007
    assert pow(2, (p - 1) // 2, p) == 1  # 2 is a square mod p
    ring = prime_field(p)
    c = dual_of_algebra(monogenic_algebra(ring, [2, 0]))
    vectors = group_likes(c).vectors
    assert len(vectors) == 2
    for g in vectors:
        assert g[0] == 1 and g[1] * g[1] % p == 2
