"""Deterministic elementary number theory on Python ints.

Primality testing is exact for the inputs this package accepts: trial
division by small primes, then Miller-Rabin with the fixed witness set
{2, 3, ..., 41}, a proven deterministic test for all n below
3.3 * 10**24 (comfortably above the 2**64 bound enforced for
user-supplied primes).  Factoring combines trial division with Brent's
variant of Pollard's rho; it is used on elementary divisors and on
characteristic-polynomial constant terms, which stay far below the
proven primality bound at desk scale.  A cofactor at or above that
bound, with no prime factor below 1000, is refused with ``TooLarge``:
its primality cannot be certified, and rho never ends on a prime.
"""

from __future__ import annotations

import math

from .errors import TooLarge

# Proven deterministic Miller-Rabin witnesses for n < 3_317_044_064_679_887_385_961_981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

USER_PRIME_BOUND = 1 << 64


def _small_primes(bound: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(math.isqrt(bound)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return tuple([i for i in range(bound) if sieve[i]])


SMALL_PRIMES = _small_primes(1000)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3.3e24; raises beyond that bound."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_PROVEN_BOUND:
        raise ValueError(f"primality test is only deterministic below {_MR_PROVEN_BOUND}")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of odd composite n (Brent's cycle detection)."""
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0 as an exponent dict; TooLarge on a cofactor past the primality bound."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if n == 1:
            return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m >= _MR_PROVEN_BOUND:
            raise TooLarge(f"cannot factor {m}: its primality is only certified below {_MR_PROVEN_BOUND}")
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n > 0, sorted."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
