"""Ground ring arithmetic, reduction homomorphisms, canonicalization."""

import random
from fractions import Fraction

import pytest

from purecoalg import (
    PrimeInverted,
    QQ,
    ValidationError,
    ZZ,
    localized_integers,
    prime_field,
)
from purecoalg.numtheory import is_prime, xgcd
from purecoalg.rings import reduce_rows_mod_p

import oracles


def reduce_mod_p(ring, x, p):
    return reduce_rows_mod_p(ring, [[x]], p)[0][0]


def test_reduce_mod_p_examples():
    assert reduce_mod_p(ZZ, 7, 3) == 1
    z2 = localized_integers([2])
    # inverse of 2 mod 3 from the extended gcd oracle
    g, s, _ = xgcd(2, 3)
    assert g == 1
    assert reduce_mod_p(z2, Fraction(1, 2), 3) == s % 3 == 2
    with pytest.raises(PrimeInverted):
        reduce_mod_p(z2, Fraction(1, 2), 2)


def test_reduce_mod_p_is_ring_hom():
    rng = random.Random(7)
    z6 = localized_integers([2, 3])
    for _ in range(200):
        x = Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 6, 9)))
        y = Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 6, 9)))
        p = rng.choice((5, 7, 11, 13))
        assert reduce_mod_p(z6, x + y, p) == (reduce_mod_p(z6, x, p) + reduce_mod_p(z6, y, p)) % p
        assert reduce_mod_p(z6, x * y, p) == (reduce_mod_p(z6, x, p) * reduce_mod_p(z6, y, p)) % p
    assert reduce_mod_p(z6, Fraction(1), 5) == 1


def test_the_modulus_is_p_on_a_prime_field_and_0_elsewhere():
    assert [r.modulus for r in (ZZ, QQ, localized_integers([2, 3]), prime_field(2), prime_field(101))] == [0, 0, 0, 2, 101]


def test_is_unit():
    assert ZZ.is_unit(1) and ZZ.is_unit(-1)
    assert not ZZ.is_unit(2) and not ZZ.is_unit(0)
    z2 = localized_integers([2])
    assert z2.is_unit(Fraction(2)) and z2.is_unit(Fraction(-8)) and z2.is_unit(Fraction(1, 4))
    assert not z2.is_unit(Fraction(3)) and not z2.is_unit(Fraction(0))
    assert QQ.is_unit(Fraction(5, 3)) and not QQ.is_unit(Fraction(0))
    f7 = prime_field(7)
    assert f7.is_unit(3) and not f7.is_unit(0)


def test_fraction_canonicalization_idempotent_and_sign_normalized():
    z2 = localized_integers([2])
    rng = random.Random(3)
    for _ in range(100):
        x = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4, 8)))
        once = z2.normalize(x)
        assert z2.normalize(once) == once
        assert once.denominator > 0
    with pytest.raises(ValidationError):
        z2.normalize(Fraction(1, 3))


def test_gcdex_contract():
    """Over Z on the ring's own gcdex, over Z[1/2,1/3] on the copy the former Fraction kernels keep."""
    rng = random.Random(11)
    z6 = localized_integers([2, 3])
    for ring, sample in (
        (ZZ, lambda: rng.randint(-30, 30)),
        (z6, lambda: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4)))),
    ):
        ops = oracles.division(ring)
        for _ in range(100):
            a, b = sample(), sample()
            g, s, t = ops.gcdex(a, b)
            assert s * a + t * b == g
            if a or b:
                assert ops.try_exact_div(a, g) is not None and ops.try_exact_div(b, g) is not None
                _, canon = ring.canonicalize_unit(g)
                assert canon == g


def test_localized_integers_accepts_any_iterable():
    want = localized_integers([2, 3])
    assert localized_integers(p for p in [3, 2]) == want
    assert localized_integers(iter((2, 3))) == want
    with pytest.raises(ValidationError):
        localized_integers(p for p in [2, 3, 2])


def test_prime_validation():
    with pytest.raises(ValidationError):
        prime_field(6)
    with pytest.raises(ValidationError):
        prime_field(1 << 65)
    with pytest.raises(ValidationError):
        localized_integers([4])
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


def test_mod_reduce_canonical_residues():
    q, r = ZZ.mod_reduce(-7, 3)
    assert q * 3 + r == -7 and 0 <= r < 3
    z2 = localized_integers([2])
    q, r = oracles.division(z2).mod_reduce(Fraction(7, 2), Fraction(3))
    assert q * 3 + r == Fraction(7, 2)
    assert r in (Fraction(0), Fraction(1), Fraction(2))
    assert z2.normalize(q) == q


def test_ring_spec_round_trip():
    from purecoalg import ring_from_spec

    for ring in (ZZ, QQ, prime_field(7), localized_integers([2, 3])):
        assert ring_from_spec(ring.to_spec()) == ring
