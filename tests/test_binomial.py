"""Binomial-ring conditions at finite prime lists."""

import random

import pytest

from purecoalg import (
    Matrix,
    PrimeInverted,
    UnsupportedRing,
    ValidationError,
    ZZ,
    algebra_mod_p,
    binomial_check,
    dual_algebra,
    frobenius_matrix,
    monogenic_algebra,
    nilradical_mod_p,
    prime_field,
    split_algebra,
    truncated_polynomial_algebra,
)
from purecoalg.corpus import generate_coalgebras


def test_nilradical_examples():
    assert nilradical_mod_p(split_algebra(ZZ, 2), 5).rank == 0
    nil = nilradical_mod_p(truncated_polynomial_algebra(ZZ, 2), 2)
    assert nil.basis.rows == [[0, 1]]
    nil = nilradical_mod_p(monogenic_algebra(ZZ, [2, 0]), 2)
    assert nil.basis.rows == [[0, 1]]


def test_nilradical_prime_inverted():
    from fractions import Fraction

    from purecoalg import localized_integers

    z2 = localized_integers([2])
    alg = truncated_polynomial_algebra(z2, 2)
    with pytest.raises(PrimeInverted):
        nilradical_mod_p(alg, 2)
    assert nilradical_mod_p(alg, 3).rank == 1


def test_binomial_check_examples():
    report = binomial_check(split_algebra(ZZ, 2), (2, 3, 5, 7, 11, 13))
    assert report.all_pass

    report = binomial_check(monogenic_algebra(ZZ, [2, 0]), (2, 3))
    by_prime = {r.p: r for r in report.results}
    assert not by_prime[2].reduced and by_prime[2].residue_fields_prime
    assert by_prime[3].reduced and not by_prime[3].residue_fields_prime
    assert not report.all_pass

    report = binomial_check(truncated_polynomial_algebra(ZZ, 2), (2, 3))
    for r in report.results:
        assert not r.reduced and r.residue_fields_prime


def test_report_text_is_qualified():
    text = str(binomial_check(split_algebra(ZZ, 2), (2, 3)))
    assert "up to the tested primes" in text


def test_frobenius_is_multiplicative():
    rng = random.Random(83)
    for p in (2, 3, 5):
        ap = algebra_mod_p(truncated_polynomial_algebra(ZZ, 3), p)
        fro = frobenius_matrix(ap)
        ring = prime_field(p)
        for _ in range(20):
            x = [rng.randrange(p) for _ in range(3)]
            y = [rng.randrange(p) for _ in range(3)]
            prod = ap.multiply(x, y)
            fx = [sum(a * b for a, b in zip(x, col)) % p for col in zip(*fro.rows)]
            fy = [sum(a * b for a, b in zip(y, col)) % p for col in zip(*fro.rows)]
            fprod = [sum(a * b for a, b in zip(prod, col)) % p for col in zip(*fro.rows)]
            assert fprod == ap.multiply(fx, fy)


def test_duals_of_pointed_coalgebras_satisfy_condition_two():
    for entry in generate_coalgebras(89, 12, max_rank=7):
        algebra = dual_algebra(entry.coalgebra)
        report = binomial_check(algebra, (2, 3, 5, 7, 11, 13))
        for r in report.results:
            assert r.residue_fields_prime, (entry.recipe, r.p)


def test_set_like_duals_have_zero_nilradical():
    for p in (2, 3, 5, 7, 11, 13):
        assert nilradical_mod_p(split_algebra(ZZ, 4), p).rank == 0


def test_unsupported_ring():
    f5 = prime_field(5)
    with pytest.raises(UnsupportedRing):
        nilradical_mod_p(truncated_polynomial_algebra(f5, 2), 5)


@pytest.mark.parametrize("p, error", [(4, ValidationError), (1, ValidationError), (3, PrimeInverted)],
                         ids=["composite", "one", "inverted"])
def test_reductions_still_check_the_prime(p, error):
    from purecoalg.rings import localized_integers

    z3 = localized_integers([3])
    with pytest.raises(error):
        algebra_mod_p(truncated_polynomial_algebra(z3, 3), p)
    with pytest.raises(error):
        Matrix(z3, [[z3.one, z3.zero]], 2).reduce_mod(p)
    if error is ValidationError:
        with pytest.raises(error):
            algebra_mod_p(truncated_polynomial_algebra(ZZ, 3), p)
        with pytest.raises(error):
            Matrix(ZZ, [[1, 2]], 2).reduce_mod(p)
