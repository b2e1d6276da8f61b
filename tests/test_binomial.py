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


# --- the Frobenius-power test against the quotient-Frobenius oracle ----------------

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from purecoalg import (
    AlgebraPresentation,
    InvalidAlgebra,
    Lattice,
    QQ,
    direct_sum,
    dual_of_algebra,
    localized_integers,
)

Z23 = localized_integers([2, 3])
PRIMES = (2, 3, 5, 7, 11, 13)
ORACLE_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)


def product_algebra(a, b):
    """A x B, the dual of the direct sum of the dual coalgebras."""
    return dual_algebra(direct_sum(dual_of_algebra(a), dual_of_algebra(b)))


def zero_algebra(ring):
    return AlgebraPresentation(ring, 0, Matrix(ring, [], 0), [])


@st.composite
def reductions(draw, ring, degree):
    """Coordinates of x^degree in R[x]/(f), f monic: S-power denominators over Z[1/2,1/3]."""
    out = []
    for _ in range(degree):
        num = draw(st.integers(-6, 6))
        den = 1 if ring == ZZ else 2 ** draw(st.integers(0, 2)) * 3 ** draw(st.integers(0, 1))
        out.append(ring.normalize(Fraction(num, den)) if ring != ZZ else num)
    return out


@st.composite
def algebras(draw):
    """Z[x]/(f) and Z[1/2,1/3][x]/(f) with deg f <= 5, products of two of them, and rank 0."""
    ring = draw(st.sampled_from((ZZ, Z23)))
    shape = draw(st.sampled_from(("monogenic", "monogenic", "product", "zero")))
    if shape == "zero":
        return zero_algebra(ring)
    if shape == "monogenic":
        return monogenic_algebra(ring, draw(reductions(ring, draw(st.integers(1, 5)))))
    first = draw(st.integers(1, 3))
    a = monogenic_algebra(ring, draw(reductions(ring, first)))
    b = monogenic_algebra(ring, draw(reductions(ring, draw(st.integers(1, 5 - first)))))
    return product_algebra(a, split_algebra(ring, 1)) if draw(st.booleans()) else product_algebra(a, b)


def _usable_primes(a):
    return tuple(p for p in PRIMES if a.ring == ZZ or p not in a.ring.inverted)


@ORACLE_SETTINGS
@given(algebras())
def test_binomial_reports_match_the_quotient_frobenius_oracle(a):
    primes = _usable_primes(a)
    want = oracles.quotient_frobenius_report(a, primes)
    got = binomial_check(a, primes)
    assert got == want and str(got) == str(want)
    for p in primes:
        ap = algebra_mod_p(a, p)
        assert ap.mult == a.mult.reduce_mod(p)
        assert ap.unit == Matrix(a.ring, [a.unit], a.rank).reduce_mod(p).rows[0]
        if a.rank:
            oracle_fro = [ap.power([int(t == i) for t in range(a.rank)], p) for i in range(a.rank)]
            assert frobenius_matrix(ap).rows == oracle_fro
        nil = nilradical_mod_p(a, p)
        assert nil.rank == got.results[primes.index(p)].nilradical_rank


def test_all_four_verdict_pairs_occur():
    # at p = 3: x^2, x^2 + 1, (x^2 + 1)^2 = x^4 + 2x^2 + 1, and Z x Z
    cases = {
        (False, True): monogenic_algebra(ZZ, [0, 0]),
        (True, False): monogenic_algebra(ZZ, [-1, 0]),
        (False, False): monogenic_algebra(ZZ, [-1, 0, -2, 0]),
        (True, True): split_algebra(ZZ, 2),
    }
    for pair, a in cases.items():
        report = binomial_check(a, (3,))
        assert report == oracles.quotient_frobenius_report(a, (3,))
        result = report.results[0]
        assert (result.reduced, result.residue_fields_prime) == pair


def test_binomial_check_needs_no_kernel_lattice_projection_or_smith_form(monkeypatch):
    import purecoalg.binomial as binomial_mod
    import purecoalg.lattice as lattice_mod
    import purecoalg.matrix as matrix_mod

    algebras_ = [monogenic_algebra(ZZ, [-1, 0, -2, 0]), truncated_polynomial_algebra(Z23, 3),
                 product_algebra(monogenic_algebra(ZZ, [2, 0]), split_algebra(ZZ, 1)), zero_algebra(ZZ)]
    algebras_ += [dual_algebra(entry.coalgebra) for entry in generate_coalgebras(89, 6, max_rank=7)]
    want = [oracles.quotient_frobenius_report(a, _usable_primes(a)) for a in algebras_]

    def refuse(*args, **kwargs):
        raise AssertionError("binomial_check reached a kernel lattice, a projection or a Smith form")

    monkeypatch.setattr(Lattice, "complement_projection", refuse)
    monkeypatch.setattr(lattice_mod, "kernel_lattice", refuse)
    monkeypatch.setattr(binomial_mod, "kernel_lattice", refuse)
    monkeypatch.setattr(matrix_mod, "snf", refuse)
    monkeypatch.setattr(lattice_mod, "snf", refuse, raising=False)
    assert [binomial_check(a, _usable_primes(a)) for a in algebras_] == want


def test_binomial_errors_fire_in_order():
    from purecoalg import ValidationError

    good = monogenic_algebra(QQ, [1, 0])
    mult = good.mult
    mult.rows[1][0] = QQ.one  # e_0 * e_1 != e_1 * e_0
    bad = AlgebraPresentation(QQ, 2, mult, good.unit)
    with pytest.raises(InvalidAlgebra):
        binomial_check(bad, (4, 3))
    for ring, primes, error in (
        (QQ, (4,), UnsupportedRing),
        (prime_field(5), (4,), UnsupportedRing),
        (localized_integers([3]), (2, 4, 3), ValidationError),
        (localized_integers([3]), (2, 3, 4), PrimeInverted),
    ):
        for a in (truncated_polynomial_algebra(ring, 2), zero_algebra(ring)):
            with pytest.raises(error) as info:
                binomial_check(a, primes)
            assert type(info.value) is error
    with pytest.raises(ValidationError, match="4 is not prime"):
        binomial_check(truncated_polynomial_algebra(ZZ, 2), (4,))
    with pytest.raises(UnsupportedRing, match="reduction mod p needs an algebra over Z or Z"):
        binomial_check(truncated_polynomial_algebra(QQ, 2), (4,))
    with pytest.raises(PrimeInverted, match="3 is inverted in"):
        binomial_check(truncated_polynomial_algebra(localized_integers([3]), 2), (3,))
