"""Binomial-ring conditions at finite prime lists."""

import math
import random

import pytest

from purecoalg import (
    Matrix,
    PrimeInverted,
    UnsupportedRing,
    ValidationError,
    ZZ,
    binomial_check,
    dual_algebra,
    frobenius_matrix,
    monogenic_algebra,
    prime_field,
    split_algebra,
    truncated_polynomial_algebra,
)
from purecoalg.corpus import generate_coalgebras

import oracles


def nilradical_ranks(a, primes):
    return [r.nilradical_rank for r in binomial_check(a, primes).results]


def test_nilradical_examples():
    assert nilradical_ranks(split_algebra(ZZ, 2), (5,)) == [0]
    for a in (truncated_polynomial_algebra(ZZ, 2), monogenic_algebra(ZZ, [2, 0])):
        assert nilradical_ranks(a, (2,)) == [1]
        assert oracles.nilradical_mod_p(a, 2).basis.rows == [[0, 1]]


def test_nilradical_prime_inverted():
    from fractions import Fraction

    from purecoalg import localized_integers

    z2 = localized_integers([2])
    alg = truncated_polynomial_algebra(z2, 2)
    with pytest.raises(PrimeInverted):
        binomial_check(alg, (2,))
    assert nilradical_ranks(alg, (3,)) == [1]


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
        ap = oracles.algebra_mod_p(truncated_polynomial_algebra(ZZ, 3), p)
        fro = frobenius_matrix(ap)
        ring = prime_field(p)
        for _ in range(20):
            x = [rng.randrange(p) for _ in range(3)]
            y = [rng.randrange(p) for _ in range(3)]
            prod = oracles.dense_product(ap.mult.rows, x, y, p)
            fx = [sum(a * b for a, b in zip(x, col)) % p for col in zip(*fro.rows)]
            fy = [sum(a * b for a, b in zip(y, col)) % p for col in zip(*fro.rows)]
            fprod = [sum(a * b for a, b in zip(prod, col)) % p for col in zip(*fro.rows)]
            assert fprod == oracles.dense_product(ap.mult.rows, fx, fy, p)


def test_duals_of_pointed_coalgebras_satisfy_condition_two():
    for entry in generate_coalgebras(89, 12, max_rank=7):
        algebra = dual_algebra(entry.coalgebra)
        report = binomial_check(algebra, (2, 3, 5, 7, 11, 13))
        for r in report.results:
            assert r.residue_fields_prime, (entry.recipe, r.p)


def test_set_like_duals_have_zero_nilradical():
    assert nilradical_ranks(split_algebra(ZZ, 4), (2, 3, 5, 7, 11, 13)) == [0] * 6


def test_unsupported_ring():
    f5 = prime_field(5)
    with pytest.raises(UnsupportedRing):
        binomial_check(truncated_polynomial_algebra(f5, 2), (5,))
    with pytest.raises(UnsupportedRing, match="needs a prime-field algebra"):
        frobenius_matrix(truncated_polynomial_algebra(ZZ, 2))


@pytest.mark.parametrize("p, error", [(4, ValidationError), (1, ValidationError), (3, PrimeInverted)],
                         ids=["composite", "one", "inverted"])
def test_reductions_still_check_the_prime(p, error):
    from purecoalg.rings import localized_integers

    z3 = localized_integers([3])
    with pytest.raises(error):
        binomial_check(truncated_polynomial_algebra(z3, 3), (p,))
    with pytest.raises(error):
        Matrix(z3, [[z3.one, z3.zero]], 2).reduce_mod(p)
    if error is ValidationError:
        with pytest.raises(error):
            binomial_check(truncated_polynomial_algebra(ZZ, 3), (p,))
        with pytest.raises(error):
            Matrix(ZZ, [[1, 2]], 2).reduce_mod(p)


# --- the Frobenius-power test against the quotient-Frobenius oracle ----------------

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from purecoalg import (
    AlgebraPresentation,
    Coalgebra,
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
        if a.rank:
            assert frobenius_matrix(oracles.algebra_mod_p(a, p)) == oracles.dense_frobenius(a.mult.reduce_mod(p), p)


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
    monkeypatch.setattr(matrix_mod, "snf", refuse)
    monkeypatch.setattr(lattice_mod, "snf", refuse, raising=False)
    assert [binomial_check(a, _usable_primes(a)) for a in algebras_] == want


def test_binomial_check_of_a_dual_builds_no_blocks_and_checks_the_axioms_once(monkeypatch):
    import purecoalg.coalgebra as coalgebra_mod

    c = next(e.coalgebra for e in generate_coalgebras(97, 40, max_rank=8) if e.coalgebra.rank >= 6)
    want = oracles.quotient_frobenius_report(dual_algebra(c), PRIMES)
    stores, checked = [], []
    store, failures = Coalgebra._store, coalgebra_mod._axiom_failures
    monkeypatch.setattr(Coalgebra, "_store", lambda self, *args: stores.append(self) or store(self, *args))
    monkeypatch.setattr(coalgebra_mod, "_axiom_failures", lambda x: checked.append(x) or failures(x))
    assert binomial_check(dual_algebra(c), PRIMES) == want
    assert stores == [] and len(checked) == 1 and checked[0] is c


def test_a_second_binomial_check_checks_no_axiom(monkeypatch):
    import purecoalg.coalgebra as coalgebra_mod

    c = next(e.coalgebra for e in generate_coalgebras(97, 40, max_rank=8) if e.coalgebra.rank >= 6)
    checked, failures = [], coalgebra_mod._axiom_failures
    monkeypatch.setattr(coalgebra_mod, "_axiom_failures", lambda x: checked.append(x) or failures(x))
    # each new dual_algebra object holds c itself, and so reads the verdict held on c
    assert c.require_valid() is c and checked == [c]
    first = binomial_check(dual_algebra(c), PRIMES)
    assert binomial_check(dual_algebra(c), PRIMES) == first
    assert c.require_valid() is c and dual_of_algebra(dual_algebra(c)) is c
    # an algebra checked once holds the verdict on its dual coalgebra
    a = monogenic_algebra(ZZ, [2, 0])
    assert binomial_check(a, PRIMES) == binomial_check(a, PRIMES)
    assert dual_of_algebra(a).require_valid() is a.dual
    assert checked == [c, a.dual]


def test_an_invalid_algebra_is_refused_on_every_call_and_holds_nothing(monkeypatch):
    import purecoalg.coalgebra as coalgebra_mod

    good = monogenic_algebra(ZZ, [1, 0])
    mult = good.mult
    mult.rows[1][0] = ZZ.one  # e_0 * e_1 != e_1 * e_0
    bad = AlgebraPresentation(ZZ, 2, mult, good.unit)
    checked, failures = [], coalgebra_mod._axiom_failures
    monkeypatch.setattr(coalgebra_mod, "_axiom_failures", lambda x: checked.append(x) or failures(x))
    for call in (binomial_check, dual_of_algebra, AlgebraPresentation.require_valid, binomial_check):
        with pytest.raises(InvalidAlgebra, match="algebra axiom failed: commutativity"):
            call(bad)
        assert bad.dual._derived == {}
    with pytest.raises(ValidationError, match="coalgebra axiom failed: cocommutativity"):
        bad.dual.require_valid()
    assert bad.dual._derived == {} and len(checked) == 5


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


# --- Frobenius rows from one multiplication chain ------------------------------------

from purecoalg import binomial as binomial_mod
from purecoalg import conjugate

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
BOTH_SIDES = (2, 3, 13, 101, 1000003, 2**61 - 1)


def _chain_corpus():
    """Duals of corpus coalgebras over Z, and over Z[1/2,1/3] with a basis change by 6 that can put D > 1."""
    out = [dual_algebra(e.coalgebra) for e in generate_coalgebras(331, 8, max_rank=7)]
    for e in generate_coalgebras(337, 8, max_rank=7, ring=Z23):
        c = e.coalgebra
        w = Matrix.identity(Z23, c.rank)
        w.rows[-1][-1] = Z23.normalize(6)
        out += [dual_algebra(c), dual_algebra(conjugate(c, w))]
    assert sum(a.dual.denom > 1 for a in out) >= 3
    return out


CHAIN_CORPUS = _chain_corpus()


def _powered(a, p):
    """The Frobenius mod p by binary powering, on the constants X * D^-1 mod p."""
    positions, values = binomial_mod._flat_constants(a.dual)
    scale = pow(a.dual.denom, -1, p)
    return binomial_mod._frobenius(positions, [v * scale % p for v in values], a.rank, p)


def test_chained_rows_equal_the_powered_rows_at_every_prime():
    for a in CHAIN_CORPUS:
        primes = list(_usable_primes(a) + PRIMES_TO_31[6:])
        m, rows = binomial_mod._chained_frobenius(a.dual, primes)
        assert m == math.prod(primes) and all(0 <= v < m for row in rows for v in row)
        for p in primes:
            assert Matrix(prime_field(p), [[v % p for v in row] for row in rows], a.rank) == _powered(a, p), (a, p)


def test_chained_reports_match_the_quotient_frobenius_oracle_up_to_31():
    for a in CHAIN_CORPUS:
        primes = tuple(p for p in PRIMES_TO_31 if a.ring == ZZ or p not in a.ring.inverted)
        assert binomial_mod._on_chain(a.rank, primes) == list(primes)
        got, want = binomial_check(a, primes), oracles.quotient_frobenius_report(a, primes)
        assert got == want and str(got) == str(want)


def test_primes_on_both_sides_of_the_rule_match_the_powering_body():
    algebras_ = [a for a in CHAIN_CORPUS if a.ring == ZZ][:4] + [monogenic_algebra(ZZ, [-1, 0, -2, 0])]
    for a in algebras_:
        on_chain = binomial_mod._on_chain(a.rank, BOTH_SIDES)
        assert on_chain[:3] == [2, 3, 13] and 1000003 not in on_chain and 2**61 - 1 not in on_chain
        got = binomial_check(a, BOTH_SIDES)
        assert got == oracles.powering_binomial_report(a, BOTH_SIDES)
        assert str(got) == str(oracles.powering_binomial_report(a, BOTH_SIDES))
    # over F_p the Frobenius matrix takes the same entry: on the chain at 2 and 3, by powering at the others
    for p in (2, 3, 101, 1000003):
        ap = oracles.algebra_mod_p(monogenic_algebra(ZZ, [-1, 0, -2, 0]), p)
        assert (binomial_mod._on_chain(4, (p,)) == [p]) == (p < 100)
        assert frobenius_matrix(ap) == _powered(ap, p)


def test_duplicate_and_unsorted_primes_keep_their_order():
    for a in CHAIN_CORPUS[:3] + [zero_algebra(ZZ)]:
        primes = (13, 2, 1000003, 13, 3, 2)
        got = binomial_check(a, primes)
        assert got.tested_primes == primes and tuple(r.p for r in got.results) == primes
        assert got == oracles.powering_binomial_report(a, primes)


@pytest.mark.parametrize("ring, primes", [
    (ZZ, (2, 4, 3)),
    (ZZ, (5, 2**64 + 13, 4)),
    (ZZ, (3, 2**64 - 59, 1)),
    (Z23, (5, 7, 3, 4)),
    (Z23, (5, 2**64, 2)),
    (QQ, (4,)),
], ids=["composite", "past-2^64", "prime-then-one", "inverted", "2^64-then-inverted", "ring"])
def test_the_first_bad_prime_in_list_order_raises_as_before(ring, primes):
    for a in (truncated_polynomial_algebra(ring, 3), zero_algebra(ring)):
        with pytest.raises(Exception) as want:
            oracles.powering_binomial_report(a, primes)
        with pytest.raises(type(want.value)) as got:
            binomial_check(a, primes)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# --- one stable Frobenius power per group of primes --------------------------------

import time

from purecoalg import tensor
from purecoalg.corpus import random_unimodular

STABLE_PRIMES = (2, 3, 5, 7, 11, 13, 101, 1000003, 2**61 - 1)
FIRST_150 = tuple(p for p in range(2, 864) if all(p % q for q in range(2, int(p**0.5) + 1)))
VERDICT_PAIRS = {(True, True), (True, False), (False, True), (False, False)}


def tensor_algebra(a, b):
    """A (x) B, the dual of the tensor product of the dual coalgebras."""
    return dual_algebra(tensor(dual_of_algebra(a), dual_of_algebra(b)))


@st.composite
def monogenic_and_tensor_algebras(draw):
    """R[x]/(f) with deg f <= 5, tensor products of two with deg f <= 3, and rank 0, over Z and Z[1/2,1/3]."""
    ring = draw(st.sampled_from((ZZ, Z23)))
    shape = draw(st.sampled_from(("monogenic", "monogenic", "tensor", "tensor", "zero")))
    if shape == "zero":
        return zero_algebra(ring)
    if shape == "monogenic":
        return monogenic_algebra(ring, draw(reductions(ring, draw(st.integers(1, 5)))))
    a = monogenic_algebra(ring, draw(reductions(ring, draw(st.integers(1, 3)))))
    return tensor_algebra(a, monogenic_algebra(ring, draw(reductions(ring, draw(st.integers(1, 3))))))


def test_stable_powers_match_the_powering_body_on_monogenic_and_tensor_algebras():
    seen, ranks, sides = set(), set(), set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(monogenic_and_tensor_algebras(), st.data())
    def check(a, data):
        usable = tuple(p for p in STABLE_PRIMES if a.ring == ZZ or p not in a.ring.inverted)
        # duplicates and any order, drawn from primes on both sides of the chain rule
        primes = tuple(data.draw(st.lists(st.sampled_from(usable), min_size=1, max_size=8)))
        got, want = binomial_check(a, primes), oracles.powering_binomial_report(a, primes)
        assert got == want and str(got) == str(want)
        seen.update((r.reduced, r.residue_fields_prime) for r in got.results)
        ranks.add(a.rank)
        on_chain = binomial_mod._on_chain(a.rank, primes)
        sides.update(p in on_chain for p in primes)

    check()
    assert seen == VERDICT_PAIRS
    assert {0, 1} <= ranks and max(ranks) >= 6
    assert sides == {True, False}


def test_ranks_zero_and_one_and_unsorted_duplicates_match_the_powering_body():
    unsorted = (2**61 - 1, 13, 5, 1000003, 13, 2, 101, 5)
    for ring in (ZZ, Z23):
        primes = tuple(p for p in unsorted if ring == ZZ or p not in ring.inverted)
        for a in (zero_algebra(ring), monogenic_algebra(ring, [ring.normalize(5)]), split_algebra(ring, 1)):
            assert a.rank in (0, 1)
            got = binomial_check(a, primes)
            assert got == oracles.powering_binomial_report(a, primes) and got.tested_primes == primes


def test_the_first_150_primes_match_the_powering_body():
    assert len(FIRST_150) == 150 and FIRST_150[-1] == 863
    algebras_ = [zero_algebra(ZZ), monogenic_algebra(ZZ, [-1, 0, -2, 0]),
                 tensor_algebra(monogenic_algebra(ZZ, [2, 0]), monogenic_algebra(ZZ, [-1, 1, 0])),
                 CHAIN_CORPUS[0]]
    for a in algebras_:
        got, want = binomial_check(a, FIRST_150), oracles.powering_binomial_report(a, FIRST_150)
        assert got == want and str(got) == str(want)


def _counted(monkeypatch):
    """Record every product over Z/M (its modulus), every rank (its prime) and every Matrix product."""
    products, ranks, matrix_products = [], [], []
    product, rank, mul = binomial_mod._product, Matrix.rank, Matrix.__mul__
    monkeypatch.setattr(binomial_mod, "_product", lambda a, b, m: products.append(m) or product(a, b, m))
    monkeypatch.setattr(Matrix, "rank", lambda self: ranks.append(self.ring.p) or rank(self))
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: matrix_products.append(1) or mul(self, other))
    return products, ranks, matrix_products


def test_a_rank_12_check_makes_three_products_over_z_mod_m_and_one_rank_per_prime(monkeypatch):
    # k_2 = 4 (16 >= 12), so G = F~^4 is two squarings and G * F~ a third
    # product; the per-prime path made 14 Matrix products and 6 ranks
    entry = next(e for e in generate_coalgebras(20240809, 200, max_rank=12) if e.coalgebra.rank == 12)
    a = dual_algebra(entry.coalgebra)
    want = [oracles.powering_binomial_report(a, primes) for primes in (PRIMES, (13, 2, 13, 3))]
    products, ranks, matrix_products = _counted(monkeypatch)
    assert binomial_check(a, PRIMES) == want[0]
    assert products == [30030] * 3 and sorted(ranks) == list(PRIMES) and matrix_products == []
    products.clear(), ranks.clear()
    assert binomial_check(a, (13, 2, 13, 3)) == want[1]
    assert products == [2 * 3 * 13] * 3 and sorted(ranks) == [2, 3, 13] and matrix_products == []


def test_a_dense_twisted_rank_40_monogenic_algebra_is_checked_within_two_seconds():
    # Z[x]/(f), deg f = 40 with coefficients in {-1, 0, 1}, in a seeded
    # unimodular basis: about 63% of the 40^3 constants are nonzero.  The
    # verdicts do not depend on the basis, so the powering body runs on the
    # sparse power basis.  The ceiling is there so that a much slower
    # method, such as one integer Smith form of G for all primes, fails.
    rng = random.Random(7)
    coeffs = [rng.choice((-1, 0, 1)) for _ in range(40)]
    coeffs[0] = rng.choice((-1, 1))
    plain = monogenic_algebra(ZZ, coeffs)
    # the axioms are checked once, on the twisted basis, before the clock starts
    twisted = dual_algebra(conjugate(plain.dual, random_unimodular(random.Random(7), ZZ, 40)))
    assert sum(len(row) for block in twisted.dual.blocks for row in block.values()) > 40**3 // 2
    twisted.require_valid()
    start = time.perf_counter()
    got = binomial_check(twisted, PRIMES)
    elapsed = time.perf_counter() - start
    assert got == oracles.powering_binomial_report(plain, PRIMES)
    assert elapsed < 2.0, elapsed
