"""Exact arithmetic over the supported ground rings.

Four rings are available: the integers Z, the rationals Q, prime fields
F_p, and localizations Z[S^-1] of the integers at a finite set S of
inverted primes.  Elements are plain Python values: ints for Z and F_p,
``fractions.Fraction`` for Q and Z[S^-1].  The ring object carries the
operations whose meaning depends on the ring.

The normal forms need slightly more than ring arithmetic:

* ``canonicalize_unit(a)`` returns ``(u, c)`` with ``c = u*a`` the
  canonical associate of a: positive for Z, a positive integer prime to
  S for Z[S^-1], 1 over a field.
* ``cleared(rows)`` returns, over Q and Z[S^-1], one scale per row and
  the integer rows it clears: the scale is the lcm of the row's
  denominators, a unit of the ring, so the row module does not change.
  Over Z and F_p it returns None: the rows already are the integers (or
  residues) that the elimination kernel works on.

The Euclidean operations exist on Z and F_p only, the rings the
elimination kernel runs over:

* ``gcdex(a, b)`` returns ``(g, s, t)`` with ``g = s*a + t*b`` where g
  is the canonical generator of the ideal (a, b).
* ``try_exact_div(b, a)`` and ``exact_div(b, a)`` divide within the ring.
* ``mod_reduce(a, m)`` returns ``(q, r)`` with ``a = q*m + r`` and r the
  canonical residue modulo a canonical m; this is what makes Hermite
  forms bit-reproducible.

Q and Z[S^-1] eliminate over Z on cleared rows (see ``matrix``); only
the canonical associates and residues of the result are formed in the
ring, through ``canonicalize_unit`` and the integer residues modulo a
canonical pivot.  Over Z[S^-1] every element factors as unit times a
nonnegative integer prime to S (its "S-free part"); canonical
associates and units are computed through that decomposition, which is
what turns purity away from S into a denominator-free condition.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import ParseError, PrimeInverted, UnsupportedRing, ValidationError
from .numtheory import USER_PRIME_BOUND, is_prime, xgcd


_NUMERATOR = operator.attrgetter("numerator")
_DENOMINATOR = operator.attrgetter("denominator")


def _check_user_prime(p: int) -> int:
    if not isinstance(p, int) or p < 2:
        raise ValidationError(f"{p!r} is not a prime")
    if p >= USER_PRIME_BOUND:
        raise ValidationError(f"primes must be below 2**64, got {p}")
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    return p


class Ring:
    """Common surface of the four ground rings."""

    kind: str
    is_field: bool
    modulus = 0  # the characteristic: p on F_p, 0 on Z, Q and Z[S^-1]

    # --- identity ---------------------------------------------------
    def _key(self):
        return (self.kind,)

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.kind

    # --- arithmetic shared by int/Fraction representations ----------
    @staticmethod
    def reduce_row(row):
        """Canonical residues of a row of elements: the row itself except over F_p."""
        return row

    @staticmethod
    def cleared(rows):
        """(scales, integer rows) over Q and Z[S^-1]; None over Z and F_p, whose rows are already integral."""
        return None

    # --- serialization ----------------------------------------------
    def to_spec(self) -> dict:
        raise NotImplementedError

    def to_str(self, a) -> str:
        if isinstance(a, Fraction) and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a) if isinstance(a, Fraction) else a)


class _EuclideanRing(Ring):
    """Z and F_p, the rings the elimination kernel runs over."""

    def exact_div(self, b, a):
        """b / a within the ring; raises ZeroDivisionError or ValueError."""
        q = self.try_exact_div(b, a)
        if q is None:
            raise ValueError(f"{b} is not divisible by {a} in {self}")
        return q


class IntegerRing(_EuclideanRing):
    kind = "Z"
    is_field = False
    zero = 0
    one = 1

    def to_spec(self):
        return {"kind": "Z"}

    @staticmethod
    def is_unit(a) -> bool:
        return a in (1, -1)

    @staticmethod
    def try_exact_div(b, a):
        if a == 0:
            return 0 if b == 0 else None
        q, r = divmod(b, a)
        return q if r == 0 else None

    @staticmethod
    def canonicalize_unit(a):
        if a == 0:
            return 1, 0
        return (1, a) if a > 0 else (-1, -a)

    @staticmethod
    def gcdex(a, b):
        return xgcd(a, b)

    @staticmethod
    def mod_reduce(a, m):
        q, r = divmod(a, m)
        return q, r

    def normalize(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            if isinstance(a, Fraction) and a.denominator == 1:
                return int(a)
            raise ValidationError(f"{a!r} is not an integer")
        return a

    def parse(self, s: str):
        try:
            return int(s, 10)
        except ValueError:
            raise ParseError(f"{s!r} is not an integer over Z") from None


class _SubringOfQ(Ring):
    """Q and Z[S^-1]: Fraction elements whose denominators are units."""

    @staticmethod
    def cleared(rows):
        """(scales, integer rows): scales[i] * rows[i], with scales[i] the lcm of the row's denominators.

        Each scale is a unit of the ring, so the rows span the same module
        as their cleared images.
        """
        scales, ints = [], []
        for row in rows:
            dens = list(map(_DENOMINATOR, row))
            d = math.lcm(*dens)
            nums = map(_NUMERATOR, row)
            scales.append(d)
            ints.append(list(nums) if d == 1 else [x * (d // e) for x, e in zip(nums, dens)])
        return scales, ints


class RationalRing(_SubringOfQ):
    kind = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def to_spec(self):
        return {"kind": "Q"}

    @staticmethod
    def is_unit(a) -> bool:
        return a != 0

    @staticmethod
    def canonicalize_unit(a):
        if a == 0:
            return Fraction(1), Fraction(0)
        return 1 / Fraction(a), Fraction(1)

    def normalize(self, a):
        if isinstance(a, bool):
            raise ValidationError(f"{a!r} is not a rational")
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, Fraction):
            return a
        raise ValidationError(f"{a!r} is not a rational")

    def parse(self, s: str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{s!r} is not a rational") from None


class PrimeField(_EuclideanRing):
    kind = "Fp"
    is_field = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = self.modulus = _check_user_prime(p)

    def _key(self):
        return ("Fp", self.p)

    def __repr__(self):
        return f"F{self.p}"

    def to_spec(self):
        return {"kind": "Fp", "p": self.p}

    def reduce_row(self, row):
        return [v % self.p for v in row]

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def try_exact_div(self, b, a):
        if a % self.p == 0:
            return 0 if b % self.p == 0 else None
        return b * pow(a, -1, self.p) % self.p

    def canonicalize_unit(self, a):
        a %= self.p
        if a == 0:
            return 1, 0
        return pow(a, -1, self.p), 1

    def gcdex(self, a, b):
        if a % self.p:
            return 1, pow(a, -1, self.p), 0
        if b % self.p:
            return 1, 0, pow(b, -1, self.p)
        return 0, 0, 0

    def mod_reduce(self, a, m):
        # m is a canonical pivot, i.e. 1
        return a * pow(m, -1, self.p) % self.p, 0

    def normalize(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise ValidationError(f"{a!r} is not an element of {self}")
        return a % self.p

    def parse(self, s: str):
        try:
            return int(s, 10) % self.p
        except ValueError:
            raise ParseError(f"{s!r} is not an element of {self}") from None


class LocalizedIntegerRing(_SubringOfQ):
    """Z with a finite set of primes inverted.

    Elements are fractions whose denominator factors over the inverted
    set; purity and elementary divisors are measured at the remaining
    primes only.
    """

    kind = "ZS"
    is_field = False
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, inverted_primes):
        given = list(inverted_primes)
        primes = sorted(set(given))
        for p in primes:
            _check_user_prime(p)
        if len(primes) != len(given):
            raise ValidationError("inverted primes must be pairwise distinct")
        self.inverted = tuple(primes)

    def _key(self):
        return ("ZS", self.inverted)

    def __repr__(self):
        return "Z[1/{" + ",".join(map(str, self.inverted)) + "}]"

    def to_spec(self):
        return {"kind": "ZS", "inverted_primes": list(self.inverted)}

    def _s_free(self, n: int) -> int:
        """Strip every inverted prime from |n|."""
        n = abs(n)
        for p in self.inverted:
            while n and n % p == 0:
                n //= p
        return n

    def _den_ok(self, d: int) -> bool:
        return self._s_free(d) == 1

    def is_unit(self, a) -> bool:
        return a != 0 and self._s_free(a.numerator) == 1

    def canonicalize_unit(self, a):
        if a == 0:
            return Fraction(1), Fraction(0)
        c = self._s_free(a.numerator)
        return Fraction(c * a.denominator, a.numerator), Fraction(c)

    def normalize(self, a):
        if isinstance(a, bool):
            raise ValidationError(f"{a!r} is not an element of {self}")
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, Fraction):
            if not self._den_ok(a.denominator):
                raise ValidationError(f"denominator of {a} is not supported by {self}")
            return a
        raise ValidationError(f"{a!r} is not an element of {self}")

    def parse(self, s: str):
        try:
            q = Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{s!r} is not an element of {self}") from None
        if not self._den_ok(q.denominator):
            raise ParseError(f"denominator of {s!r} is not invertible in {self}")
        return q


ZZ = IntegerRing()
QQ = RationalRing()

_FP_CACHE: dict[int, PrimeField] = {}


def prime_field(p: int) -> PrimeField:
    if p not in _FP_CACHE:
        _FP_CACHE[p] = PrimeField(p)
    return _FP_CACHE[p]


def localized_integers(inverted_primes) -> LocalizedIntegerRing:
    return LocalizedIntegerRing(inverted_primes)


def ring_from_spec(obj) -> Ring:
    """Inverse of ``Ring.to_spec``; raises ParseError on malformed specs."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"malformed ring spec: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "Z":
            return ZZ
        if kind == "Q":
            return QQ
        if kind == "Fp":
            return prime_field(obj["p"])
        if kind == "ZS":
            return localized_integers(obj["inverted_primes"])
    except (KeyError, TypeError, ValidationError) as exc:
        raise ParseError(f"malformed ring spec {obj!r}: {exc}") from None
    raise ParseError(f"unknown ring kind {kind!r}")


def reduce_rows_mod_p(ring: Ring, rows, p: int) -> list[list[int]]:
    """Reduce every entry of a list of rows over Z or Z[S^-1] modulo a prime, landing in F_p.

    Entrywise this is a ring homomorphism.  The prime is checked once;
    the call fails with PrimeInverted exactly when the ring inverts p,
    that is when a denominator cannot be inverted mod p.
    """
    _check_user_prime(p)
    if ring == ZZ:
        return [[v % p for v in row] for row in rows]
    if isinstance(ring, LocalizedIntegerRing):
        if p in ring.inverted:
            raise PrimeInverted(f"{p} is inverted in {ring}")
        return [[v.numerator * pow(v.denominator, -1, p) % p for v in row] for row in rows]
    raise UnsupportedRing(f"reduction mod p is not defined over {ring}")


def cleared_rows(rows):
    """(d, d * rows) as ints, d the lcm of every denominator in the rows (1 over Z and F_p).

    Scaling by one nonzero integer changes no zero test and no kernel.
    When every denominator is 1 the numerators are the rows.
    """
    d = math.lcm(*[v.denominator for row in rows for v in row])
    if d == 1:
        return 1, [list(map(_NUMERATOR, row)) for row in rows]
    return d, [[v.numerator * (d // v.denominator) for v in row] for row in rows]

