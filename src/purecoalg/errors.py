"""Exception taxonomy shared across the workbench.

Everything a caller can provoke with bad input derives from
``WorkbenchError`` so the command layer can map it to an exit code
without ever crashing.
"""


class WorkbenchError(Exception):
    """Base class for all input-provoked errors."""


class ParseError(WorkbenchError):
    """Malformed file or element string."""


class OutputError(WorkbenchError):
    """An output file or directory cannot be written."""


class ValidationError(WorkbenchError):
    """Structural axiom violated (coalgebra, algebra, map, or simplicial set)."""


class UnsupportedRing(WorkbenchError):
    """Operation is not defined over the given ground ring."""


class PrimeInverted(WorkbenchError):
    """Reduction mod p requested at a prime that the ring inverts."""


class AmbientMismatch(WorkbenchError):
    """Lattice or vector does not live in the expected ambient module."""


class RingMismatch(WorkbenchError):
    """Two operands live over different ground rings."""


class InvalidAlgebra(WorkbenchError):
    """Algebra presentation violates commutativity, associativity, or unit laws."""


class NotSubcoalgebra(WorkbenchError):
    """Lattice is not closed under the comultiplication."""


class NotPure(WorkbenchError):
    """Lattice is not saturated where a pure one is required."""


class NotGroupLike(WorkbenchError):
    """Vector is not a group-like element of the coalgebra."""


class NotGroupLikeImage(WorkbenchError):
    """Image of a group-like failed to be group-like (defensive; cannot occur for valid maps)."""


class NotPointed(WorkbenchError):
    """Coalgebra has pure simple subcoalgebras not isomorphic to the ground ring."""


class NotIrreducible(WorkbenchError):
    """Coalgebra has more than one irreducible component where one is required."""


class NotExhaustive(WorkbenchError):
    """A filtration stabilized strictly below the full lattice (internal invariant breach)."""


class TooLarge(WorkbenchError):
    """Brute-force enumeration would exceed the configured bound."""


class DegreeTooHigh(WorkbenchError):
    """Requested homology degree exceeds what the truncation supports."""
