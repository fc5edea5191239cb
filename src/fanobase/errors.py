"""Domain errors and the value-type base shared by all calculus modules.

Every error raised on bad mathematical input derives from
:class:`FanobaseError`, so callers (in particular the command line
front end) can map the whole family to a single "domain error" outcome.
Every value type derives from :class:`Value`.
"""

from operator import attrgetter


class Value:
    """Immutable value whose fields are its ``__slots__``.

    A subclass declares ``__slots__`` and an ``__init__`` that validates
    its arguments, unpacks ``self._set`` and stores each field with one
    call: ``_set`` holds the setters of the slot descriptors in
    ``__slots__`` order, bound once per class, so a store skips the
    attribute lookup of ``object.__setattr__``.  A subclass gets equality
    by class and fields, a hash by fields, the repr
    ``Name(field=value, ...)``, pickling and copying through its
    constructor, and refuses assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)
        cls._set = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class FanobaseError(ValueError):
    """Base class for every domain error raised by this package."""


def require_integers(owner: str, values) -> None:
    """Raise FanobaseError unless every field value of ``owner`` is an int and not a bool."""
    for v in values:
        # exact ints pass on the first test
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise FanobaseError(f"{owner} needs integers, got {tuple(values)!r}")


# ---------------------------------------------------------------- scrolls

class NegativeDegree(FanobaseError):
    """The fiberwise degree h of a class is negative where support data is required."""


class ArityMismatch(FanobaseError):
    """An intersection product received a number of classes different from the dimension."""


class BandTooWide(FanobaseError):
    """A count at rank >= 4 would walk more band exponents than its work budget."""


class NotRigid(FanobaseError):
    """The candidate fixed component does not have a one-dimensional space of sections."""


class EmptySystem(FanobaseError):
    """The linear system has no effective members."""


class IndexOutOfRange(FanobaseError):
    """A coordinate index is outside 1..n."""


class TooFewSummands(FanobaseError):
    """A sub-scroll needs at least two bundle summands."""


class NegativeTwist(FanobaseError):
    """The smallest twist is negative, so the tautological map is not a morphism onto a scroll."""


# --------------------------------------------------------- ruled surfaces

class SurfaceMismatch(FanobaseError):
    """Two surface classes live on different Hirzebruch surfaces."""


class NotEffectiveShape(FanobaseError):
    """Adjunction genus is only evaluated on classes with non-negative section coefficient."""


class RankMismatch(FanobaseError):
    """A rank-2 scroll was expected."""


# -------------------------------------------------------------- K3 pencil

class NotElephantShape(FanobaseError):
    """The class is not of the normal form (section) + m(fiber) with m >= 2."""


class InvalidM(FanobaseError):
    """The pencil multiplicity m is outside the admissible range."""


class WrongSurface(FanobaseError):
    """The double-cover pullback is only defined for classes on the fourth Hirzebruch surface."""


class NoSection(FanobaseError):
    """Cannot subtract a section from a class with no section summand."""


# --------------------------------------------------- weighted Riemann-Roch

class WrongDimension(FanobaseError):
    """The weighted complete intersection is not a threefold."""


class NonIntegralChi(FanobaseError):
    """The Riemann-Roch value is not an integer for this degree and twist."""


class Inconsistent(FanobaseError):
    """The dimension sequence is not the Hilbert function of any complete-intersection model."""


class ModelTooLarge(FanobaseError):
    """The inferred model would have more generators and relations than the inference builds."""


# ------------------------------------------------------------ double cover

class WrongRank(FanobaseError):
    """Double-cover bookkeeping is only implemented over threefold scrolls (rank 3)."""


# ------------------------------------------------------------------ blowup

class InvalidDegree(FanobaseError):
    """A del Pezzo degree must be a positive integer."""


# -------------------------------------------------------------- classifier

class OutOfRange(FanobaseError):
    """Normal-bundle parameters must satisfy a >= b >= -2."""


class CheckFailure(FanobaseError):
    """A classification check did not hold; carries the failing check record."""

    def __init__(self, check):
        self.check = check
        super().__init__(
            f"check {check.name!r} failed: expected {check.expected!r}, got {check.got!r}"
        )
