"""Domain errors and the value-type base shared by all calculus modules.

Every error raised on bad mathematical input derives from
:class:`FanobaseError`, so callers (in particular the command line
front end) can map the whole family to a single "domain error" outcome.
Every value type derives from :class:`Value`, and every public function
that takes a typed argument is :func:`checked`: one generator compiles
both the value types' and the functions' refusals of a wrong type, of a
whole argument and of each entry of one declared ``tuple[T, ...]``.
"""

from functools import update_wrapper
from operator import attrgetter


class Value:
    """Immutable value whose fields are declared once, in ``__slots__``.

    A subclass maps each field name in ``__slots__`` to the type it accepts
    (``int``, a class, a union such as ``NormalBundle | None``, ``object``
    for any, ``tuple[T, ...]`` for a list or a tuple of T) or to a pair
    ``(type, default)``; a further rule (a >= b, an even branch) is a static
    method ``_validate`` of the fields that raises.  From that the base
    compiles the constructor once per class, as ``dataclasses`` does: an
    inline ``type(x) is int`` test per int field, falling back to
    ``require_integers`` (an int subclass passes, stored as given),
    ``type(x) is not T`` per other field, then per ``tuple[T, ...]`` field
    ``tuple(x)`` and the test of a T field on each entry, ``_validate``, and
    one call per field of its slot's setter.  It is ``_store``, and
    ``__init__`` except in ``Scroll``, the one class that writes its own (it
    sorts its twists once they are integers) and then calls ``_store``.  A
    refusal names the class by ``_noun``, and ``__slots__`` then reads as
    the tuple of field names.  The same generator compiles the checks of a
    :func:`checked` function from its parameters' annotations.
    A subclass also gets equality by class and fields, a hash by fields,
    the repr ``Name(field=value, ...)``, pickling and copying through its
    constructor, and refuses assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, cls.__slots__ = cls.__slots__, tuple(cls.__slots__)
        # DivisorClass is "a divisor class", unless the class gives its own _noun
        cls._noun = vars(cls).get("_noun") or "a" + "".join(f" {c.lower()}" if c.isupper() else c
                                                            for c in cls.__name__)
        cls._key = attrgetter(*cls.__slots__)
        cls._set = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._store = _constructor(cls, fields)
        if "__init__" not in vars(cls):
            cls.__init__ = cls._store

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


def _constructor(cls, fields: dict):
    """The constructor of ``cls``, compiled from its declared ``fields`` (see :class:`Value`)."""
    defaults = []
    for name, declared in fields.items():
        if type(declared) is tuple:
            fields[name], default = declared
            defaults.append(default)
    validate = getattr(cls, "_validate", None)
    tail = [f"validate({', '.join(fields)})"] if validate else []
    tail += [f"set_{i}(self, {name})" for i, name in enumerate(fields)]
    setters = {f"set_{i}": setter for i, setter in enumerate(cls._set)}
    init = _compiled("__init__", cls._noun, {"self": object, **fields}, tail, {"validate": validate, **setters})
    init.__qualname__, init.__annotations__ = f"{cls.__qualname__}.__init__", fields
    init.__defaults__ = tuple(defaults)
    return init


def checked(func):
    """``func`` behind the compiled refusal of every argument that is not of its annotated type.

    The checks are those of a value type's constructor (see :class:`Value`),
    read from the parameters' annotations (an unannotated one takes
    anything) and named by the function's name; the wrapper keeps the
    parameters, their defaults, the name, docstring and annotations, and
    ``__wrapped__`` points at ``func``.
    """
    code = func.__code__
    names = code.co_varnames[:code.co_argcount]
    fields = {name: func.__annotations__.get(name, object) for name in names}
    wrapper = _compiled(func.__name__, func.__name__, fields, [f"return func({', '.join(names)})"], {"func": func})
    wrapper.__defaults__ = func.__defaults__
    return update_wrapper(wrapper, func)


def _compiled(function: str, noun: str, fields: dict, tail: list, namespace: dict):
    """The function ``function`` of the parameters ``fields``, compiled to refuse in the words of
    ``noun`` an argument not of its declared type (see :class:`Value`) and then to run the
    lines ``tail`` in ``namespace``."""
    namespace.update(noun=noun, require_integers=require_integers, refuse=_refuse)

    def test(name, declared, key):
        """The test that ``name`` is not of the type ``declared``, kept as ``key``, and its words."""
        kinds = getattr(declared, "__args__", (declared,))  # a union's members
        namespace[key] = kinds if len(kinds) > 1 else declared
        return (f"type({name}) {'not in' if len(kinds) > 1 else 'is not'} {key}",
                " or ".join(_NOUNS.get(kind) or getattr(kind, "_noun", f"a {kind.__name__}") for kind in kinds))

    ints, tests, entries = [], [], []
    for i, (name, declared) in enumerate(fields.items()):
        if getattr(declared, "__origin__", None) is tuple:  # tuple[T, ...]: a list or a tuple of T
            entry, _ = declared.__args__
            check = (f"if type(entry_) is not int: require_integers(noun, {name}); break" if entry is int
                     else "if {}: refuse(noun, {!r}, (entry_,))".format(*test("entry_", entry, f"entry_{i}")))
            entries.append(f"{name} = tuple({name})\n    for entry_ in {name}:\n        {check}")
            declared = list | tuple
        if declared is int:
            ints.append(name)
        elif declared is not object:
            tests.append((name, *test(name, declared, f"type_{i}")))
    body = []
    if ints:
        tested = " or ".join(f"type({name}) is not int" for name in ints)
        body.append(f"if {tested}: require_integers(noun, ({', '.join(ints)},))")
    if tests:
        others, tested, needs = zip(*tests)
        namespace["needs"] = _listing(needs)
        body.append(f"if {' or '.join(tested)}: refuse(noun, needs, ({', '.join(others)},))")
    exec(f"def {function}({', '.join(fields)}):\n    " + "\n    ".join(body + entries + tail), namespace)
    return namespace[function]


# how a refusal names a field type that has no _noun of its own
_NOUNS = {int: "an integer", str: "a string", tuple: "a tuple", type(None): "None"}


def _listing(words) -> str:
    """``a``, ``a and b``, ``a, b and c``."""
    *rest, last = words
    return f"{', '.join(rest)} and {last}" if rest else last


def _refuse(noun: str, needs: str, values: tuple):
    raise FanobaseError(f"{noun} needs {needs}, got {_listing([repr(v) for v in values])}")


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
