"""Exception types, the integer check and the record base of the package."""


class ValidationError(ValueError):
    """Raised when input data violates a structural invariant."""


class VerificationError(Exception):
    """Raised when a verification check fails.

    Carries a machine-readable witness so callers can reproduce the
    failure in isolation.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SubdiagramInsufficientError(VerificationError):
    """The sampled subdiagram is too coarse for the requested check.

    This is a reportable outcome, not a bug: the full diagram of
    commutative subalgebras is infinite and the finite sample may miss
    identifications.  Callers must surface this rather than accept a
    partial answer.
    """


def is_int(value) -> bool:
    """Whether value is an integer; a bool does not count as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_int(value, what: str) -> int:
    """value as a plain int; a ValidationError when it is a bool or not
    an integer, so that no input is silently truncated."""
    if not is_int(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


class Record:
    """Field-wise == and a repr naming the fields, read from __slots__,
    which list the fields in constructor order.  Unhashable, as a
    mutable value is; a FrozenRecord hashes by its fields."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record never changed after construction, so hashable."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())
