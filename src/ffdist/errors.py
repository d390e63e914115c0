"""Exception types shared across the package.

Each class carries the CLI's exit code and stderr label for it: a
configuration problem unless a subclass says otherwise.
"""


class FFDistError(Exception):
    """Base class for every error raised by this package."""

    exit_code, label = 2, "config error"


class ConfigError(FFDistError):
    """Invalid experiment configuration (bad flag value, missing file, ...)."""


# field construction and arithmetic

class NonPrime(FFDistError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(FFDistError):
    """The supplied modulus polynomial is reducible over F_p."""


class DegreeOutOfRange(FFDistError):
    """Extension degree outside the supported range, or modulus of wrong degree."""


class MixedFields(FFDistError):
    """Two operands belong to different field specifications."""


# polynomial parsing and evaluation

class PolynomialSyntaxError(FFDistError):
    """The polynomial text does not match the term grammar."""


class VariableOutOfRange(FFDistError):
    """A variable index is outside x1..xd."""


class ZeroPolynomial(FFDistError):
    """All terms cancelled, or the polynomial has no term of degree >= 1."""


class ArityMismatch(FFDistError):
    """A point or polynomial has the wrong number of coordinates."""


# hypothesis checks

class IsoUnavailable(FFDistError):
    """No element i with i*i = -1 exists in this field."""

    exit_code, label = 3, "hypothesis violation"


# sets and distances

class EmptySet(FFDistError):
    """An operation requires a nonempty point set."""


class DimensionMismatch(FFDistError):
    """Point sets or polynomials disagree on the ambient dimension."""


# numerics

class RoundingDivergence(FFDistError):
    """A value that must be an integer strayed too far from one."""

    exit_code, label = 4, "numeric failure"
