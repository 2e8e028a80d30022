"""Exception hierarchy for the engine.

Every error that corresponds to bad user input (rather than an internal
invariant violation) derives from :class:`InputError`, which the CLI maps to
exit code 2.  Errors raised while validating mathematical structures carry the
first offending index tuple (0-based) so callers can report the exact witness.
"""
from __future__ import annotations


class BaxterError(Exception):
    """Base class for all engine errors."""


class InputError(BaxterError):
    """Bad user input: unparsable literals, invalid parameters, bad files."""


# ---------------------------------------------------------------------------
# field construction / arithmetic


class NonPrimeCharacteristic(InputError):
    """The requested characteristic is not a prime number."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"characteristic {p} is not prime")


class DegreeMismatch(InputError):
    """Modulus is not a monic polynomial of the requested degree."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(
            f"modulus must be monic of degree {expected}, got degree {got}"
        )


class ReducibleModulus(InputError):
    """Modulus polynomial factors over the prime field."""

    def __init__(self, modulus: int, factor: int):
        self.modulus = modulus
        self.factor = factor
        super().__init__(
            f"modulus {bin(modulus)} is reducible (divisible by {bin(factor)})"
        )


class FieldMismatch(BaxterError):
    """Operands belong to different fields."""


class DivisionByZero(BaxterError):
    """Multiplicative inverse of the zero element was requested."""


class WrongCharacteristic(InputError):
    """Operation requires a field of a specific characteristic."""


# ---------------------------------------------------------------------------
# structure constants / algebra validation


class ValidationError(BaxterError):
    """An algebra axiom failed; carries the first offending index tuple."""

    def __init__(self, message: str, indices: tuple[int, ...]):
        self.indices = indices
        super().__init__(message)

    @staticmethod
    def basis(indices: tuple[int, ...]) -> str:
        return ", ".join(f"e{i + 1}" for i in indices)


class NotAlternating(ValidationError):
    def __init__(self, i: int, k: int):
        super().__init__(
            f"[e{i + 1}, e{i + 1}] has a nonzero coefficient on e{k + 1}",
            (i, k),
        )


class NotAntisymmetric(ValidationError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(
            f"[e{i + 1}, e{j + 1}] + [e{j + 1}, e{i + 1}] is nonzero on e{k + 1}",
            (i, j, k),
        )


class JacobiFailure(ValidationError):
    def __init__(self, i: int, j: int, k: int, m: int):
        super().__init__(
            "Jacobi identity fails for "
            f"(e{i + 1}, e{j + 1}, e{k + 1}) on e{m + 1}",
            (i, j, k, m),
        )


class AssociativityFailure(ValidationError):
    def __init__(self, i: int, j: int, k: int, m: int):
        super().__init__(
            "associativity fails for "
            f"(e{i + 1}, e{j + 1}, e{k + 1}) on e{m + 1}",
            (i, j, k, m),
        )


class DimensionMismatch(BaxterError):
    """Tensor/algebra dimensions do not agree."""


class SingularMatrix(InputError):
    """A basis-change matrix is not invertible."""


# ---------------------------------------------------------------------------
# classification / search


class CaseNotCovered(BaxterError):
    """Parameter pair falls outside the classified solution cases."""

    def __init__(self, beta, delta):
        self.beta = beta
        self.delta = delta
        super().__init__(
            f"no classified case for beta={beta}, delta={delta} "
            "(beta != 0 requires delta = 1)"
        )


class SweepTooLarge(InputError):
    """Requested enumeration exceeds the hard size guard."""

    def __init__(self, total: int, limit: int):
        self.total = total
        self.limit = limit
        super().__init__(
            f"enumeration of {total} tensors exceeds the guard of {limit}"
        )


class HelperExited(BaxterError):
    """A sweep helper process exited in the middle of a task."""

    def __init__(self, exitcode: int | None):
        self.exitcode = exitcode
        super().__init__(
            f"a sweep helper process exited with code {exitcode}"
        )


class UnknownClaim(InputError):
    def __init__(self, claim: str, known: tuple[str, ...]):
        self.claim = claim
        self.known = known
        super().__init__(
            f"unknown claim {claim!r}; known claims: {', '.join(known)}"
        )


class ParseError(InputError):
    """Literal or file parsing failed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message + where)
