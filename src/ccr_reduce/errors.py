"""Exception types shared across the package."""


class CcrReduceError(Exception):
    """Base class for package errors."""


class MassMismatchError(CcrReduceError, ValueError):
    """Operands carry different mass parameters, or a boost was applied to m != 0."""


class GroupMismatchError(CcrReduceError, ValueError):
    """Group elements from different groups were combined."""


class QuadratureError(CcrReduceError, RuntimeError):
    """A quadrature did not converge within its budget."""


class ZeroModeDivergenceError(CcrReduceError, RuntimeError):
    """Field average requested for a field with a nonzero zero-mode slice."""


class ZeroModeUndefinedError(CcrReduceError, ValueError):
    """Zero-mode coefficient requested but no canonical choice is available."""


class NegativeFormError(CcrReduceError, ValueError):
    """A quadratic-form diagonal that must be nonnegative came out negative."""


class NonSymplecticError(CcrReduceError, ValueError):
    """A claimed symplectic matrix fails the determinant-one test."""


class DomainError(CcrReduceError, ValueError):
    """Argument outside the domain of a special function."""
