"""Exception hierarchy for the morsemv package.

The command line front end maps these onto exit codes (see `morsemv.cli`):
input that fails to parse, a decomposition that does not cover the complex,
a vector field with a closed trajectory, and internal consistency failures
are all distinguishable to callers.
"""
from __future__ import annotations


class MorsemvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MorsemvError):
    """A text input (complex file, decomposition file, generator name) is
    malformed.  Carries the 1-based line number when one makes sense."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ComplexError(MorsemvError):
    """Invalid construction of a simplex or simplicial complex."""


class FieldError(MorsemvError):
    """A discrete vector field violates the matching conditions (a simplex
    in two pairs, a pair that is not a facet pair, ...)."""


class NotAcyclicError(FieldError):
    """A vector field admits a nontrivial closed trajectory.

    ``witness`` is the closed trajectory as an alternating tuple
    (tau_0, sigma_1, tau_1, ..., sigma_k, tau_k) with tau_k == tau_0.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class DecompositionError(MorsemvError):
    """A, B do not form a valid decomposition of X, or a supplied field
    refers to simplices outside its piece."""


class InternalConsistencyError(MorsemvError):
    """An invariant that the theory guarantees failed to hold at runtime
    (a boundary that does not square to zero, a critical-cell census that
    does not match the predicted one, ...).  Always a bug, never bad input.

    ``cycle``, set when Forman's flow ran into a cycle of its digraph (see
    `morse._flow`), lists the ids of that cycle in path order.
    """

    def __init__(self, message: str, cycle: list[int] | None = None):
        self.cycle = cycle
        super().__init__(message)
