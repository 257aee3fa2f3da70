"""Exception types shared across the package, and the strict integer rule
the input parsers share.

The split mirrors the CLI exit codes: bad input, an internal guarantee that
broke, a budget that ran out, and concrete evidence against a property the
construction is supposed to enforce.
"""

import contextlib


class PreconditionError(ValueError):
    """An input violates a documented precondition."""


class InternalInconsistencyError(RuntimeError):
    """Something the implementation itself guarantees failed to hold."""


class EnumerationCapExceeded(RuntimeError):
    """An enumeration outgrew its element budget."""


class FalsificationError(RuntimeError):
    """A property the construction guarantees failed on a concrete instance."""


def as_int(value, what: str) -> int:
    """An integer from a text token or JSON value; floats and bools are
    refused rather than truncated."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return int(value)
    raise PreconditionError(f"{what} is not an integer: {value!r}")
