"""Shared exception types."""


class ResourceLimitError(ValueError):
    """An enumeration or closure exceeded one of the module constants that cap it."""


class InternalCheckError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""
