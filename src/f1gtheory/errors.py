"""Shared exception types, and the one place a resource limit refuses."""


class ResourceLimitError(ValueError):
    """An enumeration or closure exceeded one of the module constants that cap it."""


class InternalCheckError(RuntimeError):
    """A structural self-check failed; indicates a bug, not bad input."""


def charge(name: str, count: int, cap: int, what: str) -> None:
    """Refuse work whose `count` of `what` passes the limit `name` = `cap`.

    Every resource limit is charged here, before the work it bounds; the
    count may be a lower bound of that work.
    """
    if count > cap:
        raise ResourceLimitError(f"{what} reaches {count}, past {name} = {cap}")
