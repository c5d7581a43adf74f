"""Exceptions shared across the package."""


class ResourceLimitError(RuntimeError):
    """A computation refused to continue past an explicit resource cap.

    Raised instead of silently truncating: enumeration guards, the
    completion-search state cap, the membership search's state cap and
    its refusal to go deeper than the recursion limit, the support-listing
    cap ``MAX_POWERSET_DIM``, and the direct-sum partition cap all end
    here.
    """


class MissingOrderUnitError(ValueError):
    """An operation needed a strictly positive finite solution and none exists."""
