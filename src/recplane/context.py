"""The algebra of one arrangement, shared by the checks run on it.

Running several checks on one arrangement builds the same objects again:
the elimination kernel of h and the presentations, each of which carries
its own Grassmann chain.  They are kept in one entry here, for the
arrangement last asked about.  An equal arrangement (same field, dimension
and forms) finds the entry; any other arrangement replaces it, so the memo
holds one instance and a corpus run keeps nothing of the instances it has
passed.
"""

from __future__ import annotations


class InstanceContext:
    """Memoized algebra of one arrangement.

    - `kernel`: the generators of Ker(h) by elimination, or None until asked;
    - `presentations`: (super, mode, caps) -> Presentation.
    """

    __slots__ = ("arrangement", "kernel", "presentations")

    def __init__(self, arrangement):
        self.arrangement = arrangement
        self.kernel = None
        self.presentations: dict = {}


_current: InstanceContext | None = None


def instance_context(arr) -> InstanceContext:
    """The entry for `arr`, made anew (dropping the old one) on a change."""
    global _current
    ctx = _current
    if ctx is None or (ctx.arrangement is not arr and ctx.arrangement != arr):
        ctx = _current = InstanceContext(arr)
    return ctx
