"""The algebra of one arrangement, shared by the checks run on it.

Running several checks on one arrangement builds the same objects again:
the elimination kernel of h, the presentations, each P_{L,S}, the dz
expansions.  They are kept in one entry here, for the arrangement last
asked about.  An equal arrangement (same field, dimension and forms) finds
the entry; any other arrangement replaces it, so the memo holds one
instance and a corpus run keeps nothing of the instances it has passed.
"""

from __future__ import annotations


class InstanceContext:
    """Memoized algebra of one arrangement.

    - `kernel`: the generators of Ker(h) by elimination, or None until asked;
    - `presentations`: (super, mode, caps) -> Presentation;
    - `odd_relations`: (Relation, S) -> P_{L,S};
    - `dz_expansions`: index tuple I -> expansion of dz_I in the basis dz's;
    - `grassmann_bases`: (super, mode, caps) -> (the generators of that
      presentation, [G_0, G_1, ...]), the reduced bases of the degree
      pieces of the ideal they generate, built one degree from the last
      and only as far as a check has asked.
    """

    __slots__ = ("arrangement", "kernel", "presentations", "odd_relations",
                 "dz_expansions", "grassmann_bases")

    def __init__(self, arrangement):
        self.arrangement = arrangement
        self.kernel = None
        self.presentations: dict = {}
        self.odd_relations: dict = {}
        self.dz_expansions: dict = {}
        self.grassmann_bases: dict = {}


_current: InstanceContext | None = None


def instance_context(arr) -> InstanceContext:
    """The entry for `arr`, made anew (dropping the old one) on a change."""
    global _current
    ctx = _current
    if ctx is None or (ctx.arrangement is not arr and ctx.arrangement != arr):
        ctx = _current = InstanceContext(arr)
    return ctx

