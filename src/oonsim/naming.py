"""Trusted allocation of top-level identifiers and per-domain id minting.

One authority hands out globally unique GlobalIds to domains; each
allocation comes with a local allocator minting ``<GlobalId/LocalId>``
names.  Counters are sequential so runs are deterministic; uniqueness is
all the architecture requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import OonError, PName, U64_MAX


class Exhausted(OonError):
    pass


@dataclass
class LocalAllocator:
    """Mints local ids under one allocated GlobalId; never re-issues."""

    global_id: int
    next_local: int = 1

    def mint_pname(self) -> PName:
        if self.next_local > U64_MAX:
            raise Exhausted(f"local ids under global {self.global_id} exhausted")
        p = PName(self.global_id, self.next_local)
        self.next_local += 1
        return p


class Authority:
    """IANA-like allocator of top-level identifiers.

    GlobalIds are strictly increasing and recorded per requesting domain,
    so the number of distinct prefixes is the number of allocation calls,
    independent of how many objects each domain names.
    """

    def __init__(self):
        self.next_global = 1
        self.allocations = {}  # domain id -> set of GlobalId

    def allocate_global_id(self, domain: str) -> int:
        if self.next_global > U64_MAX:
            raise Exhausted("global id space exhausted")
        gid = self.next_global
        self.next_global += 1
        self.allocations.setdefault(domain, set()).add(gid)
        return gid

    def new_allocator(self, domain: str) -> LocalAllocator:
        """Allocate a fresh GlobalId to `domain` and wrap it in an allocator.

        The only way to obtain an allocator, so no two allocators ever
        share a GlobalId.
        """
        return LocalAllocator(self.allocate_global_id(domain))
