"""A log-structured filesystem variant (the §4.2.5 discussion extension).

In LFS, data blocks are appended to a log in write order, so *temporal*
write locality — not i-number order — predicts spatial layout.  The
paper's discussion points out that porting FLDC to LFS is a matter of
swapping the layout-knowledge module: "the ICL could take advantage of
the knowledge that writes that occur near one another in time lead to
proximity in space."

This implementation reuses the FFS namespace machinery and replaces the
block allocator with a log head.  No cleaner is modelled: the simulated
disks are far larger than any experiment writes, and segment cleaning is
orthogonal to the layout-inference question the extension studies.
Freed blocks are simply abandoned (they would be reclaimed by a cleaner).
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.errors import NoSpace
from repro.sim.fs.ffs import FFS
from repro.sim.fs.inode import Inode


class LogStructuredFS(FFS):
    """FFS namespace + a bump-pointer log allocator.

    Inode numbering still comes from the FFS tables (applications see
    the same stat() interface), but i-numbers no longer predict layout —
    which is exactly what makes the FLDC knowledge-module swap
    observable: i-number ordering loses, write-time ordering wins.
    """

    # Initialized lazily: FFS.__init__ allocates the root directory's
    # blocks before a subclass __init__ could run.
    _log_head: Optional[int] = None
    _log_end: Optional[int] = None

    def alloc_blocks(
        self, want: int, preferred_cg: int, hint: Optional[int] = None
    ) -> List[int]:
        """Append ``want`` blocks at the log head, ignoring placement hints."""
        blocks = self._log_run(want)
        # Keep the group bitmaps consistent so free-space accounting and
        # double-free checks still work.
        for block in blocks:
            cg = self.cg_of_block(block)
            cg._bitmap[block - cg.data_first] = 1
            cg.free_block_count -= 1
            cg.changed.add(cg.index)
        self._free_blocks -= len(blocks)
        if blocks:
            self._log_head = blocks[-1] + 1
        return blocks

    def _log_run(self, want: int) -> List[int]:
        """The next ``want`` blocks from the log head, none taken yet.

        Raises NoSpace when the log would run past the disk's end.
        """
        if want <= 0:
            return []
        if self._log_head is None:
            # The log begins after the first group's inode table and
            # only ever moves forward.
            self._log_head = self.group(0).data_first
            self._log_end = self.ngroups * self.blocks_per_cg
        blocks: List[int] = []
        head = self._log_head
        while len(blocks) < want:
            if head >= self._log_end:
                raise NoSpace(f"lfs{self.fs_id}: log wrapped without a cleaner")
            cg = self.cg_of_block(head)
            if head < cg.data_first:
                head = cg.data_first  # skip inode-table regions
                continue
            blocks.append(head)
            head += 1
        return blocks

    def check_room(self, want: int) -> None:
        """Raise NoSpace unless the log can take ``want`` more blocks.

        Freed blocks behind the head do not count: without a cleaner the
        log never reuses them.
        """
        self._log_run(want)

    def free_block_list(self, blocks: List[int]) -> None:
        """Freed blocks become dead segments awaiting a (non-modelled) cleaner."""
        for block in blocks:
            cg = self.cg_of_block(block)
            if cg._bitmap[block - cg.data_first]:
                cg._bitmap[block - cg.data_first] = 0
                cg.free_block_count += 1
                cg.changed.add(cg.index)
                self._free_blocks += 1

    def rewrite_pages(self, inode: Inode, first: int, last: int) -> None:
        """Copy-on-write: overwritten pages move to the log head."""
        covered = [i for i in range(first, last + 1) if i < len(inode.blocks)]
        if not covered:
            return
        old = [inode.blocks[i] for i in covered]
        fresh = self.alloc_blocks(len(covered), preferred_cg=0)
        for index, block in zip(covered, fresh):
            inode.blocks[index] = block
        self.free_block_list(old)
