"""Fast-File-System-style allocator: cylinder groups, inodes, block runs.

The allocation policy is the gray-box knowledge FLDC depends on
(§4.2.1), reproduced structurally:

* the disk is split into cylinder groups (a few consecutive cylinders),
  each built the first time an inode, block, allocation or placement
  reaches it — a file system touches a few of its hundreds of groups;
* a new *directory* goes to the emptiest cylinder group;
* a new *file's* inode comes from its directory's group, lowest free
  i-number first — so creation order within a fresh directory is
  i-number order;
* a file's *data blocks* are allocated first-fit-contiguous inside the
  same group (spilling to later groups when full) — so on a fresh
  filesystem, i-number order is layout order;
* deletions punch holes that later creations fill first-fit, which is
  precisely how aging decorrelates i-numbers from layout (Figure 6).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.errors import FileExists, FileNotFound, InvalidArgument, NoSpace
from repro.sim.fs.directory import DIRENT_BYTES, Directory
from repro.sim.fs.inode import INODE_BYTES, FileKind, Inode

ROOT_INO = 1


class CylinderGroup:
    """One cylinder group: an inode table plus a data-block bitmap.

    Every change to its free block or inode count adds its index to
    ``changed``, the set through which its file system keeps the
    directory placement heap current.
    """

    def __init__(
        self,
        index: int,
        first_block: int,
        nblocks: int,
        inodes_per_cg: int,
        block_bytes: int,
        changed: Set[int],
    ) -> None:
        self.index = index
        self.changed = changed
        self.first_block = first_block
        self.inodes_per_cg = inodes_per_cg
        self.itable_blocks = -(-inodes_per_cg * INODE_BYTES // block_bytes)
        if self.itable_blocks >= nblocks:
            raise InvalidArgument(
                f"cylinder group of {nblocks} blocks cannot hold its inode table"
            )
        self.data_first = first_block + self.itable_blocks
        self.data_blocks = nblocks - self.itable_blocks
        # 0 = free, 1 = used; indexed by (block - data_first).
        self._bitmap = bytearray(self.data_blocks)
        self.free_block_count = self.data_blocks
        # Rotating allocation cursor (FFS's cg_rotor): fresh allocations
        # start where the previous one ended rather than at the group
        # start.  This is what decorrelates reused i-numbers from block
        # positions as a directory ages — deleted files leave holes
        # *behind* the rotor while their recycled i-numbers are the
        # *lowest* free ones (Figure 6's degradation).
        self.rotor = 0
        # Lowest-free-first inode slots: every slot at or above the
        # high-water mark is free; slots freed below it are recycled
        # through a min-heap (plus a set for the double-free check).
        self._next_slot = 0
        self._recycled_heap: List[int] = []
        self._recycled: Set[int] = set()

    # --- inodes -------------------------------------------------------
    @property
    def free_inode_count(self) -> int:
        return len(self._recycled) + self.inodes_per_cg - self._next_slot

    def alloc_inode_slot(self) -> Optional[int]:
        if self._recycled_heap:
            slot = heapq.heappop(self._recycled_heap)
            self._recycled.remove(slot)
            self.changed.add(self.index)
            return slot
        if self._next_slot < self.inodes_per_cg:
            slot = self._next_slot
            self._next_slot += 1
            self.changed.add(self.index)
            return slot
        return None

    def free_inode_slot(self, slot: int) -> None:
        if slot in self._recycled or not 0 <= slot < self._next_slot:
            raise InvalidArgument(f"free of unallocated inode slot {slot} in cg {self.index}")
        self._recycled.add(slot)
        heapq.heappush(self._recycled_heap, slot)
        self.changed.add(self.index)

    # --- blocks -------------------------------------------------------
    def alloc_run(self, want: int, hint: Optional[int] = None) -> List[int]:
        """Allocate up to ``want`` blocks, first-fit from ``hint`` (absolute).

        Returns absolute block numbers; may return fewer than ``want``
        (the caller spills to the next group).  Runs are contiguous where
        the free space allows, fragmenting naturally around holes.
        """
        if self.free_block_count == 0 or want <= 0:
            return []
        if hint is not None and hint > self.data_first:
            start_rel = min(hint - self.data_first, self.data_blocks)
        else:
            start_rel = min(self.rotor, self.data_blocks)
        got: List[int] = []
        bitmap = self._bitmap
        for sweep in (start_rel, 0):
            pos = sweep
            while len(got) < want:
                free_at = bitmap.find(0, pos)
                if free_at < 0:
                    break
                used_at = bitmap.find(1, free_at)
                run_end = used_at if used_at >= 0 else self.data_blocks
                take = min(run_end - free_at, want - len(got))
                for rel in range(free_at, free_at + take):
                    bitmap[rel] = 1
                got.extend(self.data_first + rel for rel in range(free_at, free_at + take))
                pos = free_at + take
            if len(got) >= want or sweep == 0 or start_rel == 0:
                break
        self.free_block_count -= len(got)
        if got:
            self.changed.add(self.index)
            self.rotor = got[-1] + 1 - self.data_first
            if self.rotor >= self.data_blocks:
                self.rotor = 0
        return got

    def free_block(self, block: int) -> None:
        rel = block - self.data_first
        if not 0 <= rel < self.data_blocks:
            raise InvalidArgument(f"block {block} is not in cg {self.index}")
        if not self._bitmap[rel]:
            raise InvalidArgument(f"double free of block {block} in cg {self.index}")
        self._bitmap[rel] = 0
        self.free_block_count += 1
        self.changed.add(self.index)


class FFS:
    """One mounted FFS instance on one disk."""

    def __init__(
        self,
        fs_id: int,
        total_blocks: int,
        block_bytes: int,
        blocks_per_cg: int = 2048,
        inodes_per_cg: int = 1024,
        alloc_gap: int = 0,
    ) -> None:
        if total_blocks < blocks_per_cg:
            raise InvalidArgument("filesystem smaller than one cylinder group")
        if alloc_gap < 0:
            raise InvalidArgument("alloc_gap cannot be negative")
        self.fs_id = fs_id
        self.block_bytes = block_bytes
        self.blocks_per_cg = blocks_per_cg
        self.inodes_per_cg = inodes_per_cg
        self.alloc_gap = alloc_gap
        self.ngroups = total_blocks // blocks_per_cg
        # Groups are built on first use (see group()); None until then.
        self._groups: List[Optional[CylinderGroup]] = [None] * self.ngroups
        # Directory placement (see pick_cg_for_directory): a heap of
        # (-free blocks, -free inodes, index) over built groups, stale
        # entries dropped lazily; the groups whose counts changed since
        # it was last brought up to date; and the lowest index that may
        # still be unbuilt.
        self._placement: List[Tuple[int, int, int]] = []
        self._changed: Set[int] = set()
        self._unbuilt_from = 0
        cg0 = self.group(0)
        # Running sum of every group's free_block_count, kept by the
        # allocation paths so the NoSpace precheck is O(1).  Every group
        # has the same number of data blocks.
        self._free_blocks = self.ngroups * cg0.data_blocks
        self.inodes: Dict[int, Inode] = {}
        self.directories: Dict[int, Directory] = {}
        # Reserve global ino 0 as invalid, like real FFS.
        cg0._next_slot = 1
        self._make_root()

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def group(self, index: int) -> CylinderGroup:
        """Cylinder group ``index``, built the first time anything reaches it."""
        cg = self._groups[index]
        if cg is None:
            cg = self._groups[index] = CylinderGroup(
                index, index * self.blocks_per_cg, self.blocks_per_cg,
                self.inodes_per_cg, self.block_bytes, self._changed,
            )
            self._changed.add(index)
        return cg

    def cg_of_inode(self, ino: int) -> CylinderGroup:
        return self.group(ino // self.inodes_per_cg)

    def cg_of_block(self, block: int) -> CylinderGroup:
        return self.group(block // self.blocks_per_cg)

    def inode_table_block(self, ino: int) -> int:
        """Absolute disk block holding this inode's on-disk image."""
        index, slot = divmod(ino, self.inodes_per_cg)
        return index * self.blocks_per_cg + slot * INODE_BYTES // self.block_bytes

    def get_inode(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FileNotFound(f"fs{self.fs_id}: no inode #{ino}") from None

    def get_directory(self, ino: int) -> Directory:
        inode = self.get_inode(ino)
        if not inode.is_dir:
            raise InvalidArgument(f"inode #{ino} is not a directory")
        return self.directories[ino]

    @property
    def root(self) -> Directory:
        return self.directories[ROOT_INO]

    def free_blocks_total(self) -> int:
        return self._free_blocks

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _alloc_inode(self, preferred_cg: int) -> int:
        n = self.ngroups
        for offset in range(n):
            cg = self.group((preferred_cg + offset) % n)
            slot = cg.alloc_inode_slot()
            if slot is not None:
                return cg.index * self.inodes_per_cg + slot
        raise NoSpace(f"fs{self.fs_id}: out of inodes")

    def _free_inode(self, ino: int) -> None:
        self.cg_of_inode(ino).free_inode_slot(ino % self.inodes_per_cg)

    def alloc_blocks(self, want: int, preferred_cg: int, hint: Optional[int] = None) -> List[int]:
        """Allocate ``want`` blocks, preferring the given group, spilling onward.

        The hint applies to the preferred group only.  A built group with
        no free block is passed over without a call.
        """
        if want <= 0:
            return []
        if want > self.free_blocks_total():
            raise NoSpace(f"fs{self.fs_id}: need {want} blocks, fewer free")
        blocks: List[int] = []
        groups = self._groups
        n = self.ngroups
        for offset in range(n):
            index = (preferred_cg + offset) % n
            cg = groups[index]
            if cg is None:
                cg = self.group(index)
            elif not cg.free_block_count:
                continue
            use_hint = hint if offset == 0 else None
            got = cg.alloc_run(want - len(blocks), use_hint)
            self._free_blocks -= len(got)
            if got and self.alloc_gap:
                # Loose packing (solaris7 personality): leave a hole
                # after each allocation request.
                cg.rotor = (cg.rotor + self.alloc_gap) % cg.data_blocks
            blocks.extend(got)
            if len(blocks) == want:
                return blocks
        raise NoSpace(f"fs{self.fs_id}: allocator found only {len(blocks)}/{want}")

    def free_block_list(self, blocks: List[int]) -> None:
        for block in blocks:
            self.cg_of_block(block).free_block(block)
            self._free_blocks += 1

    def check_room(self, want: int) -> None:
        """Raise NoSpace unless ``want`` more blocks can be allocated.

        A namespace operation calls it with every block it will
        allocate before its first change, so on a full disk it leaves
        the file system exactly as it was.  Allocations that fit the
        free total never fail.
        """
        if want > self._free_blocks:
            raise NoSpace(f"fs{self.fs_id}: need {want} blocks, fewer free")

    def pick_cg_for_directory(self) -> int:
        """FFS heuristic: put a new directory in the emptiest group.

        The emptiest is the group with the most free blocks, then free
        inodes, lowest index on ties.  An unbuilt group is full, the
        largest key any group can have.  So while one exists, the answer
        is the lowest-index group at that key: the lowest unbuilt group,
        or a built group below it that is back to full.  The placement
        heap's top is the built group with the largest key, lowest index
        on ties; it is brought up to date here with the groups whose
        counts changed since the last call.
        """
        heap = self._placement
        groups = self._groups
        for index in self._changed:
            cg = groups[index]
            heapq.heappush(heap, (-cg.free_block_count, -cg.free_inode_count, index))
        self._changed.clear()
        while True:
            neg_blocks, neg_inodes, index = heap[0]
            top = groups[index]
            if -neg_blocks == top.free_block_count and -neg_inodes == top.free_inode_count:
                break
            heapq.heappop(heap)
        n = self.ngroups
        if len(heap) > 2 * n:
            # Bound the stale entries: rebuild from the built groups.
            heap[:] = [
                (-cg.free_block_count, -cg.free_inode_count, cg.index)
                for cg in groups if cg is not None
            ]
            heapq.heapify(heap)
        unbuilt = self._unbuilt_from
        while unbuilt < n and groups[unbuilt] is not None:
            unbuilt += 1
        self._unbuilt_from = unbuilt
        top_is_full = -neg_blocks == top.data_blocks and -neg_inodes == top.inodes_per_cg
        if unbuilt < n and (index > unbuilt or not top_is_full):
            return unbuilt
        return index

    # ------------------------------------------------------------------
    # Namespace operations (timing-free; the kernel charges I/O)
    # ------------------------------------------------------------------
    def _make_root(self) -> None:
        cg0 = self.group(0)
        slot = cg0.alloc_inode_slot()
        ino = slot  # cg 0, so global ino == slot; slot 0 was reserved → ino 1
        if ino != ROOT_INO:
            raise RuntimeError(f"root inode landed at #{ino}, expected #{ROOT_INO}")
        inode = Inode(ino=ino, fs_id=self.fs_id, kind=FileKind.DIRECTORY, nlink=2)
        self.inodes[ino] = inode
        self.directories[ino] = Directory(ino=ino, parent_ino=ino)
        self._grow_directory(ino)

    def _dir_growth(self, ino: int, entries: int) -> int:
        """Blocks directory ``ino`` must gain to hold ``entries`` more entries."""
        nbytes = self.directories[ino].data_bytes() + entries * DIRENT_BYTES
        return max(-(-nbytes // self.block_bytes) - len(self.inodes[ino].blocks), 0)

    def _grow_directory(self, ino: int) -> List[Tuple[int, int]]:
        """Ensure the directory's data blocks cover its entries."""
        inode = self.get_inode(ino)
        directory = self.directories[ino]
        inode.size = directory.data_bytes()
        return self.grow_to_size(inode, inode.size)

    def grow_to_size(self, inode: Inode, new_size: int) -> List[Tuple[int, int]]:
        """Extend the block map to cover ``new_size`` bytes.

        Returns newly mapped (page_index, block) pairs.  The hint chains
        new blocks after the file's current tail so appends stay
        contiguous.
        """
        need_pages = -(-new_size // self.block_bytes) if new_size else 0
        added: List[Tuple[int, int]] = []
        if need_pages <= len(inode.blocks):
            inode.size = max(inode.size, new_size)
            return added
        want = need_pages - len(inode.blocks)
        hint = inode.blocks[-1] + 1 if inode.blocks else None
        preferred = self.cg_of_inode(inode.ino).index
        new_blocks = self.alloc_blocks(want, preferred, hint)
        for block in new_blocks:
            added.append((len(inode.blocks), block))
            inode.blocks.append(block)
        inode.size = max(inode.size, new_size)
        return added

    def rewrite_pages(self, inode: Inode, first: int, last: int) -> None:
        """Hook for overwrite semantics; FFS updates blocks in place.

        Log-structured descendants override this to reallocate the
        written pages at the log head (copy-on-write into the log).
        """

    def create(self, parent_ino: int, name: str, kind: FileKind, now_ns: int) -> Inode:
        """Create a file or directory entry under ``parent_ino``.

        Raises NoSpace, with nothing changed, when the disk cannot take
        the parent's grown entry list and a new directory's own block.
        """
        parent = self.get_directory(parent_ino)
        if parent.contains(name):
            raise FileExists(f"{name!r} already exists")
        want = self._dir_growth(parent_ino, 1)
        if kind is FileKind.DIRECTORY:
            # A new directory holds '.' and '..'.
            want += -(-2 * DIRENT_BYTES // self.block_bytes)
        self.check_room(want)
        if kind is FileKind.DIRECTORY:
            cg_index = self.pick_cg_for_directory()
        else:
            cg_index = self.cg_of_inode(parent_ino).index
        ino = self._alloc_inode(cg_index)
        inode = Inode(ino=ino, fs_id=self.fs_id, kind=kind)
        inode.stamp(now_ns, access=True, modify=True, change=True)
        self.inodes[ino] = inode
        if kind is FileKind.DIRECTORY:
            inode.nlink = 2
            self.directories[ino] = Directory(ino=ino, parent_ino=parent_ino)
            self._grow_directory(ino)
            self.get_inode(parent_ino).nlink += 1
        parent.add(name, ino)
        self._grow_directory(parent_ino)
        self.get_inode(parent_ino).stamp(now_ns, modify=True, change=True)
        return inode

    def unlink(self, parent_ino: int, name: str, now_ns: int) -> Tuple[Inode, List[int]]:
        """Remove a file entry; returns the dead inode and its freed blocks."""
        parent = self.get_directory(parent_ino)
        ino = parent.lookup(name)
        inode = self.get_inode(ino)
        if inode.is_dir:
            raise InvalidArgument(f"{name!r} is a directory; use rmdir")
        parent.remove(name)
        self.get_inode(parent_ino).stamp(now_ns, modify=True, change=True)
        inode.nlink -= 1
        freed = list(inode.blocks)
        self.free_block_list(freed)
        inode.blocks.clear()
        del self.inodes[ino]
        self._free_inode(ino)
        return inode, freed

    def rmdir(self, parent_ino: int, name: str, now_ns: int) -> Tuple[Inode, List[int]]:
        from repro.sim.errors import DirectoryNotEmpty

        parent = self.get_directory(parent_ino)
        ino = parent.lookup(name)
        inode = self.get_inode(ino)
        if not inode.is_dir:
            raise InvalidArgument(f"{name!r} is not a directory")
        if not self.directories[ino].is_empty:
            raise DirectoryNotEmpty(f"directory {name!r} is not empty")
        parent.remove(name)
        self.get_inode(parent_ino).nlink -= 1
        self.get_inode(parent_ino).stamp(now_ns, modify=True, change=True)
        freed = list(inode.blocks)
        self.free_block_list(freed)
        del self.directories[ino]
        del self.inodes[ino]
        self._free_inode(ino)
        return inode, freed

    def rename(self, old_parent: int, old_name: str, new_parent: int, new_name: str,
               now_ns: int) -> int:
        """Move a directory entry; returns the moved ino.

        Raises NoSpace, with nothing changed, when the target directory
        must grow and the disk cannot take it.
        """
        src = self.get_directory(old_parent)
        dst = self.get_directory(new_parent)
        ino = src.lookup(old_name)
        if dst.contains(new_name):
            raise FileExists(f"{new_name!r} already exists")
        if self.get_inode(ino).is_dir:
            # EINVAL, as POSIX demands: moving a directory into its own
            # subtree would detach it from the root into an unreachable
            # cycle with corrupted nlink counts.  Checked before any
            # mutation so a rejected rename has no side effects.
            ancestor = new_parent
            while True:
                if ancestor == ino:
                    raise InvalidArgument(
                        f"cannot rename directory {old_name!r} into its own subtree"
                    )
                if ancestor == ROOT_INO:
                    break
                ancestor = self.directories[ancestor].parent_ino
        self.check_room(self._dir_growth(new_parent, 0 if old_parent == new_parent else 1))
        src.remove(old_name)
        dst.add(new_name, ino)
        moved = self.get_inode(ino)
        if moved.is_dir and old_parent != new_parent:
            self.directories[ino].parent_ino = new_parent
            self.get_inode(old_parent).nlink -= 1
            self.get_inode(new_parent).nlink += 1
        self._grow_directory(new_parent)
        self.get_inode(old_parent).stamp(now_ns, modify=True, change=True)
        self.get_inode(new_parent).stamp(now_ns, modify=True, change=True)
        moved.stamp(now_ns, change=True)
        return ino
