"""FFS allocator: i-numbers, cylinder groups, contiguity, aging."""

import random
import tracemalloc

import pytest

from repro.sim import Kernel, MachineConfig
from repro.sim.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    NoSpace,
)
from repro.sim.fs.directory import DIRENT_BYTES
from repro.sim.fs.ffs import FFS, ROOT_INO
from repro.sim.fs.inode import FileKind
from repro.sim.fs.lfs import LogStructuredFS
from tests.conftest import KIB, MIB, all_groups

BLOCK = 4096


def make_fs(total_blocks=8192, blocks_per_cg=1024, inodes_per_cg=128, gap=0) -> FFS:
    return FFS(
        fs_id=0,
        total_blocks=total_blocks,
        block_bytes=BLOCK,
        blocks_per_cg=blocks_per_cg,
        inodes_per_cg=inodes_per_cg,
        alloc_gap=gap,
    )


def create_file(fs, name, size, parent=ROOT_INO):
    inode = fs.create(parent, name, FileKind.FILE, now_ns=0)
    fs.grow_to_size(inode, size)
    return inode


class TestLayout:
    def test_root_is_inode_one(self):
        fs = make_fs()
        assert fs.root.ino == ROOT_INO
        assert fs.get_inode(ROOT_INO).is_dir

    def test_groups_cover_disk(self):
        fs = make_fs(total_blocks=8192, blocks_per_cg=1024)
        assert fs.ngroups == 8
        assert fs.group(3).first_block == 3 * 1024

    def test_inode_table_block_within_group(self):
        fs = make_fs()
        ino = 3 * fs.inodes_per_cg + 5
        block = fs.inode_table_block(ino)
        cg = fs.cg_of_inode(ino)
        assert cg.first_block <= block < cg.data_first

    def test_group_too_small_for_itable_rejected(self):
        with pytest.raises(InvalidArgument):
            make_fs(blocks_per_cg=8, inodes_per_cg=100_000)


class TestInodeAllocation:
    def test_sequential_creates_get_increasing_inumbers(self):
        fs = make_fs()
        inos = [create_file(fs, f"f{i}", BLOCK).ino for i in range(10)]
        assert inos == sorted(inos)
        assert len(set(inos)) == 10

    def test_freed_inumber_is_reused_lowest_first(self):
        fs = make_fs()
        files = [create_file(fs, f"f{i}", BLOCK) for i in range(5)]
        victim = files[1].ino
        fs.unlink(ROOT_INO, "f1", now_ns=0)
        fresh = create_file(fs, "fresh", BLOCK)
        assert fresh.ino == victim

    def test_files_inherit_parent_directory_group(self):
        fs = make_fs()
        sub = fs.create(ROOT_INO, "sub", FileKind.DIRECTORY, now_ns=0)
        inode = create_file(fs, "data", BLOCK, parent=sub.ino)
        assert fs.cg_of_inode(inode.ino).index == fs.cg_of_inode(sub.ino).index

    def test_new_directory_goes_to_emptiest_group(self):
        fs = make_fs()
        # Fill much of cg0 with data so the next directory lands elsewhere.
        create_file(fs, "big", 500 * BLOCK)
        sub = fs.create(ROOT_INO, "sub", FileKind.DIRECTORY, now_ns=0)
        assert fs.cg_of_inode(sub.ino).index != 0

    def test_freeing_never_allocated_slot_rejected(self):
        fs = make_fs()
        with pytest.raises(InvalidArgument):
            fs.group(1).free_inode_slot(0)
        cg0 = fs.group(0)
        # Slots 0 (reserved) and 1 (root) are taken; 2 was never issued.
        with pytest.raises(InvalidArgument):
            cg0.free_inode_slot(2)
        with pytest.raises(InvalidArgument):
            cg0.free_inode_slot(-1)
        assert cg0.free_inode_count == fs.inodes_per_cg - 2

    def test_freeing_slot_twice_rejected(self):
        fs = make_fs()
        create_file(fs, "a", BLOCK)
        victim = create_file(fs, "b", BLOCK).ino
        create_file(fs, "c", BLOCK)
        fs.unlink(ROOT_INO, "b", now_ns=0)
        free_before = fs.group(0).free_inode_count
        with pytest.raises(InvalidArgument):
            fs.group(0).free_inode_slot(victim)
        assert fs.group(0).free_inode_count == free_before
        assert create_file(fs, "d", BLOCK).ino == victim

    def test_group_runs_out_then_spills(self):
        fs = make_fs(inodes_per_cg=4)
        inos = [create_file(fs, f"f{i}", 0).ino for i in range(5)]
        # cg0 holds reserved 0, root 1, then 2 and 3; the fifth spills.
        assert inos == [2, 3, 4, 5, 6]
        assert fs.group(0).alloc_inode_slot() is None
        assert fs.group(0).free_inode_count == 0

    def test_kernel_build_allocates_no_per_slot_structures(self):
        """A default kernel mounts ~2 M inode slots; none may be materialised.

        Eager per-slot free lists peak at ~139 MB here; the high-water
        mark allocator at ~1.8 MB.  Allocation size is deterministic, so
        the guard does not depend on host speed.
        """
        tracemalloc.start()
        try:
            Kernel(MachineConfig().scaled(page_size=64 * KIB))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * MIB, f"kernel build peaked at {peak / MIB:.1f} MB"


class TestBlockAllocation:
    def test_fresh_directory_files_laid_out_contiguously(self):
        fs = make_fs()
        files = [create_file(fs, f"f{i}", 2 * BLOCK) for i in range(20)]
        blocks = [b for inode in files for b in inode.blocks]
        assert blocks == sorted(blocks)
        assert blocks[-1] - blocks[0] == len(blocks) - 1

    def test_file_growth_appends_contiguously(self):
        fs = make_fs()
        inode = create_file(fs, "grow", 2 * BLOCK)
        fs.grow_to_size(inode, 10 * BLOCK)
        diffs = {b - a for a, b in zip(inode.blocks, inode.blocks[1:])}
        assert diffs == {1}

    def test_grow_is_idempotent_for_smaller_size(self):
        fs = make_fs()
        inode = create_file(fs, "f", 4 * BLOCK)
        before = list(inode.blocks)
        assert fs.grow_to_size(inode, 2 * BLOCK) == []
        assert inode.blocks == before

    def test_alloc_spills_to_next_group_when_full(self):
        fs = make_fs(total_blocks=2048, blocks_per_cg=1024, inodes_per_cg=64)
        cg0_data = fs.group(0).data_blocks
        inode = create_file(fs, "huge", (cg0_data + 10) * BLOCK)
        used_cgs = {fs.cg_of_block(b).index for b in inode.blocks}
        assert used_cgs == {0, 1}

    def test_out_of_space_raises(self):
        fs = make_fs(total_blocks=1024, blocks_per_cg=1024, inodes_per_cg=64)
        inode = create_file(fs, "too-big", 0)
        cg0 = fs.group(0)
        before = (fs.free_blocks_total(), cg0.rotor, bytes(cg0._bitmap))
        with pytest.raises(NoSpace):
            fs.grow_to_size(inode, fs.free_blocks_total() * BLOCK + BLOCK)
        # The precheck refuses before any rotor or bitmap moves.
        assert (fs.free_blocks_total(), cg0.rotor, bytes(cg0._bitmap)) == before
        assert inode.blocks == []

    def test_freed_blocks_are_reusable(self):
        fs = make_fs()
        inode = create_file(fs, "f", 50 * BLOCK)
        freed_count = len(inode.blocks)
        before = fs.free_blocks_total()
        fs.unlink(ROOT_INO, "f", now_ns=0)
        assert fs.free_blocks_total() == before + freed_count

    def test_double_free_detected(self):
        fs = make_fs()
        inode = create_file(fs, "f", BLOCK)
        block = inode.blocks[0]
        fs.unlink(ROOT_INO, "f", now_ns=0)
        with pytest.raises(InvalidArgument):
            fs.group(0).free_block(block)

    def test_alloc_gap_spaces_files_apart(self):
        tight = make_fs()
        loose = make_fs(gap=4)
        for fs in (tight, loose):
            for i in range(5):
                create_file(fs, f"f{i}", 2 * BLOCK)
        tight_span = max(
            b for ino in tight.inodes.values() for b in ino.blocks
        )
        loose_span = max(
            b for ino in loose.inodes.values() for b in ino.blocks
        )
        assert loose_span > tight_span


class TestAgingDecorrelation:
    def _kendall_violations(self, fs) -> float:
        """Fraction of file pairs whose i-number and block order disagree."""
        files = [
            inode
            for inode in fs.inodes.values()
            if not inode.is_dir and inode.blocks
        ]
        files.sort(key=lambda inode: inode.ino)
        bad = 0
        total = 0
        for i in range(len(files)):
            for j in range(i + 1, len(files)):
                total += 1
                if files[i].blocks[0] > files[j].blocks[0]:
                    bad += 1
        return bad / max(total, 1)

    def test_fresh_directory_is_perfectly_correlated(self):
        fs = make_fs()
        for i in range(30):
            create_file(fs, f"f{i}", 2 * BLOCK)
        assert self._kendall_violations(fs) == 0.0

    def test_churn_decorrelates_inumber_from_layout(self):
        fs = make_fs()
        rng = random.Random(42)
        names = [f"f{i}" for i in range(30)]
        for name in names:
            create_file(fs, name, 2 * BLOCK)
        for epoch in range(15):
            live = fs.root.names()
            for name in rng.sample(live, 5):
                fs.unlink(ROOT_INO, name, now_ns=0)
            for j in range(5):
                create_file(fs, f"e{epoch}_{j}", 2 * BLOCK)
        assert self._kendall_violations(fs) > 0.15


class TestNamespace:
    def test_duplicate_name_rejected(self):
        fs = make_fs()
        create_file(fs, "f", BLOCK)
        with pytest.raises(FileExists):
            fs.create(ROOT_INO, "f", FileKind.FILE, now_ns=0)

    def test_lookup_missing_name(self):
        fs = make_fs()
        with pytest.raises(FileNotFound):
            fs.root.lookup("ghost")

    def test_unlink_directory_rejected(self):
        fs = make_fs()
        fs.create(ROOT_INO, "d", FileKind.DIRECTORY, now_ns=0)
        with pytest.raises(InvalidArgument):
            fs.unlink(ROOT_INO, "d", now_ns=0)

    def test_rmdir_requires_empty(self):
        fs = make_fs()
        sub = fs.create(ROOT_INO, "d", FileKind.DIRECTORY, now_ns=0)
        create_file(fs, "f", BLOCK, parent=sub.ino)
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir(ROOT_INO, "d", now_ns=0)

    def test_rmdir_updates_link_counts(self):
        fs = make_fs()
        fs.create(ROOT_INO, "d", FileKind.DIRECTORY, now_ns=0)
        root_links = fs.get_inode(ROOT_INO).nlink
        fs.rmdir(ROOT_INO, "d", now_ns=0)
        assert fs.get_inode(ROOT_INO).nlink == root_links - 1

    def test_rename_moves_entry(self):
        fs = make_fs()
        inode = create_file(fs, "old", BLOCK)
        fs.rename(ROOT_INO, "old", ROOT_INO, "new", now_ns=0)
        assert fs.root.lookup("new") == inode.ino
        with pytest.raises(FileNotFound):
            fs.root.lookup("old")

    def test_rename_directory_across_parents_fixes_links(self):
        fs = make_fs()
        a = fs.create(ROOT_INO, "a", FileKind.DIRECTORY, now_ns=0)
        b = fs.create(ROOT_INO, "b", FileKind.DIRECTORY, now_ns=0)
        child = fs.create(a.ino, "child", FileKind.DIRECTORY, now_ns=0)
        a_links = fs.get_inode(a.ino).nlink
        fs.rename(a.ino, "child", b.ino, "child", now_ns=0)
        assert fs.get_inode(a.ino).nlink == a_links - 1
        assert fs.directories[child.ino].parent_ino == b.ino

    def test_rename_onto_existing_name_rejected(self):
        fs = make_fs()
        create_file(fs, "x", BLOCK)
        create_file(fs, "y", BLOCK)
        with pytest.raises(FileExists):
            fs.rename(ROOT_INO, "x", ROOT_INO, "y", now_ns=0)

    def test_rename_directory_into_own_subtree_rejected(self):
        """mv a a/b/c must fail — it would orphan the whole subtree."""
        fs = make_fs()
        a = fs.create(ROOT_INO, "a", FileKind.DIRECTORY, now_ns=0)
        b = fs.create(a.ino, "b", FileKind.DIRECTORY, now_ns=0)
        with pytest.raises(InvalidArgument):
            fs.rename(ROOT_INO, "a", b.ino, "c", now_ns=0)
        # Nothing moved: the namespace is exactly as before.
        assert fs.root.lookup("a") == a.ino
        assert fs.directories[a.ino].parent_ino == ROOT_INO
        assert fs.directories[b.ino].parent_ino == a.ino

    def test_rename_directory_onto_itself_as_parent_rejected(self):
        """The degenerate cycle: mv a a/x (new parent IS the victim)."""
        fs = make_fs()
        a = fs.create(ROOT_INO, "a", FileKind.DIRECTORY, now_ns=0)
        with pytest.raises(InvalidArgument):
            fs.rename(ROOT_INO, "a", a.ino, "x", now_ns=0)
        assert fs.root.lookup("a") == a.ino

    def test_rename_file_into_subtree_still_allowed(self):
        """The cycle check applies to directories only."""
        fs = make_fs()
        a = fs.create(ROOT_INO, "a", FileKind.DIRECTORY, now_ns=0)
        f = create_file(fs, "f", BLOCK)
        fs.rename(ROOT_INO, "f", a.ino, "f", now_ns=0)
        assert fs.directories[a.ino].lookup("f") == f.ino

    def test_readdir_order_is_insertion_order(self):
        fs = make_fs()
        for name in ("c", "a", "b"):
            create_file(fs, name, BLOCK)
        assert fs.root.names() == ["c", "a", "b"]

    def test_directory_grows_with_entries(self):
        fs = make_fs()
        for i in range(300):
            create_file(fs, f"file-with-a-long-name-{i:04d}", BLOCK)
        root = fs.get_inode(ROOT_INO)
        assert len(root.blocks) >= 2


class TestNoSpaceChangesNothing:
    """A create or rename that raises NoSpace leaves the file system
    exactly as it was, on FFS and on the log-structured variant alike."""

    @staticmethod
    def full_fs(cls, subdir=False):
        """3 groups of 32 data blocks; the disk is filled by one file
        (after an optional subdirectory ``sub`` holding one file ``x``)."""
        fs = cls(fs_id=0, total_blocks=3 * 64, block_bytes=BLOCK,
                 blocks_per_cg=64, inodes_per_cg=1024)
        if subdir:
            sub = fs.create(ROOT_INO, "sub", FileKind.DIRECTORY, now_ns=0)
            fs.create(sub.ino, "x", FileKind.FILE, now_ns=0)
        create_file(fs, "filler", fs.free_blocks_total() * BLOCK)
        assert fs.free_blocks_total() == 0
        return fs

    @staticmethod
    def fill_root_block(fs):
        """Create empty files until the root's one block is exactly full."""
        for i in range(BLOCK // DIRENT_BYTES - 2 - len(fs.root)):
            fs.create(ROOT_INO, f"f{i}", FileKind.FILE, now_ns=0)
        assert fs.get_inode(ROOT_INO).size == BLOCK
        assert len(fs.get_inode(ROOT_INO).blocks) == 1

    @staticmethod
    def snapshot(fs):
        inodes = {
            ino: (inode.kind, inode.size, inode.nlink, list(inode.blocks),
                  inode.atime, inode.mtime, inode.ctime)
            for ino, inode in fs.inodes.items()
        }
        directories = {
            ino: (directory.parent_ino, list(directory.items()))
            for ino, directory in fs.directories.items()
        }
        groups = [
            (cg.free_block_count, cg.free_inode_count, cg.rotor, bytes(cg._bitmap))
            for cg in all_groups(fs)
        ]
        return inodes, directories, fs.free_blocks_total(), groups, getattr(fs, "_log_head", None)

    @pytest.mark.parametrize("cls", [FFS, LogStructuredFS])
    def test_mkdir_on_full_disk(self, cls):
        fs = self.full_fs(cls)
        before = self.snapshot(fs)
        with pytest.raises(NoSpace):
            fs.create(ROOT_INO, "d", FileKind.DIRECTORY, now_ns=1)
        assert self.snapshot(fs) == before

    @pytest.mark.parametrize("cls", [FFS, LogStructuredFS])
    def test_file_create_that_must_grow_its_parent(self, cls):
        fs = self.full_fs(cls)
        self.fill_root_block(fs)
        before = self.snapshot(fs)
        with pytest.raises(NoSpace):
            fs.create(ROOT_INO, "one-too-many", FileKind.FILE, now_ns=1)
        assert self.snapshot(fs) == before

    @pytest.mark.parametrize("cls", [FFS, LogStructuredFS])
    def test_rename_into_a_directory_that_must_grow(self, cls):
        fs = self.full_fs(cls, subdir=True)
        self.fill_root_block(fs)
        sub = fs.root.lookup("sub")
        before = self.snapshot(fs)
        with pytest.raises(NoSpace):
            fs.rename(sub, "x", ROOT_INO, "y", now_ns=1)
        assert self.snapshot(fs) == before
        # A rename within the full directory needs no block.
        fs.rename(ROOT_INO, "f0", ROOT_INO, "g0", now_ns=1)
        assert fs.root.contains("g0")
