"""Property-based FFS invariants under random namespace churn."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.errors import DirectoryNotEmpty, FileExists, NoSpace
from repro.sim.fs.ffs import FFS, ROOT_INO
from repro.sim.fs.inode import FileKind
from repro.sim.fs.lfs import LogStructuredFS
from tests.conftest import all_groups

BLOCK = 4096

operations = st.lists(
    st.tuples(
        st.sampled_from(["create", "unlink", "grow", "rename"]),
        st.integers(min_value=0, max_value=11),   # name index
        st.integers(min_value=1, max_value=40),   # size in blocks
    ),
    max_size=80,
)


def apply_ops(fs: FFS, ops):
    """Drive the allocator with a random op sequence; returns live names."""
    live = {}
    for op, name_index, nblocks in ops:
        name = f"n{name_index}"
        try:
            if op == "create":
                if name in live:
                    continue
                inode = fs.create(ROOT_INO, name, FileKind.FILE, now_ns=0)
                fs.grow_to_size(inode, nblocks * BLOCK)
                live[name] = inode
            elif op == "unlink":
                if name not in live:
                    continue
                fs.unlink(ROOT_INO, name, now_ns=0)
                del live[name]
            elif op == "grow":
                if name not in live:
                    continue
                inode = live[name]
                fs.grow_to_size(inode, len(inode.blocks) * BLOCK + nblocks * BLOCK)
            elif op == "rename":
                if name not in live:
                    continue
                new_name = f"r{name_index}"
                if new_name in live or fs.root.contains(new_name):
                    continue
                fs.rename(ROOT_INO, name, ROOT_INO, new_name, now_ns=0)
                live[new_name] = live.pop(name)
        except NoSpace:
            return live
    return live


def fresh_fs(cls=FFS) -> FFS:
    return cls(
        fs_id=0, total_blocks=4096, block_bytes=BLOCK,
        blocks_per_cg=1024, inodes_per_cg=64,
    )


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_no_two_files_share_a_block(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    seen = {}
    for inode in fs.inodes.values():
        for block in inode.blocks:
            assert block not in seen, (
                f"block {block} in both #{seen[block]} and #{inode.ino}"
            )
            seen[block] = inode.ino


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_free_counts_match_bitmaps(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    for cg in all_groups(fs):
        assert cg.free_block_count == cg._bitmap.count(0)
    assert fs.free_blocks_total() == sum(cg.free_block_count for cg in all_groups(fs))


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_used_blocks_equal_inode_maps(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    mapped = sum(len(inode.blocks) for inode in fs.inodes.values())
    used = sum(cg.data_blocks - cg.free_block_count for cg in all_groups(fs))
    assert used == mapped


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_directory_entries_resolve_to_live_inodes(ops):
    fs = fresh_fs()
    live = apply_ops(fs, ops)
    assert set(fs.root.names()) == set(live)
    for name in fs.root.names():
        ino = fs.root.lookup(name)
        assert ino in fs.inodes


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_inumbers_unique_across_live_files(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    inos = [inode.ino for inode in fs.inodes.values()]
    assert len(inos) == len(set(inos))


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_lfs_satisfies_the_same_invariants(ops):
    fs = fresh_fs(LogStructuredFS)
    live = apply_ops(fs, ops)
    seen = set()
    for inode in fs.inodes.values():
        for block in inode.blocks:
            assert block not in seen
            seen.add(block)
    assert set(fs.root.names()) == set(live)
    assert fs.free_blocks_total() == sum(cg._bitmap.count(0) for cg in all_groups(fs))


namespace_ops = st.lists(
    st.tuples(
        st.sampled_from(["file", "dir", "remove", "rewrite"]),
        st.integers(min_value=0, max_value=15),   # parent / victim index
        st.integers(min_value=0, max_value=7),    # name index
        st.integers(min_value=0, max_value=6),    # size in blocks
    ),
    max_size=120,
)


def lowest_free_slot(fs: FFS, cg_index: int):
    """The lowest slot of a group no live inode holds (slot 0 of cg0 never)."""
    held = {ino % fs.inodes_per_cg for ino in fs.inodes
            if ino // fs.inodes_per_cg == cg_index}
    first = 1 if cg_index == 0 else 0
    return next((s for s in range(first, fs.inodes_per_cg) if s not in held), None)


def check_allocator_state(fs: FFS):
    for cg in all_groups(fs):
        live = sum(1 for ino in fs.inodes if ino // fs.inodes_per_cg == cg.index)
        reserved = 1 if cg.index == 0 else 0
        assert cg.free_inode_count == fs.inodes_per_cg - live - reserved, cg.index
    assert fs.free_blocks_total() == sum(cg.free_block_count for cg in all_groups(fs))
    named = Counter(ino for directory in fs.directories.values() for _n, ino in directory.items())
    for ino, inode in fs.inodes.items():
        assert ino == ROOT_INO or named[ino] == 1, (ino, named[ino])
        assert -(-inode.size // fs.block_bytes) <= len(inode.blocks), (ino, inode.size)


def apply_namespace_ops(fs: FFS, ops):
    """Create/remove files and directories across groups, checking every create."""
    for op, pick, name_index, nblocks in ops:
        dirs = sorted(fs.directories)
        try:
            if op in ("file", "dir"):
                parent = dirs[pick % len(dirs)]
                name = f"{op}{name_index}"
                if fs.directories[parent].contains(name):
                    continue
                kind = FileKind.DIRECTORY if op == "dir" else FileKind.FILE
                expected = {i: lowest_free_slot(fs, i) for i in range(fs.ngroups)}
                inode = fs.create(parent, name, kind, now_ns=0)
                cg_index, slot = divmod(inode.ino, fs.inodes_per_cg)
                assert inode.ino != 0
                assert slot == expected[cg_index], (inode.ino, expected)
                if kind is FileKind.FILE:
                    # Files stay in the parent's group until it has no slot left.
                    n = fs.ngroups
                    home = parent // fs.inodes_per_cg
                    first_open = next(
                        (home + k) % n for k in range(n)
                        if expected[(home + k) % n] is not None
                    )
                    assert cg_index == first_open
                    fs.grow_to_size(inode, nblocks * BLOCK)
            elif op == "remove":
                victims = sorted(ino for ino in fs.inodes if ino != ROOT_INO)
                if not victims:
                    continue
                ino = victims[pick % len(victims)]
                parent, name = next(
                    (d, n) for d, directory in fs.directories.items()
                    for n in directory.names() if directory.lookup(n) == ino
                )
                if fs.inodes[ino].is_dir:
                    if not fs.directories[ino].is_empty:
                        continue
                    fs.rmdir(parent, name, now_ns=0)
                else:
                    fs.unlink(parent, name, now_ns=0)
            elif op == "rewrite":
                files = sorted(ino for ino, inode in fs.inodes.items()
                               if not inode.is_dir and inode.blocks)
                if not files:
                    continue
                inode = fs.inodes[files[pick % len(files)]]
                fs.rewrite_pages(inode, 0, len(inode.blocks) - 1)
        except NoSpace:
            break
        finally:
            check_allocator_state(fs)


#: One file takes every free block (more than the drawn sizes reach),
#: so the mkdir that follows runs out of blocks inside ``create``.
_MKDIR_ON_FULL_DISK = [("file", 0, 0, 1019), ("dir", 0, 1, 0)]


@pytest.mark.parametrize("cls", [FFS, LogStructuredFS])
@settings(max_examples=60, deadline=None)
@given(ops=namespace_ops)
@example(ops=_MKDIR_ON_FULL_DISK)
def test_creates_take_lowest_free_inumber_of_their_group(cls, ops):
    fs = cls(
        fs_id=0, total_blocks=1024, block_bytes=BLOCK,
        blocks_per_cg=256, inodes_per_cg=8,
    )
    check_allocator_state(fs)
    apply_namespace_ops(fs, ops)


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_file_sizes_covered_by_block_maps(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    for inode in fs.inodes.values():
        need = -(-inode.size // BLOCK)
        assert len(inode.blocks) >= need


# ---------------------------------------------------------------------------
# Cylinder groups built on first use == every group built up front
# ---------------------------------------------------------------------------
twin_ops = st.lists(
    st.tuples(
        st.sampled_from(["mkdir", "mkdir", "create", "create", "grow", "unlink", "rmdir"]),
        st.integers(min_value=0, max_value=31),   # parent / victim pick
        st.integers(min_value=0, max_value=5),    # name index
        st.integers(min_value=0, max_value=40),   # size in blocks
    ),
    max_size=60,
)


def twin_fs(cls, eager: bool, ngroups: int = 12) -> FFS:
    """Groups of 31 data blocks and 8 inodes, so files spill across
    groups and the disk can fill; ``eager`` builds every group now.
    With 3 groups every group is soon built, so placement falls among
    built groups alone."""
    fs = cls(fs_id=0, total_blocks=ngroups * 32, block_bytes=BLOCK,
             blocks_per_cg=32, inodes_per_cg=8)
    if eager:
        for index in range(fs.ngroups):
            fs.group(index)
    return fs


def drive_twin(fs: FFS, ops):
    """Apply ``ops``; log every placement answer, inode number, block
    list, free-block total and error."""
    log = []
    for op, pick, name_index, nblocks in ops:
        log.append(("place", fs.pick_cg_for_directory()))
        try:
            if op in ("mkdir", "create"):
                dirs = sorted(fs.directories)
                kind = FileKind.DIRECTORY if op == "mkdir" else FileKind.FILE
                inode = fs.create(dirs[pick % len(dirs)], f"{op}{name_index}", kind, now_ns=0)
                if op == "create":
                    fs.grow_to_size(inode, nblocks * BLOCK)
                log.append((op, inode.ino, list(inode.blocks)))
            elif op == "grow":
                files = sorted(ino for ino, inode in fs.inodes.items() if not inode.is_dir)
                if files:
                    inode = fs.inodes[files[pick % len(files)]]
                    added = fs.grow_to_size(inode, (len(inode.blocks) + nblocks) * BLOCK)
                    log.append((op, inode.ino, added))
            else:
                is_dir = op == "rmdir"
                victims = sorted(
                    (directory.lookup(name), parent, name)
                    for parent, directory in fs.directories.items()
                    for name in directory.names()
                    if fs.inodes[directory.lookup(name)].is_dir == is_dir
                )
                if victims:
                    ino, parent, name = victims[pick % len(victims)]
                    remove = fs.rmdir if is_dir else fs.unlink
                    log.append((op, ino, remove(parent, name, now_ns=0)[1]))
        except (FileExists, DirectoryNotEmpty, NoSpace) as exc:
            log.append((op, type(exc).__name__))
        log.append(("free", fs.free_blocks_total()))
    return log


#: mkdir, mkdir, then rmdir of the first: group 1 is touched, below the
#: first untouched group (3), and back to full — it must win the next
#: placement.
_GROUP_BACK_TO_FULL = [
    ("mkdir", 0, 0, 0), ("mkdir", 0, 1, 0), ("rmdir", 0, 0, 0), ("mkdir", 0, 2, 0),
]


#: Every group built; an empty file's unlink (an inode freed, no block)
#: puts group 1 back at a key whose heap entry a placement already
#: dropped as stale, and ties it with group 2: group 1 must win.
_INODE_FREE_RESTORES_TOP = [
    ("mkdir", 0, 0, 0), ("mkdir", 0, 1, 0), ("create", 1, 0, 0), ("unlink", 0, 0, 0),
    ("mkdir", 0, 2, 0),
]


@pytest.mark.parametrize("cls", [FFS, LogStructuredFS])
@settings(max_examples=60, deadline=None)
@given(ops=twin_ops, ngroups=st.sampled_from([3, 12]))
@example(ops=_GROUP_BACK_TO_FULL, ngroups=12)
@example(ops=_INODE_FREE_RESTORES_TOP, ngroups=3)
def test_groups_built_on_first_use_match_groups_built_up_front(cls, ops, ngroups):
    """A file system that builds each cylinder group when something
    reaches it allocates exactly as one with every group built: same
    placements, inode numbers, block lists, free totals and NoSpace."""
    lazy = twin_fs(cls, eager=False, ngroups=ngroups)
    eager = twin_fs(cls, eager=True, ngroups=ngroups)
    assert drive_twin(lazy, ops) == drive_twin(eager, ops)
    for ours, theirs in zip(all_groups(lazy), all_groups(eager)):
        assert (ours.free_block_count, ours.free_inode_count, ours.rotor,
                bytes(ours._bitmap)) == (theirs.free_block_count, theirs.free_inode_count,
                                         theirs.rotor, bytes(theirs._bitmap))


def test_touched_group_back_to_full_wins_placement():
    fs = twin_fs(FFS, eager=False)
    first = fs.create(ROOT_INO, "a", FileKind.DIRECTORY, now_ns=0)
    fs.create(ROOT_INO, "b", FileKind.DIRECTORY, now_ns=0)
    assert fs.cg_of_inode(first.ino).index == 1
    fs.rmdir(ROOT_INO, "a", now_ns=0)
    built = [index for index in range(fs.ngroups) if fs._groups[index] is not None]
    assert built == [0, 1, 2]
    assert fs.pick_cg_for_directory() == 1
