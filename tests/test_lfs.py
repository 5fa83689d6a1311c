"""The LFS extension: log layout and the FLDC knowledge-module swap."""

import random

import pytest

from repro.icl.fldc import FLDC
from repro.sim import Kernel, syscalls as sc
from repro.sim.errors import NoSpace
from repro.sim.fs.ffs import ROOT_INO, FFS
from repro.sim.fs.inode import FileKind
from repro.sim.fs.lfs import LogStructuredFS
from repro.workloads.files import make_file
from tests.conftest import KIB, small_config

SECOND = 1_000_000_000


def lfs_kernel():
    return Kernel(small_config(), fs_class=LogStructuredFS)


class TestLogAllocator:
    def _fs(self, total=4096):
        return LogStructuredFS(
            fs_id=0, total_blocks=total, block_bytes=4096,
            blocks_per_cg=1024, inodes_per_cg=64,
        )

    def test_blocks_appended_in_write_order(self):
        fs = self._fs()
        first = fs.alloc_blocks(5, preferred_cg=3, hint=None)
        second = fs.alloc_blocks(5, preferred_cg=0, hint=2000)
        combined = first + second
        assert combined == sorted(combined)
        assert second[0] > first[-1]  # hints and groups are ignored

    def test_log_skips_inode_tables(self):
        fs = self._fs()
        many = fs.alloc_blocks(1500, preferred_cg=0)
        for block in many:
            cg = fs.cg_of_block(block)
            assert block >= cg.data_first

    def test_freed_blocks_are_not_reused(self):
        fs = self._fs()
        first = fs.alloc_blocks(4, preferred_cg=0)
        fs.free_block_list(first)
        again = fs.alloc_blocks(4, preferred_cg=0)
        assert not set(first) & set(again)

    def test_log_exhaustion_raises(self):
        fs = self._fs(total=1024)
        with pytest.raises(NoSpace):
            fs.alloc_blocks(10_000, preferred_cg=0)

    def test_namespace_still_works(self):
        fs = self._fs()
        inode = fs.create(ROOT_INO, "f", FileKind.FILE, now_ns=0)
        fs.grow_to_size(inode, 3 * 4096)
        assert len(inode.blocks) == 3
        fs.unlink(ROOT_INO, "f", now_ns=0)


class TestKnowledgeModuleSwap:
    def _setup_rewritten_files(self, kernel):
        """Create files in one order, then rewrite them in another order
        seconds apart — on LFS the *rewrite* order is the layout order."""
        paths = [f"/mnt0/f{i}" for i in range(12)]

        def create_all():
            for path in paths:
                yield from make_file(path, 16 * KIB, sync=False)
        kernel.run_process(create_all(), "create")

        rewrite_order = list(paths)
        random.Random(4).shuffle(rewrite_order)
        for path in rewrite_order:
            kernel.oracle.advance_time(2 * SECOND)

            def rewrite(path=path):
                fd = (yield sc.open(path)).value
                yield sc.pwrite(fd, 0, 16 * KIB)
                yield sc.close(fd)
            kernel.run_process(rewrite(), "rewrite")
        return paths, rewrite_order

    def test_write_time_order_matches_lfs_layout(self):
        kernel = lfs_kernel()
        paths, rewrite_order = self._setup_rewritten_files(kernel)
        fldc = FLDC()

        def order():
            return (yield from fldc.write_time_order(paths))
        ordered, _stats = kernel.run_process(order(), "order")
        assert ordered == rewrite_order
        # And it genuinely matches on-disk order.
        true_order = sorted(paths, key=lambda p: kernel.oracle.file_blocks(p)[0])
        assert ordered == true_order

    def test_inumber_order_fails_on_lfs(self):
        """The FFS knowledge module applied to LFS orders wrongly."""
        kernel = lfs_kernel()
        paths, rewrite_order = self._setup_rewritten_files(kernel)
        fldc = FLDC()

        def order():
            return (yield from fldc.layout_order(paths))
        ordered, _stats = kernel.run_process(order(), "order")
        true_order = sorted(paths, key=lambda p: kernel.oracle.file_blocks(p)[0])
        assert ordered != true_order

    def test_write_time_order_reads_faster_than_inumber_on_lfs(self):
        kernel = lfs_kernel()
        paths, _rewrite = self._setup_rewritten_files(kernel)
        fldc = FLDC()

        def read_in(order_fn):
            def app():
                order, _stats = yield from order_fn(paths)
                t0 = (yield sc.gettime()).value
                for path in order:
                    fd = (yield sc.open(path)).value
                    while not (yield sc.read(fd, 64 * KIB)).value.eof:
                        pass
                    yield sc.close(fd)
                return (yield sc.gettime()).value - t0
            kernel.oracle.flush_file_cache()
            return kernel.run_process(app(), "read")

        inumber_ns = read_in(fldc.layout_order)
        write_time_ns = read_in(fldc.write_time_order)
        assert write_time_ns < inumber_ns

    def test_write_time_order_matches_inumber_on_fresh_ffs(self):
        """On FFS the two knowledge modules agree for fresh directories."""
        kernel = Kernel(small_config(), fs_class=FFS)
        paths = [f"/mnt0/f{i}" for i in range(6)]

        def create_all():
            for path in paths:
                yield from make_file(path, 16 * KIB, sync=False)
        kernel.run_process(create_all(), "create")
        fldc = FLDC()

        def orders():
            a, _ = yield from fldc.layout_order(paths)
            b, _ = yield from fldc.write_time_order(paths)
            return a, b
        by_ino, by_time = kernel.run_process(orders(), "order")
        assert by_ino == by_time == paths
