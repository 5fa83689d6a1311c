"""fastsort — a two-pass external sort (Figures 3 and 7).

Pass one reads runs of records into a memory buffer, sorts, and writes
each sorted run to disk; pass two merges the runs.  The paper uses the
read phase to stress memory behaviour:

* the **static** version takes its pass size on the command line; too
  large a pass overcommits memory and the run buffer thrashes against
  the file cache and competing processes (Figure 7's cliff);
* **gb-fastsort** asks MAC for each pass's buffer (``gb_alloc`` before
  the pass, ``gb_free`` after), so the pass size adapts to currently
  available memory and paging never happens — at the cost of MAC's
  probing and waiting overheads, which the report breaks out.

The buffer is genuinely touched page by page as records arrive and again
as runs are written, so memory pressure flows through the simulated page
daemon exactly as it did through Linux 2.2's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

from repro.icl.mac import MAC, GbAllocation
from repro.sim import syscalls as sc

MIB = 1024 * 1024
RECORD_BYTES = 100
# Comparison-sort CPU cost: cost = NS_PER_RECORD_LOG * n * log2(n).
SORT_NS_PER_RECORD_LOG = 30
MERGE_NS_PER_RECORD = 60


@dataclass
class FastsortReport:
    """Timing breakdown of a fastsort phase."""

    input_path: str
    pass_bytes: List[int] = field(default_factory=list)
    records: int = 0
    read_ns: int = 0
    sort_ns: int = 0
    write_ns: int = 0
    mac_probe_ns: int = 0
    mac_wait_ns: int = 0
    total_ns: int = 0
    run_paths: List[str] = field(default_factory=list)

    @property
    def overhead_ns(self) -> int:
        """The two MAC overheads Figure 7 plots as "Overhead"."""
        return self.mac_probe_ns + self.mac_wait_ns

    @property
    def mean_pass_bytes(self) -> float:
        if not self.pass_bytes:
            return 0.0
        return sum(self.pass_bytes) / len(self.pass_bytes)


class _Buffer:
    """A sort buffer over one or more vm regions (MAC grants are chunked)."""

    def __init__(self, regions: List[Tuple[int, int]], page_size: int, nbytes: int):
        self.regions = regions
        self.page_size = page_size
        self.nbytes = nbytes

    @classmethod
    def from_allocation(cls, allocation: GbAllocation) -> "_Buffer":
        return cls(list(allocation.regions), allocation.page_size, allocation.granted_bytes)

    def _locate(self, page_number: int) -> Tuple[int, int]:
        for region_id, npages in self.regions:
            if page_number < npages:
                return region_id, page_number
            page_number -= npages
        raise IndexError("byte range beyond the buffer")

    def touch_bytes(self, start: int, nbytes: int) -> Generator:
        """Touch every page covering [start, start+nbytes)."""
        if nbytes <= 0:
            return None
        first = start // self.page_size
        last = (start + nbytes - 1) // self.page_size
        for page_number in range(first, last + 1):
            region_id, index = self._locate(page_number)
            yield sc.touch(region_id, index)
        return None


def _sort_cost_ns(records: int) -> int:
    if records <= 1:
        return 0
    return int(SORT_NS_PER_RECORD_LOG * records * max(math.log2(records), 1.0))


def _read_pass(fd: int, buffer: _Buffer, pass_size: int, unit: int) -> Generator:
    """Fill the buffer from the input file; returns (bytes, real_chunks)."""
    done = 0
    chunks: List[bytes] = []
    while done < pass_size:
        take = min(unit, pass_size - done)
        result = (yield sc.read(fd, take)).value
        if result.eof:
            break
        yield from buffer.touch_bytes(done, result.nbytes)
        if result.data is not None:
            chunks.append(result.data)
        done += result.nbytes
    return done, chunks


def _write_run(
    path: str, buffer: _Buffer, nbytes: int, unit: int, payload: Optional[bytes]
) -> Generator:
    """Write one sorted run, re-touching the buffer as it is drained."""
    fd = (yield sc.create(path)).value
    done = 0
    try:
        while done < nbytes:
            take = min(unit, nbytes - done)
            yield from buffer.touch_bytes(done, take)
            if payload is not None:
                yield sc.write(fd, payload[done : done + take])
            else:
                yield sc.write(fd, take)
            done += take
    finally:
        yield sc.close(fd)


def _sort_records(chunks: List[bytes]) -> Optional[bytes]:
    """Really sort 100-byte records when actual content is present."""
    if not chunks:
        return None
    blob = b"".join(chunks)
    usable = len(blob) - len(blob) % RECORD_BYTES
    records = [blob[i : i + RECORD_BYTES] for i in range(0, usable, RECORD_BYTES)]
    records.sort()
    return b"".join(records) + blob[usable:]


def fastsort_read_phase(
    input_path: str,
    run_dir: str,
    pass_bytes: int,
    unit: int = 1 * MIB,
) -> Generator:
    """Static fastsort read phase with a fixed, user-chosen pass size."""
    if pass_bytes < RECORD_BYTES:
        raise ValueError("pass size smaller than one record")
    report = FastsortReport(input_path=input_path)
    start = (yield sc.gettime()).value
    fd = (yield sc.open(input_path)).value
    # One buffer for the whole phase, as a real sort mallocs once; the
    # pages are faulted in on first use and stay hot across passes.
    region = (yield sc.vm_alloc(pass_bytes, "sortbuf")).value
    buffer = _Buffer([(region, _region_pages(pass_bytes))], _PAGE, pass_bytes)
    try:
        size = (yield sc.fstat(fd)).value.size
        consumed = 0
        index = 0
        while consumed < size:
            pass_size = min(pass_bytes, size - consumed)
            pass_size -= pass_size % RECORD_BYTES
            if pass_size == 0:
                break
            yield from _one_pass(report, fd, buffer, pass_size, run_dir, index, unit)
            consumed += report.pass_bytes[-1]
            index += 1
            if report.pass_bytes[-1] == 0:
                break
    finally:
        yield sc.vm_free(region)
        yield sc.close(fd)
    report.total_ns = (yield sc.gettime()).value - start
    return report


def gb_fastsort_read_phase(
    input_path: str,
    run_dir: str,
    mac: MAC,
    min_pass_bytes: int = 100 * MIB,
    unit: int = 1 * MIB,
) -> Generator:
    """MAC-adaptive fastsort read phase (gb-fastsort, §4.3.3).

    Frees each pass's memory before allocating the next, so it "meshes
    well with [the gb_alloc] interface and cannot deadlock".
    """
    report = FastsortReport(input_path=input_path)
    start = (yield sc.gettime()).value
    fd = (yield sc.open(input_path)).value
    try:
        size = (yield sc.fstat(fd)).value.size
        consumed = 0
        index = 0
        while consumed < size:
            remaining = size - consumed
            remaining -= remaining % RECORD_BYTES
            if remaining == 0:
                break
            minimum = min(min_pass_bytes, remaining)
            minimum -= minimum % RECORD_BYTES
            minimum = max(minimum, RECORD_BYTES)
            t0 = (yield sc.gettime()).value
            slept_before = mac.stats.wait_ns
            allocation = yield from mac.gb_alloc_wait(
                minimum, remaining, multiple_bytes=RECORD_BYTES
            )
            t1 = (yield sc.gettime()).value
            wait_ns = mac.stats.wait_ns - slept_before
            report.mac_wait_ns += wait_ns
            report.mac_probe_ns += (t1 - t0) - wait_ns
            buffer = _Buffer.from_allocation(allocation)
            yield from _one_pass(
                report, fd, buffer, allocation.granted_bytes, run_dir, index, unit
            )
            yield from mac.gb_free(allocation)
            consumed += report.pass_bytes[-1]
            index += 1
            if report.pass_bytes[-1] == 0:
                break
    finally:
        yield sc.close(fd)
    report.total_ns = (yield sc.gettime()).value - start
    return report


def _one_pass(
    report: FastsortReport,
    fd: int,
    buffer: _Buffer,
    pass_size: int,
    run_dir: str,
    index: int,
    unit: int,
) -> Generator:
    """Shared read→sort→write body for one run."""
    t0 = (yield sc.gettime()).value
    nbytes, chunks = yield from _read_pass(fd, buffer, pass_size, unit)
    t1 = (yield sc.gettime()).value
    report.pass_bytes.append(nbytes)
    if nbytes == 0:
        return
    records = nbytes // RECORD_BYTES
    report.records += records
    yield sc.compute(_sort_cost_ns(records))
    payload = _sort_records(chunks)
    t2 = (yield sc.gettime()).value
    run_path = f"{run_dir}/run{index:04d}"
    yield from _write_run(run_path, buffer, nbytes, unit, payload)
    t3 = (yield sc.gettime()).value
    report.run_paths.append(run_path)
    report.read_ns += t1 - t0
    report.sort_ns += t2 - t1
    report.write_ns += t3 - t2


def fccd_fastsort_read_phase(
    input_path: str,
    run_dir: str,
    pass_bytes: int,
    fccd,
    unit: int = 1 * MIB,
) -> Generator:
    """Figure 3's gb-fastsort: read the input in FCCD's best probe order.

    The paper's modification: the sort "must be willing to read parts of
    a single input file in a different order" — a probe phase before the
    main loop, then record-aligned segments consumed cached-first.
    """
    report = FastsortReport(input_path=input_path)
    start = (yield sc.gettime()).value
    fd = (yield sc.open(input_path)).value
    try:
        size = (yield sc.fstat(fd)).value.size
        segments = yield from fccd.probe_fd(fd, size, align=RECORD_BYTES)
        ranges = [
            (s.offset, s.length)
            for s in sorted(segments, key=lambda s: (s.probe_ns, s.offset))
        ]
        index = 0
        pending = list(ranges)
        region = (yield sc.vm_alloc(pass_bytes, "sortbuf")).value
        buffer = _Buffer([(region, _region_pages(pass_bytes))], _PAGE, pass_bytes)
        while pending:
            pass_size = min(pass_bytes, sum(length for _o, length in pending))
            pass_size -= pass_size % RECORD_BYTES
            if pass_size == 0:
                break
            t0 = (yield sc.gettime()).value
            filled = 0
            chunks: List[bytes] = []
            while filled < pass_size and pending:
                offset, length = pending[0]
                take = min(unit, length, pass_size - filled)
                take -= take % RECORD_BYTES if take != length else 0
                if take == 0:
                    break
                result = (yield sc.pread(fd, offset, take)).value
                yield from buffer.touch_bytes(filled, result.nbytes)
                if result.data is not None:
                    chunks.append(result.data)
                filled += result.nbytes
                if take == length:
                    pending.pop(0)
                else:
                    pending[0] = (offset + take, length - take)
            t1 = (yield sc.gettime()).value
            report.pass_bytes.append(filled)
            if filled == 0:
                break
            records = filled // RECORD_BYTES
            report.records += records
            yield sc.compute(_sort_cost_ns(records))
            payload = _sort_records(chunks)
            t2 = (yield sc.gettime()).value
            run_path = f"{run_dir}/run{index:04d}"
            yield from _write_run(run_path, buffer, filled, unit, payload)
            t3 = (yield sc.gettime()).value
            report.run_paths.append(run_path)
            report.read_ns += t1 - t0
            report.sort_ns += t2 - t1
            report.write_ns += t3 - t2
            index += 1
        yield sc.vm_free(region)
    finally:
        yield sc.close(fd)
    report.total_ns = (yield sc.gettime()).value - start
    return report


def stdin_fastsort_read_phase(
    in_fd: int,
    run_dir: str,
    pass_bytes: int,
    unit: int = 1 * MIB,
) -> Generator:
    """Unmodified fastsort reading records from a pipe (gbp -mem -out | sort).

    The data arrives already re-ordered by gbp, but every byte pays the
    extra copy through the OS pipe — the paper's explanation for the
    residual gap in Figure 3's third sort bar.
    """
    report = FastsortReport(input_path=f"<pipe fd {in_fd}>")
    start = (yield sc.gettime()).value
    index = 0
    eof = False
    region = (yield sc.vm_alloc(pass_bytes, "sortbuf")).value
    buffer = _Buffer([(region, _region_pages(pass_bytes))], _PAGE, pass_bytes)
    while not eof:
        t0 = (yield sc.gettime()).value
        filled = 0
        while filled < pass_bytes:
            take = min(unit, pass_bytes - filled)
            result = (yield sc.read(in_fd, take)).value
            if result.eof:
                eof = True
                break
            yield from buffer.touch_bytes(filled, result.nbytes)
            filled += result.nbytes
        t1 = (yield sc.gettime()).value
        usable = filled - filled % RECORD_BYTES
        report.pass_bytes.append(usable)
        if usable == 0:
            break
        records = usable // RECORD_BYTES
        report.records += records
        yield sc.compute(_sort_cost_ns(records))
        t2 = (yield sc.gettime()).value
        run_path = f"{run_dir}/run{index:04d}"
        yield from _write_run(run_path, buffer, usable, unit, None)
        t3 = (yield sc.gettime()).value
        report.run_paths.append(run_path)
        report.read_ns += t1 - t0
        report.sort_ns += t2 - t1
        report.write_ns += t3 - t2
        index += 1
    yield sc.vm_free(region)
    report.total_ns = (yield sc.gettime()).value - start
    return report


def merge_runs(
    run_paths: List[str], output_path: str, unit: int = 1 * MIB
) -> Generator:
    """Pass two: k-way merge of the sorted runs into one output file.

    Real record content is merged properly when present; synthetic runs
    charge the same I/O and CPU without materializing bytes.
    """
    fds = []
    out_fd = (yield sc.create(output_path)).value
    total = 0
    try:
        buffers: List[bytes] = []
        synthetic = False
        for path in run_paths:
            fd = (yield sc.open(path)).value
            fds.append(fd)
        # Round-robin chunked reads model the merge's alternating access.
        exhausted = [False] * len(fds)
        while not all(exhausted):
            for i, fd in enumerate(fds):
                if exhausted[i]:
                    continue
                result = (yield sc.read(fd, unit)).value
                if result.eof:
                    exhausted[i] = True
                    continue
                total += result.nbytes
                if result.data is not None:
                    buffers.append(result.data)
                else:
                    synthetic = True
                yield sc.compute(MERGE_NS_PER_RECORD * (result.nbytes // RECORD_BYTES))
                if synthetic:
                    yield sc.write(out_fd, result.nbytes)
        if buffers and not synthetic:
            payload = _sort_records(buffers)
            yield sc.write(out_fd, payload)
    finally:
        for fd in fds:
            yield sc.close(fd)
        yield sc.close(out_fd)
    return total


# The touch granularity for static buffers: one simulated page.  Static
# fastsort learns it the same way MAC does — it is platform knowledge.
_PAGE = 4096


def set_static_buffer_page(page_size: int) -> None:
    """Configure the page granularity static fastsort touches with.

    The MAC-adaptive variant gets the page size from its allocation; the
    static variant needs to be told (like any program calling
    getpagesize()).  Benchmarks call this once per kernel configuration.
    """
    global _PAGE
    if page_size <= 0:
        raise ValueError("page size must be positive")
    _PAGE = page_size


def _region_pages(nbytes: int) -> int:
    return -(-nbytes // _PAGE)
