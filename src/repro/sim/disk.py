"""Disk service-time model.

Models one spindle with cylinder/track/sector geometry and a continuously
rotating platter.  Three properties matter to the reproduction and all
emerge from the geometry rather than from per-case constants:

* sequential transfers run at near-peak bandwidth (no seek, no
  rotational delay between back-to-back sectors, implicit track/cylinder
  skew on crossings);
* random small accesses pay seek + rotational latency, milliseconds each
  — the "slow" half of the covert channel every ICL times;
* seek time grows with cylinder distance, so accessing files in layout
  order (FLDC) beats random order by a large factor.

Addressing is by *logical block*: the filesystem block size (one page)
maps onto a run of sectors, laid out cylinder-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Tuple

from repro.obs.metrics import SnapshotStats
from repro.sim.config import DiskSpec
from repro.sim.errors import InvalidArgument


@dataclass
class DiskStats(SnapshotStats):
    """Counters accumulated over the life of one disk.

    Shares the snapshot/delta/as_dict idiom with
    :class:`~repro.sim.vm.pagedaemon.PageDaemonStats`:
    ``stats.delta(earlier)`` is the activity of one experiment phase,
    and ``as_dict()`` is what the metrics registry exports — including
    the seek/rotation/transfer breakdown of ``busy_ns``.
    """

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_ns: int = 0
    seek_ns: int = 0
    rotation_ns: int = 0
    transfer_ns: int = 0


class Disk:
    """A single simulated disk with positional state.

    The platter angle is a pure function of absolute time (the platter
    never stops spinning); the head's cylinder is state updated by each
    request.  ``busy_until`` serializes requests on the spindle, so
    callers see realistic queueing delay under contention.
    """

    def __init__(self, spec: DiskSpec, disk_id: int = 0) -> None:
        self.spec = spec
        self.disk_id = disk_id
        self.busy_until = 0
        self.current_cylinder = 0
        # Drive read-ahead buffer state: where the last read ended and
        # when — a promptly-arriving sequential successor is served from
        # the buffer without seek or rotational delay.
        self._readahead_end_sector = -1
        self._readahead_end_time = -(10**18)
        self.stats = DiskStats()
        # Seek curve a + b*sqrt(d), fit to the single-track and
        # full-stroke points of the spec.
        span = max(spec.cylinders - 1, 1)
        self._seek_b = (spec.full_stroke_seek_ns - spec.single_track_seek_ns) / max(
            sqrt(span) - 1.0, 1e-9
        )
        self._seek_a = spec.single_track_seek_ns - self._seek_b
        self._sector_ns = spec.rotation_ns / spec.sectors_per_track

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def capacity_sectors(self) -> int:
        return self.spec.sectors_per_track * self.spec.heads * self.spec.cylinders

    def capacity_blocks(self, block_bytes: int) -> int:
        return self.capacity_sectors * self.spec.sector_bytes // block_bytes

    def sectors_per_block(self, block_bytes: int) -> int:
        if block_bytes % self.spec.sector_bytes:
            raise InvalidArgument(
                f"block size {block_bytes} is not a multiple of the sector size"
            )
        return block_bytes // self.spec.sector_bytes

    def locate(self, sector: int) -> Tuple[int, int, int]:
        """Map an absolute sector number to (cylinder, head, sector-in-track)."""
        spt = self.spec.sectors_per_track
        per_cyl = spt * self.spec.heads
        cylinder, rest = divmod(sector, per_cyl)
        head, in_track = divmod(rest, spt)
        return cylinder, head, in_track

    def cylinder_of_block(self, block: int, block_bytes: int) -> int:
        return self.locate(block * self.sectors_per_block(block_bytes))[0]

    # ------------------------------------------------------------------
    # Timing primitives
    # ------------------------------------------------------------------
    def seek_ns(self, distance: int) -> int:
        """Seek time for a move of ``distance`` cylinders."""
        if distance <= 0:
            return 0
        return int(round(self._seek_a + self._seek_b * sqrt(distance)))

    def _rotational_wait_ns(self, at_ns: int, in_track_sector: int) -> int:
        """Wait until the platter brings ``in_track_sector`` under the head."""
        rotation = self.spec.rotation_ns
        # Angular position of the head over the platter, in sector units.
        angle_ns = at_ns % rotation
        target_ns = int(in_track_sector * self._sector_ns)
        wait = target_ns - angle_ns
        if wait < 0:
            wait += rotation
        return wait

    # ------------------------------------------------------------------
    # Request service
    # ------------------------------------------------------------------
    def access(
        self, start_block: int, nblocks: int, now: int, block_bytes: int, write: bool = False
    ) -> Tuple[int, int]:
        """Service a contiguous request; returns (start_ns, finish_ns).

        ``start_ns`` is when the disk began working on the request (after
        any queueing behind earlier requests); ``finish_ns`` is when the
        last sector transferred.
        """
        if nblocks <= 0:
            raise InvalidArgument("disk access needs at least one block")
        spb = self.sectors_per_block(block_bytes)
        first_sector = start_block * spb
        nsectors = nblocks * spb
        if first_sector + nsectors > self.capacity_sectors:
            raise InvalidArgument(
                f"access beyond end of disk {self.disk_id}: "
                f"blocks [{start_block}, {start_block + nblocks})"
            )

        start = max(now, self.busy_until)
        t = start + self.spec.command_overhead_ns

        cylinder, head, in_track = self.locate(first_sector)
        # Drive read-ahead: a read continuing (within less than a track)
        # past the previous read, arriving before the platter has turned
        # far, is served from the drive's buffer — no seek, no rotation.
        # This is what makes request-at-a-time sequential access run at
        # near-peak bandwidth, as on any post-1990 drive.
        gap = first_sector - self._readahead_end_sector
        sequential_hit = (
            not write
            and 0 <= gap < self.spec.sectors_per_track
            and t - self._readahead_end_time < 2 * self.spec.rotation_ns
        )
        if sequential_hit:
            seek = 0
            # The platter still rotates over any skipped sectors while
            # the drive's buffer reads through the gap.
            rot = int(round(gap * self._sector_ns))
            t += rot
        else:
            seek = self.seek_ns(abs(cylinder - self.current_cylinder))
            t += seek
            rot = self._rotational_wait_ns(t, in_track)
            t += rot

        # Transfer, charging implicit-skew costs on track/cylinder
        # boundaries instead of re-deriving rotational alignment (real
        # drives skew tracks so sequential crossings cost only the switch).
        spt = self.spec.sectors_per_track
        last_sector = first_sector + nsectors - 1
        first_track = first_sector // spt
        last_track = last_sector // spt
        track_crossings = last_track - first_track
        per_cyl = spt * self.spec.heads
        cyl_crossings = last_sector // per_cyl - first_sector // per_cyl
        head_switches = track_crossings - cyl_crossings

        transfer = int(round(nsectors * self._sector_ns))
        transfer += head_switches * self.spec.head_switch_ns
        transfer += cyl_crossings * self.spec.single_track_seek_ns
        t += transfer

        self.current_cylinder = self.locate(last_sector)[0]
        self.busy_until = t
        if not write:
            self._readahead_end_sector = first_sector + nsectors
            self._readahead_end_time = t

        st = self.stats
        st.busy_ns += t - start
        st.seek_ns += seek
        st.rotation_ns += rot
        st.transfer_ns += transfer
        if write:
            st.writes += 1
            st.sectors_written += nsectors
        else:
            st.reads += 1
            st.sectors_read += nsectors
        return start, t

    def __repr__(self) -> str:
        return (
            f"Disk(id={self.disk_id}, cyl={self.current_cylinder}, "
            f"busy_until={self.busy_until})"
        )
