"""Property-based invariants of the disk service model."""

from hypothesis import given, settings, strategies as st

from repro.sim.config import DiskSpec
from repro.sim.disk import Disk

BLOCK = 4096

requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=100_000),  # start block
        st.integers(min_value=1, max_value=64),       # length
        st.booleans(),                                # write?
        st.integers(min_value=0, max_value=10_000_000),  # think time (ns)
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(reqs=requests)
def test_service_never_travels_back_in_time(reqs):
    disk = Disk(DiskSpec())
    now = 0
    last_end = 0
    for start_block, length, write, think in reqs:
        now = max(now, last_end) + think
        begin, end = disk.access(start_block, length, now, BLOCK, write=write)
        assert begin >= now
        assert end > begin
        assert begin >= last_end  # spindle serializes
        last_end = end


@settings(max_examples=60, deadline=None)
@given(reqs=requests)
def test_service_time_at_least_transfer_time(reqs):
    disk = Disk(DiskSpec())
    sector_ns = disk.spec.rotation_ns / disk.spec.sectors_per_track
    now = 0
    for start_block, length, write, think in reqs:
        begin, end = disk.access(start_block, length, now, BLOCK, write=write)
        nsectors = length * disk.sectors_per_block(BLOCK)
        assert end - begin >= int(nsectors * sector_ns)
        now = end + think


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=50_000),
    length=st.integers(min_value=1, max_value=256),
)
def test_single_request_bounded_by_worst_case(start, length):
    disk = Disk(DiskSpec())
    begin, end = disk.access(start, length, 0, BLOCK)
    spec = disk.spec
    nsectors = length * disk.sectors_per_block(BLOCK)
    sector_ns = spec.rotation_ns / spec.sectors_per_track
    tracks = nsectors // spec.sectors_per_track + 2
    worst = (
        spec.command_overhead_ns
        + spec.full_stroke_seek_ns
        + spec.rotation_ns
        + int(nsectors * sector_ns)
        + tracks * (spec.head_switch_ns + spec.single_track_seek_ns)
    )
    assert end - begin <= worst


@settings(max_examples=30, deadline=None)
@given(
    cylinder_picks=st.lists(
        st.integers(min_value=0, max_value=400), min_size=4, max_size=30, unique=True
    )
)
def test_sorted_visit_order_no_slower_than_ping_pong(cylinder_picks):
    """Elevator intuition: when seeks dominate (targets spread across
    distant cylinders), ascending visits never lose to a ping-pong order.
    Within a single cylinder rotational position dominates and no such
    ordering guarantee exists — hence the cylinder-scale spacing."""
    blocks = [c * 3000 for c in cylinder_picks]  # ~10 cylinders apart each
    def total_time(order):
        disk = Disk(DiskSpec())
        now = 0
        for block in order:
            _b, now = disk.access(block, 1, now, BLOCK)
        return now

    ascending = sorted(blocks)
    # Worst-ish interleave: alternate ends.
    ping_pong = []
    low, high = 0, len(ascending) - 1
    while low <= high:
        ping_pong.append(ascending[low])
        if low != high:
            ping_pong.append(ascending[high])
        low += 1
        high -= 1
    assert total_time(ascending) <= total_time(ping_pong) * 1.05
