"""``repro channels`` — covert-channel capacity on the multi-tenant arena.

The paper's thesis is that timing channels carry enough information to
*control* a gray-box OS; this experiment measures the same channels as
*communication*.  Two tenants who share nothing but the kernel — no
files opened by both for the writeback channel, one read-only file of
shared visibility for the residency channel — exchange a framed payload
(:mod:`repro.icl.channels`), and the harness reports the two numbers an
attacker and a defender both care about:

* **bandwidth** — payload bits per second of *simulated* time, measured
  from the sender's first cell boundary to the receiver's finish;
* **bit-error rate** — decoded payload versus the known pseudorandom
  payload, with the codec's parity errors as the receiver's own
  (ground-truth-free) error signal.

Both channels run as resumable arena clients (``step_markers=True``) on
one shared kernel.  Round-robin granting plus sorted-name order gives
the protocol its clock: the sender (``a-tx``) asserts cell *i* and
parks, the receiver (``b-rx``) probes cell *i* and parks, and optional
background tenants (``w-bg*``) and injector interference processes
(``z-inject-*``) take their turns in between — the defender's knobs.
Interference runs as quantum-parked clients, not free-running sleepers,
because ``run_until_blocked`` advances the clock to future-ready
processes (a sleeper beside a parked arena would burn its whole horizon
inside one slice).

Determinism: the payload, client RNG streams, and injector schedules
are all pure functions of ``(seed, config)``; the obs-stream digest
(:func:`repro.obs.export.stream_digest`) is the reproducibility pin the
bench suite (``benchmarks/bench_channels.py``) gates on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.experiments.harness import format_table
from repro.icl.channels import (
    DecodeResult,
    FrameSpec,
    ResidencyChannelReceiver,
    ResidencyChannelSender,
    WritebackChannelReceiver,
    WritebackChannelSender,
    ber,
    encode_frame,
    payload_bits,
)
from repro.obs.export import stream_digest, write_json, write_jsonl
from repro.sim import Kernel, MachineConfig, PLATFORMS, TransientError
from repro.sim import syscalls as sc
from repro.sim.arena import Arena, ArenaClient, make_policy
from repro.sim.clock import SECONDS
from repro.sim.inject import (
    FaultInjector,
    horizon_after,
    interference_bodies,
    noise_profile,
)
from repro.sim.kernel import Oracle
from repro.workloads.files import make_file

KIB = 1024
MIB = 1024 * 1024

CHANNELS_SEED = 0xC04EC7

#: The two implemented channels, in report order.
CHANNEL_KINDS = ("residency", "writeback")

#: Default wire format: 8 calibration cells, even parity every 8 bits.
DEFAULT_SPEC = FrameSpec(preamble_cells=8, parity="even", parity_block=8)

#: Receiver probe size and sender safety margin for the writeback
#: channel, in pages.  The sender loads the dirty count to
#: ``limit - WB_MARGIN_PAGES`` (never self-triggering, margin also
#: absorbs metadata residue ``fsync`` does not clean); the receiver
#: writes ``WB_PROBE_PAGES > WB_MARGIN_PAGES``, so a loaded throttle
#: always crosses and the flush is charged to the receiver's write.
WB_PROBE_PAGES = 32
WB_MARGIN_PAGES = 16

#: How long injector interference keeps running (simulated), measured
#: from the start of the arena run.  Sized to cover a whole default
#: frame so noise applies to every cell, not just the preamble.
INTERFERENCE_HORIZON_NS = 2 * SECONDS

_ROOT = "/mnt0/chan"


def channels_config() -> MachineConfig:
    """The shared channel machine: 16 KiB pages, 88 MiB available.

    Sized so netbsd15's fixed 64 MiB file pool fits (the strictest
    platform), a default residency frame occupies a few percent of the
    cache, and the writeback limit sits in the hundreds of pages.
    """
    return MachineConfig(
        page_size=16 * KIB,
        memory_bytes=96 * MIB,
        kernel_reserved_bytes=8 * MIB,
        data_disks=1,
    )


# ======================================================================
# Report
# ======================================================================
@dataclass
class ChannelReport:
    """One transmission: channel quality plus the determinism pin.

    Of the obs stream the report keeps its digest and ``record_count``;
    pass ``out_path`` to :func:`run_channel` for the records themselves.
    """

    channel: str
    platform: str
    noise: float
    n_background: int
    seed: int
    n_bits: int
    cells: int
    sent_bits: List[int]
    decoded_bits: List[int]
    ber: float
    parity_errors: int
    confidence: float
    bandwidth_bits_per_s: float
    frame_span_ns: int
    sim_elapsed_ns: int
    host_elapsed_s: float
    digest: str
    latencies: List[int] = field(default_factory=list)
    record_count: int = 0
    out_path: Optional[str] = None
    report_path: Optional[str] = None

    @property
    def decoded_text(self) -> str:
        return "".join(str(b) for b in self.decoded_bits)

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "channel_report",
            "channel": self.channel,
            "platform": self.platform,
            "noise": self.noise,
            "n_background": self.n_background,
            "seed": self.seed,
            "n_bits": self.n_bits,
            "cells": self.cells,
            "ber": round(self.ber, 6),
            "parity_errors": self.parity_errors,
            "confidence": round(self.confidence, 6),
            "bandwidth_bits_per_s": round(self.bandwidth_bits_per_s, 3),
            "frame_span_ns": self.frame_span_ns,
            "sim_elapsed_ns": self.sim_elapsed_ns,
            "host_elapsed_s": round(self.host_elapsed_s, 4),
            "sent": "".join(str(b) for b in self.sent_bits),
            "decoded": self.decoded_text,
            "digest": self.digest,
        }

    def render(self) -> str:
        parts = [
            (
                f"== channel: {self.channel} platform={self.platform} "
                f"noise={self.noise:g} background={self.n_background} "
                f"seed={hex(self.seed)} =="
            ),
            (
                f"payload {self.n_bits} bits in {self.cells} cells  "
                f"BER={self.ber:.4f}  parity_errors={self.parity_errors}  "
                f"preamble confidence={self.confidence:.3f}"
            ),
            (
                f"bandwidth {self.bandwidth_bits_per_s:.1f} bits/s (sim)  "
                f"frame span {self.frame_span_ns / 1e6:.1f} ms  "
                f"host {self.host_elapsed_s:.2f}s"
            ),
            f"obs digest: {self.digest}",
        ]
        if self.ber > 0:
            sent = "".join(str(b) for b in self.sent_bits)
            parts.append(f"sent:    {sent}")
            parts.append(f"decoded: {self.decoded_text}")
        if self.out_path:
            parts.append(f"wrote {self.record_count} records to {self.out_path}")
        if self.report_path:
            parts.append(f"wrote report to {self.report_path}")
        return "\n".join(parts)


# ======================================================================
# Driver
# ======================================================================
def _background_factory(
    path: str, page: int, rounds: int = 4
) -> Callable[[ArenaClient], Generator]:
    """A read-only scan tenant: cache pressure without dirty pages."""

    def factory(client: ArenaClient) -> Generator:
        def body() -> Generator:
            # Shrug off injected transients: background pressure must
            # keep pressing on the machine the injector makes hostile.
            while True:
                try:
                    fd = (yield sc.open(path)).value
                    size = (yield sc.fstat(fd)).value.size
                    break
                except TransientError:
                    continue
            for _ in range(rounds):
                for offset in range(0, size, 4 * page):
                    try:
                        yield sc.pread(fd, offset, 4 * page)
                    except TransientError:
                        continue
            yield sc.close(fd)
            return {"kind": "background", "rounds": rounds}

        return body()

    return factory


def run_channel(
    channel: str = "residency",
    *,
    noise: float = 0.0,
    n_background: int = 0,
    platform: str = "linux22",
    seed: int = CHANNELS_SEED,
    n_bits: int = 48,
    spec: Optional[FrameSpec] = None,
    numpy_paths: bool = True,
    out_path: Optional[str] = None,
    report_path: Optional[str] = None,
) -> ChannelReport:
    """Transmit one frame over ``channel`` and score it.

    ``noise`` drives :func:`repro.sim.inject.noise_profile`'s full
    ladder (the defender's ablation filters it per domain via
    :func:`repro.experiments.robustness.robustness_noise_sweep`);
    ``n_background`` adds read-only scan tenants.  ``out_path`` dumps
    the obs stream as JSONL, ``report_path`` the report JSON.
    """
    if channel not in CHANNEL_KINDS:
        raise ValueError(
            f"unknown channel {channel!r}; choices: {', '.join(CHANNEL_KINDS)}"
        )
    if platform not in PLATFORMS:
        raise ValueError(
            f"unknown platform {platform!r}; choices: {', '.join(sorted(PLATFORMS))}"
        )
    if n_background < 0:
        raise ValueError("n_background must be >= 0")
    spec = spec or DEFAULT_SPEC
    config = channels_config()
    page = config.page_size
    bits = payload_bits(seed, n_bits)
    cells = encode_frame(bits, spec)
    ncells = len(cells)

    kernel = Kernel(
        config,
        platform=PLATFORMS[platform],
        event_capacity=max(100_000, 2048 * (n_background + 4)),
        numpy_paths=numpy_paths,
    )
    host_start = time.perf_counter()

    res_path = f"{_ROOT}/res.dat"
    wb_tx_path = f"{_ROOT}/wb-tx.dat"
    wb_rx_path = f"{_ROOT}/wb-rx.dat"
    bg_paths = [f"{_ROOT}/bg{i:02d}.dat" for i in range(n_background)]
    # Gray-box parameter knowledge: the bdflush limit as a fraction of
    # file-cache capacity.  The sender parks the dirty count just below
    # it; platforms differ through ``file_capacity_pages`` (netbsd15's
    # fixed pool is smaller than the unified platforms').
    dirty_limit = int(kernel.mm.file_capacity_pages * config.dirty_limit_frac)
    load_pages = dirty_limit - WB_MARGIN_PAGES
    if load_pages < 1:
        raise ValueError(
            f"machine too small for the writeback channel (limit {dirty_limit})"
        )

    def setup() -> Generator:
        yield sc.mkdir(_ROOT)
        if channel == "residency":
            yield from make_file(
                res_path, ncells * 2 * page, sync=False
            )
        else:
            yield from make_file(wb_tx_path, load_pages * page, sync=True)
            yield from make_file(wb_rx_path, WB_PROBE_PAGES * page, sync=True)
        for path in bg_paths:
            yield from make_file(path, 64 * page, sync=False)

    kernel.run_process(setup(), "setup:channels")
    # Move to known state: every tenant starts against a cold cache.
    Oracle(kernel).flush_file_cache()

    injector = FaultInjector(noise_profile(noise, seed=seed))
    injector.install(kernel)

    arena = Arena(kernel, policy=make_policy("round-robin"), seed=seed)
    # Sorted-name order is the protocol clock: a-tx < b-rx < w-bg* <
    # z-inject*, so each turn runs sender cell i, then receiver cell i,
    # then one quantum of every perturbing tenant.
    if channel == "residency":
        receiver = ResidencyChannelReceiver(
            res_path, page, obs=kernel.obs, step_markers=True
        )
        arena.add_client(
            "a-tx",
            lambda client: ResidencyChannelSender(
                res_path, page, obs=kernel.obs, step_markers=True
            ).send(cells),
            kind="tx",
        )
    else:
        receiver = WritebackChannelReceiver(
            wb_rx_path, page, probe_pages=WB_PROBE_PAGES,
            obs=kernel.obs, step_markers=True,
        )
        arena.add_client(
            "a-tx",
            lambda client: WritebackChannelSender(
                wb_tx_path, page, load_pages,
                obs=kernel.obs, step_markers=True,
            ).send(cells),
            kind="tx",
        )
    arena.add_client(
        "b-rx", lambda client: receiver.receive(ncells), kind="rx"
    )
    for i, path in enumerate(bg_paths):
        arena.add_client(
            f"w-bg{i:02d}",
            _background_factory(path, page),
            kind="background",
            quantum=8,
        )
    horizon = horizon_after(kernel, INTERFERENCE_HORIZON_NS)
    for name, gen in interference_bodies(injector.config, horizon):
        arena.add_client(
            f"z-{name}",
            lambda client, _gen=gen: _gen,
            kind="interference",
            quantum=8,
        )

    clients = arena.run()
    injector.uninstall()
    host_elapsed = time.perf_counter() - host_start

    by_name = {c.name: c for c in clients}
    tx_client, rx_client = by_name["a-tx"], by_name["b-rx"]
    latencies = list(rx_client.result)
    decoded: DecodeResult = receiver.decode(latencies, spec)
    # The channel is occupied from the sender's first cell boundary to
    # the receiver's finish — bandwidth charges the whole protocol,
    # preamble and parity included, against payload bits only.
    frame_start = tx_client.step_log[0][1] if tx_client.step_log else 0
    frame_span = max(rx_client.finished_ns - frame_start, 1)
    records = list(kernel.obs.dump_records())
    report = ChannelReport(
        channel=channel,
        platform=platform,
        noise=noise,
        n_background=n_background,
        seed=seed,
        n_bits=n_bits,
        cells=ncells,
        sent_bits=bits,
        decoded_bits=decoded.bits,
        ber=ber(bits, decoded.bits),
        parity_errors=decoded.parity_errors,
        confidence=decoded.confidence,
        bandwidth_bits_per_s=n_bits / (frame_span / 1e9),
        frame_span_ns=frame_span,
        sim_elapsed_ns=kernel.clock.now,
        host_elapsed_s=host_elapsed,
        digest=stream_digest(records),
        latencies=latencies,
        record_count=len(records),
    )
    if out_path is not None:
        write_jsonl(Path(out_path), records)
        report.out_path = str(out_path)
    if report_path is not None:
        write_json(report_path, report.to_json())
        report.report_path = str(report_path)
    return report


# ======================================================================
# Sweep
# ======================================================================
def channel_sweep(
    channels: Sequence[str] = CHANNEL_KINDS,
    platforms: Sequence[str] = ("linux22", "netbsd15", "solaris7"),
    noise_levels: Sequence[float] = (0.0, 0.4, 0.8),
    n_background: int = 0,
    seed: int = CHANNELS_SEED,
    n_bits: int = 32,
) -> List[ChannelReport]:
    """Bandwidth and BER per (channel, platform, noise) cell."""
    reports: List[ChannelReport] = []
    for channel in channels:
        for platform in platforms:
            for noise in noise_levels:
                reports.append(
                    run_channel(
                        channel,
                        noise=noise,
                        n_background=n_background,
                        platform=platform,
                        seed=seed,
                        n_bits=n_bits,
                    )
                )
    return reports


def render_channel_sweep(reports: Sequence[ChannelReport]) -> str:
    headers = [
        "channel", "platform", "noise", "bg", "bits", "BER",
        "parity", "conf", "bits/s", "digest",
    ]
    rows = [
        [
            r.channel,
            r.platform,
            f"{r.noise:g}",
            r.n_background,
            r.n_bits,
            f"{r.ber:.4f}",
            r.parity_errors,
            f"{r.confidence:.3f}",
            f"{r.bandwidth_bits_per_s:.1f}",
            r.digest[:12],
        ]
        for r in reports
    ]
    return "== covert-channel sweep ==\n" + format_table(headers, rows)
