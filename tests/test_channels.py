"""Covert-channel suite: codec properties, channel physics, CLI.

Three layers of claims:

* **codec** (pure functions, Hypothesis): encode→decode is the identity
  over a noiseless channel for arbitrary payloads and frame specs, and
  bit-error rate is monotone in noise under a coupled-noise
  construction (the same latency draws, spikes added at increasing
  probability thresholds).
* **channel physics** (whole-kernel integration): at noise 0 the
  residency channel decodes below 1% BER on every platform personality,
  BER degrades monotonically (within tolerance) as the injector ladder
  rises, and background tenants cost bandwidth.
* **harness**: tagged step boundaries land in ``ArenaClient.step_log``
  without touching the obs stream, the robustness domain filter builds
  exactly the requested noise families, ``channel_summary`` attributes
  per-cell spans, and the CLI writes artifacts that pass the JSONL
  validator.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.experiments.channels import (
    CHANNELS_SEED,
    channel_sweep,
    channels_config,
    render_channel_sweep,
    run_channel,
)
from repro.experiments.robustness import robustness_noise_sweep
from repro.icl.channels import (
    FrameSpec,
    ber,
    decode_frame,
    encode_frame,
    frame_cells,
    payload_bits,
)
from repro.obs.export import validate_jsonl
from repro.obs.views import channel_summary
from repro.sim import Kernel, MachineConfig, PLATFORMS
from repro.sim import syscalls as sc
from repro.sim.arena import Arena, StepBoundary
from repro.sim.inject import NOISE_DOMAINS, noise_profile

KIB = 1024
MIB = 1024 * 1024

FAST_NS = 2_000
SLOW_NS = 9_000_000

frame_specs = st.builds(
    FrameSpec,
    preamble_cells=st.sampled_from([2, 4, 8, 12]),
    parity=st.sampled_from(["none", "even"]),
    parity_block=st.integers(min_value=1, max_value=9),
)

payloads = st.lists(st.integers(min_value=0, max_value=1), max_size=64)


def _latencies(cells, one_is_slow=False, jitter=None):
    """Synthesize a noiseless latency trace for a cell-symbol sequence."""
    out = []
    for symbol in cells:
        slow = symbol if one_is_slow else not symbol
        base = SLOW_NS if slow else FAST_NS
        out.append(base + (jitter() if jitter else 0))
    return out


# ======================================================================
# Codec properties
# ======================================================================
@given(bits=payloads, spec=frame_specs, one_is_slow=st.booleans())
@settings(max_examples=120, deadline=None)
def test_codec_noiseless_roundtrip(bits, spec, one_is_slow):
    cells = encode_frame(bits, spec)
    assert len(cells) == frame_cells(len(bits), spec)
    result = decode_frame(_latencies(cells, one_is_slow), spec, one_is_slow)
    assert result.bits == list(bits)
    assert result.parity_errors == 0
    assert result.cells == len(cells)


@given(bits=payloads, spec=frame_specs, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_codec_roundtrip_survives_small_jitter(bits, spec, seed):
    """Jitter far below the fast/slow separation never flips a bit."""
    rng = random.Random(seed)
    cells = encode_frame(bits, spec)
    latencies = _latencies(cells, jitter=lambda: rng.randrange(0, FAST_NS))
    assert decode_frame(latencies, spec).bits == list(bits)


@given(seed=st.integers(0, 2**32 - 1), nbits=st.integers(1, 48))
@settings(max_examples=40, deadline=None)
def test_codec_ber_monotone_under_coupled_noise(seed, nbits):
    """Same draws, rising corruption probability ⇒ non-decreasing BER.

    Noise is coupled across levels at the Manchester-pair granularity:
    one uniform draw per payload pair, and the pair's two halves swap
    (the worst-case channel error — a clean inversion) iff its draw
    falls below the level's probability.  Any pair corrupted at a low
    level is corrupted at every higher level, so the error set is
    nested and BER can only grow.  (Per-*cell* noise is deliberately
    not monotone: spiking both halves of a pair restores the
    comparison — differential decoding self-heals, which is the point
    of Manchester framing; the channel-level ladder test covers that
    statistical regime.)
    """
    spec = FrameSpec(preamble_cells=4, parity="none")
    bits = payload_bits(seed, nbits)
    cells = encode_frame(bits, spec)
    clean = _latencies(cells)
    npairs = (len(cells) - spec.preamble_cells) // 2
    draws = [random.Random(seed ^ i).random() for i in range(npairs)]
    rates = []
    for prob in (0.0, 0.1, 0.3, 0.6, 1.0):
        latencies = list(clean)
        for pair, draw in enumerate(draws):
            if draw < prob:
                i = spec.preamble_cells + 2 * pair
                latencies[i], latencies[i + 1] = latencies[i + 1], latencies[i]
        rates.append(ber(bits, decode_frame(latencies, spec).bits))
    assert rates[0] == 0.0
    assert rates[-1] == 1.0
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_frame_spec_validation():
    with pytest.raises(ValueError):
        FrameSpec(preamble_cells=3)
    with pytest.raises(ValueError):
        FrameSpec(preamble_cells=0)
    with pytest.raises(ValueError):
        FrameSpec(parity="odd")
    with pytest.raises(ValueError):
        FrameSpec(parity_block=0)
    with pytest.raises(ValueError):
        encode_frame([0, 2])
    with pytest.raises(ValueError):
        decode_frame([1.0] * 9, FrameSpec(preamble_cells=8))


def test_parity_flags_corrupted_block():
    spec = FrameSpec(preamble_cells=4, parity="even", parity_block=4)
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    latencies = _latencies(encode_frame(bits, spec))
    clean = decode_frame(latencies, spec)
    assert clean.bits == bits and clean.parity_errors == 0
    # Flip one payload cell pair (first pair after the preamble).
    corrupted = list(latencies)
    corrupted[4], corrupted[5] = corrupted[5], corrupted[4]
    dirty = decode_frame(corrupted, spec)
    assert dirty.bits != bits
    assert dirty.parity_errors >= 1


def test_ber_counts_length_mismatch():
    assert ber([], []) == 0.0
    assert ber([1, 0], [1, 0]) == 0.0
    assert ber([1, 0], [1, 1]) == 0.5
    assert ber([1, 0, 1], [1]) == pytest.approx(2 / 3)


def test_payload_bits_deterministic_and_balanced():
    a = payload_bits(7, 256)
    assert a == payload_bits(7, 256)
    assert a != payload_bits(8, 256)
    assert set(a) == {0, 1}
    # splitmix64 output is unbiased enough that 256 draws are never
    # degenerate (this is a smoke bound, not a statistics claim).
    assert 64 < sum(a) < 192


# ======================================================================
# Channel physics
# ======================================================================
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_residency_quiet_ber_below_one_percent(platform):
    report = run_channel("residency", platform=platform, n_bits=48)
    assert report.ber < 0.01
    assert report.parity_errors == 0
    assert report.confidence > 0.9
    assert report.bandwidth_bits_per_s > 0


def test_writeback_quiet_ber_below_one_percent():
    report = run_channel("writeback", n_bits=32)
    assert report.ber < 0.01
    assert report.parity_errors == 0
    assert report.confidence > 0.9


def test_residency_ber_degrades_monotonically_with_noise():
    rates = [
        run_channel("residency", noise=level, n_bits=48).ber
        for level in (0.0, 0.6, 1.0)
    ]
    assert rates[0] < 0.01
    # Injected noise is not coupled across levels (each level draws its
    # own schedule), so monotonicity holds within a tolerance.
    tolerance = 0.05
    assert rates[1] <= rates[2] + tolerance
    assert rates[0] <= rates[1] + tolerance
    # And the ladder's top is genuinely noisy for this channel.
    assert rates[2] > rates[0]


def test_background_tenants_cost_bandwidth():
    quiet = run_channel("residency", n_bits=32)
    busy = run_channel("residency", n_bits=32, n_background=3)
    assert busy.bandwidth_bits_per_s < quiet.bandwidth_bits_per_s
    assert busy.frame_span_ns > quiet.frame_span_ns


def test_channel_sweep_renders_every_cell():
    reports = channel_sweep(
        channels=("residency",),
        platforms=("linux22", "solaris7"),
        noise_levels=(0.0,),
        n_bits=8,
    )
    assert len(reports) == 2
    assert all(r.ber < 0.01 for r in reports)
    table = render_channel_sweep(reports)
    assert "linux22" in table and "solaris7" in table
    assert "bits/s" in table


def test_run_channel_validates_arguments():
    with pytest.raises(ValueError):
        run_channel("carrier-pigeon")
    with pytest.raises(ValueError):
        run_channel("residency", platform="plan9")
    with pytest.raises(ValueError):
        run_channel("residency", n_background=-1)


def test_channels_config_fits_every_platform():
    """netbsd15's fixed 64 MiB file pool must fit the channel machine."""
    config = channels_config()
    for name in sorted(PLATFORMS):
        kernel = Kernel(config, platform=PLATFORMS[name])
        limit = int(kernel.mm.file_capacity_pages * config.dirty_limit_frac)
        assert limit > 16 + 32  # margin + probe pages


# ======================================================================
# Harness pieces
# ======================================================================
def test_step_log_records_tagged_boundaries():
    kernel = Kernel(MachineConfig(
        page_size=16 * KIB, memory_bytes=32 * MIB,
        kernel_reserved_bytes=8 * MIB, data_disks=1,
    ))

    def factory(client):
        def body():
            yield sc.mkdir("/mnt0/d0")
            yield StepBoundary(("a", 0))
            yield sc.mkdir("/mnt0/d1")
            yield StepBoundary()  # untagged: parks but does not log
            yield sc.mkdir("/mnt0/d2")
            yield StepBoundary(("a", 1))
            return "done"

        return body()

    arena = Arena(kernel)
    arena.add_client("c", factory)
    (client,) = arena.run()
    assert client.result == "done"
    tags = [tag for tag, _now in client.step_log]
    assert tags == [("a", 0), ("a", 1)]
    times = [now for _tag, now in client.step_log]
    assert times == sorted(times)


def test_channel_summary_attributes_cell_spans():
    report = run_channel("residency", n_bits=16)
    summary = channel_summary(report.records)
    roles = {entry["role"] for entry in summary.values()}
    assert roles == {"tx", "rx"}
    by_role = {entry["role"]: entry for entry in summary.values()}
    # The receiver probes every cell; the sender only touches 1-cells.
    ones = sum(encode_frame(report.sent_bits,
                            FrameSpec(preamble_cells=8, parity="even",
                                      parity_block=8)))
    assert by_role["rx"]["cells"] == report.cells
    assert by_role["tx"]["cells"] == ones
    assert by_role["rx"]["mean_cell_ns"] > 0


def test_noise_profile_domain_filter():
    full = noise_profile(0.5, seed=3)
    assert full.latency is not None and full.faults is not None
    assert full.sched_jitter_ns > 0 and full.interference

    latency_only = noise_profile(0.5, seed=3, domains=("latency",))
    assert latency_only.latency == full.latency
    assert latency_only.touch_latency == full.touch_latency
    assert latency_only.faults is None
    assert latency_only.sched_jitter_ns == 0
    assert latency_only.interference == ()

    faults_only = noise_profile(0.5, seed=3, domains=("faults",))
    assert faults_only.latency is None
    assert faults_only.touch_latency is None
    assert faults_only.faults == full.faults
    assert faults_only.interference == ()

    background_only = noise_profile(0.5, seed=3, domains=("background",))
    assert background_only.latency is None
    assert background_only.faults is None
    assert background_only.interference == full.interference

    assert noise_profile(0.0, seed=3, domains=("latency",)).latency is None

    with pytest.raises(ValueError):
        noise_profile(0.5, domains=("cosmic-rays",))
    assert set(NOISE_DOMAINS) == {"latency", "faults", "sched", "background"}


def test_robustness_sweep_domain_filter():
    result = robustness_noise_sweep(
        levels=(0.0, 0.5), trials=1, icls=("mac",), domain="latency"
    )
    assert result.figure_id == "robustness-latency"
    assert "latency" in result.title
    assert len(result.rows) == 2
    with pytest.raises(ValueError):
        robustness_noise_sweep(
            levels=(0.0,), trials=1, icls=("mac",), domain="gamma-rays"
        )


def test_cli_writes_validating_artifacts(tmp_path, capsys):
    out = tmp_path / "chan.jsonl"
    report = tmp_path / "chan.json"
    code = main([
        "repro", "channels", "--channel", "residency", "--bits", "16", "--noise", "0.4",
        "--n-background", "1",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "channel: residency" in text
    assert validate_jsonl(out) > 0
    payload = json.loads(report.read_text())
    assert payload["type"] == "channel_report"
    assert payload["channel"] == "residency"
    assert 0.0 <= payload["ber"] <= 1.0
    assert payload["digest"]
    assert payload["n_background"] == 1


def test_cli_both_channels_suffixes_artifacts(tmp_path):
    report = tmp_path / "chan.json"
    code = main([
        "repro", "channels", "--channel", "both", "--bits", "8", "--report", str(report),
    ])
    assert code == 0
    assert not report.exists()
    for channel in ("residency", "writeback"):
        payload = json.loads((tmp_path / f"chan-{channel}.json").read_text())
        assert payload["channel"] == channel
        assert payload["ber"] < 0.01
