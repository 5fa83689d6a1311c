"""Shared fixtures: small machines and generator-process helpers.

Also the RNG-seeding guard: reproducibility here rests on every random
draw flowing from an explicit seed (``random.Random(seed)`` instances,
stream-keyed injector draws), never from the process-global ``random``
module.  An autouse fixture seeds the global RNG per test anyway (so an
accidental use cannot flake run-to-run) and then *fails* the test that
consumed it, pointing at the unseeded use.  Hypothesis-driven tests are
exempt: Hypothesis manages and restores the global RNG itself.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sim import Kernel, MachineConfig, linux22, netbsd15, solaris7

KIB = 1024
MIB = 1024 * 1024


@pytest.fixture(autouse=True)
def _global_rng_guard(request):
    """Deterministic global RNG per test + a tripwire on its use."""
    node_seed = int.from_bytes(
        hashlib.sha256(request.node.nodeid.encode()).digest()[:8], "big"
    )
    random.seed(node_seed)  # rng-audit: allow — the guard itself
    before = random.getstate()
    yield
    if request.node.get_closest_marker("hypothesis") is not None:
        return
    if random.getstate() != before:
        pytest.fail(
            f"{request.node.nodeid} drew from the module-global `random` "
            "RNG. Use an explicitly seeded random.Random(seed) instance "
            "so trials replay byte-identically."
        )


def small_config(**overrides) -> MachineConfig:
    """A 32 MB-available machine with 4 KiB pages — fast to simulate."""
    params = dict(
        page_size=4 * KIB,
        memory_bytes=40 * MIB,
        kernel_reserved_bytes=8 * MIB,
        data_disks=1,
    )
    params.update(overrides)
    return MachineConfig(**params)


@pytest.fixture
def config() -> MachineConfig:
    return small_config()


@pytest.fixture
def kernel(config) -> Kernel:
    return Kernel(config)


@pytest.fixture(params=["linux22", "netbsd15", "solaris7"])
def any_platform_kernel(request, config) -> Kernel:
    platform = {"linux22": linux22, "netbsd15": netbsd15, "solaris7": solaris7}[
        request.param
    ]
    return Kernel(config, platform=platform)


def all_groups(fs):
    """Every cylinder group of ``fs``, in index order, through ``fs.group``.

    A lazy iterator: it builds the groups the file system has not built
    yet, and no list of them.
    """
    return map(fs.group, range(fs.ngroups))


def run(kernel: Kernel, gen, name: str = "test"):
    """Run one generator process to completion and return its result."""
    return kernel.run_process(gen, name)
