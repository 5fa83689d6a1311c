"""A finished kernel is freed by reference counting alone.

Every figure is a sweep over fresh simulated machines, so a machine that
sits in a reference cycle keeps its page pools, file systems and obs
ring alive until the next cyclic-GC pass, and peak host memory stacks
dead machines.  With the cyclic collector off, each driver below must
leave none of the kernels it built alive when it returns — the lifetime
rule in ``ARCHITECTURE.md``: nothing a ``Kernel`` owns refers back to
it or to its ``Observability``.
"""

import gc
import weakref

import pytest

from repro.experiments import runner
from repro.experiments.arena import run_arena
from repro.experiments.channels import channel_sweep
from repro.experiments.figures import fig5_file_ordering, fig7_sort_mac
from repro.experiments.robustness import robustness_noise_sweep
from repro.sim import Kernel
from repro.sim import syscalls as sc


def _pipe_pipeline():
    """Writer and reader wired by ``spawn_with_pipe_ends``, reaped by ``waitpid``."""
    kernel = Kernel()
    pipe = kernel.make_pipe()

    def writer(w_fd):
        yield sc.write(w_fd, 4096)
        yield sc.close(w_fd)
        return "sent"

    def reader(r_fd):
        got = (yield sc.read(r_fd, 4096)).value.nbytes
        yield sc.close(r_fd)
        return got

    tx = kernel.spawn_with_pipe_ends(writer, [(pipe, "pipe_w")], "tx")
    rx = kernel.spawn_with_pipe_ends(reader, [(pipe, "pipe_r")], "rx")

    def parent():
        sent = (yield sc.waitpid(tx.pid)).value
        got = (yield sc.waitpid(rx.pid)).value
        return sent, got

    return kernel.run_process(parent(), "parent")


DRIVERS = {
    "fig5": lambda: fig5_file_ordering(files=20, trials=1),
    "fig7": lambda: fig7_sort_mac(
        nprocs=2, input_mb=16, static_pass_mb=(8,), min_pass_mb=4,
        memory_mb=48, reserved_mb=16, trials=1,
    ),
    "pipe-pipeline": _pipe_pipeline,
    "arena-round-robin": lambda: run_arena(16, policy="round-robin"),
    "arena-weighted": lambda: run_arena(16, policy="weighted"),
    "arena-random": lambda: run_arena(16, policy="random"),
    "robustness": lambda: robustness_noise_sweep(levels=(0.0, 0.5), trials=1),
    "channels": lambda: channel_sweep(
        channels=("residency", "writeback"), platforms=("linux22",),
        noise_levels=(0.4,), n_background=1, n_bits=8,
    ),
}


#: What a kernel owns that a cycle among its parts could pin without
#: pinning the kernel itself: its layers, page pools (``mm``) and obs
#: ring (the largest structure of an arena run).
OWNED = ("obs", "mm", "page_cache", "vfs", "fileio", "procs", "vm", "scheduler")


@pytest.fixture
def kernels_built(monkeypatch):
    """Weak references to every kernel built while the test runs, and to
    the parts of it named in :data:`OWNED`."""
    refs = []
    original = Kernel.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))
        refs.extend(weakref.ref(getattr(self, part)) for part in OWNED)

    monkeypatch.setattr(Kernel, "__init__", init)
    return refs


@pytest.mark.parametrize("name", list(DRIVERS))
def test_driver_frees_every_kernel_it_built(name, kernels_built):
    with runner.configuration(jobs=1, use_cache=False):
        gc.disable()
        try:
            result = DRIVERS[name]()
            alive = [type(ref()).__name__ for ref in kernels_built if ref() is not None]
        finally:
            gc.enable()
    assert result
    assert kernels_built, f"{name} built no kernel"
    assert not alive, f"{name} returned with these still alive: {alive}"
