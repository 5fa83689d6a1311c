"""ICL base class and the gray-box technique profile.

Each ICL declares which of the paper's techniques (§2) it uses in its
``profile``; Table 2 reads ``FCCD.profile``, ``FLDC.profile`` and
``MAC.profile`` directly (Table 1 reads :mod:`repro.related`'s
profiles), so both tables come from the implementations instead of
from prose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Generator, List, Optional

from repro.obs import DISABLED, Observability
from repro.sim import syscalls as sc
from repro.sim.arena import STEP, StepBoundary
from repro.sim.errors import TransientError
from repro.sim.syscalls import Syscall
from repro.toolbox.repository import ParameterRepository
from repro.toolbox.retry import Backoff


@dataclass(frozen=True)
class TechniqueProfile:
    """How one gray-box system instantiates each technique row.

    Field order matches the rows of Tables 1 and 2: the *knowledge*
    assumed, the *outputs* observed, the *statistics* applied, the
    *benchmarks* required, the *probes* inserted, the *known state* the
    system moves to, and the *feedback* it reinforces.  Use ``"None"``
    for techniques a system does not use, exactly as the paper's tables
    do.
    """

    knowledge: str
    outputs: str
    statistics: str
    benchmarks: str
    probes: str
    known_state: str
    feedback: str

    ROW_TITLES = (
        "Knowledge",
        "Outputs",
        "Statistics",
        "Benchmarks",
        "Probes",
        "Known state",
        "Feedback",
    )

    def rows(self) -> List[str]:
        return [getattr(self, f.name) for f in fields(self)]


class ICL:
    """Base for gray-box Information and Control Layers.

    Holds the pieces every layer shares: the parameter repository
    (microbenchmark results), a seeded RNG (probe placement must be
    random but experiments must be repeatable), the technique profile
    for the table generators, and an observability sink.  ``obs``
    defaults to the shared no-op instance; pass ``kernel.obs`` to put
    inference-phase spans (``fccd.probe_batch``, ``mac.alloc_round``,
    ...) on the kernel's simulated timeline.  This is host-side wiring,
    like the RNG — the ICL still *observes* the OS only through
    syscalls.
    """

    name: str = "icl"
    profile: TechniqueProfile = TechniqueProfile(
        knowledge="(abstract)",
        outputs="(abstract)",
        statistics="None",
        benchmarks="None",
        probes="None",
        known_state="None",
        feedback="None",
    )

    def __init__(
        self,
        repository: Optional[ParameterRepository] = None,
        rng: Optional[random.Random] = None,
        obs: Optional[Observability] = None,
        retry: Optional[Backoff] = None,
        step_markers: bool = False,
    ) -> None:
        self.repository = repository or ParameterRepository()
        self.rng = rng or random.Random(0x6B0C5)
        self.obs = obs if obs is not None else DISABLED
        # Transient-failure policy (EINTR/EAGAIN under load): probe
        # syscalls loop through ``_retry`` with this schedule.  Retries
        # only engage on error, so the quiet path is unchanged; pass
        # ``toolbox.NO_RETRY`` to let transients propagate (the
        # robustness sweep's unhardened baseline).
        self.retry = retry if retry is not None else Backoff()
        # Arena protocol (repro.sim.arena): with ``step_markers`` on,
        # the drive loops yield a STEP sentinel after each probe batch
        # so an arena shell can park the client there.  Off (the
        # default), ``checkpoint`` yields nothing and every drive loop
        # remains a plain run-to-completion syscall generator.
        self.step_markers = step_markers

    def checkpoint(self, tag: object = None) -> Generator:
        """Mark a resumable step boundary (``yield from`` in drive loops).

        Yields :data:`~repro.sim.arena.STEP` when :attr:`step_markers`
        is set, nothing otherwise — the sequential fallback is the same
        generator minus the marker, not a second code path.  The marker
        is host-side only (the arena's park syscall has zero simulated
        duration), so stepped and unstepped runs observe identical
        timings.

        ``tag`` labels the boundary: the arena records ``(tag, now)`` in
        the client's ``step_log`` before parking, which lets a harness
        align two clients' turns (e.g. a covert-channel sender and
        receiver agreeing on cell indices) without any simulated-time or
        obs-stream side effect.  Untagged checkpoints share the single
        :data:`STEP` instance, so existing drive loops allocate nothing.
        """
        if self.step_markers:
            yield STEP if tag is None else StepBoundary(tag)

    def _retry(self, syscall: Syscall) -> Generator:
        """Issue ``syscall``, absorbing transient faults with backoff.

        A bounded number of :class:`~repro.sim.errors.TransientError`
        failures (EAGAIN/EINTR) are retried after an exponentially
        growing simulated sleep; the budget exhausted, the error
        propagates.  Probe syscalls are idempotent (a transient fault
        aborts before any kernel side effect), so a retry observes
        exactly what the fault-free call would have.  Every retry bumps
        the ``icl.retry`` counters so injected faults stay joinable to
        the ICL's reaction.
        """
        policy = self.retry
        attempt = 0
        while True:
            try:
                return (yield syscall)
            except TransientError:
                if attempt >= policy.max_retries:
                    raise
                self.obs.count("icl.retry")
                self.obs.count(f"icl.retry.{syscall.name}")
                delay = policy.delay_ns(attempt)
                if delay:
                    yield sc.sleep(delay)
                attempt += 1
