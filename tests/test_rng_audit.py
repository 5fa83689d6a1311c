"""Static RNG-seeding and host-clock audit.

Byte-identical replay (golden traces, the trial cache, the differential
fuzzer) requires that every random draw in the tree flows from an
explicit seed.  This audit walks the source and fails on the two ways
nondeterminism usually sneaks in:

* calls on the module-global RNG (``random.randrange(...)`` and
  friends), which seed from the OS at import time;
* ``random.Random()`` constructed with no arguments, which does the
  same thing one object deeper.

A third pattern keeps the host clock out of the simulator: it runs on
simulated time alone, and host time is measured from outside (the e2e
tracer, the core bench's profile pass).  Only the experiment drivers,
which report host wall time, may read it.

The runtime companion is the autouse ``_global_rng_guard`` fixture in
``conftest.py``, which catches global-RNG use the grep cannot see
(e.g. through a helper imported from a third-party module).
"""

import random
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "tests", "benchmarks")

#: Module-level functions of the global RNG; calling any of these draws
#: from interpreter-global, OS-seeded state.
GLOBAL_RNG_CALL = re.compile(
    r"\brandom\.(random|randint|randrange|randbytes|choice|choices|"
    r"shuffle|sample|uniform|triangular|gauss|normalvariate|expovariate|"
    r"betavariate|gammavariate|lognormvariate|vonmisesvariate|"
    r"paretovariate|weibullvariate|getrandbits|seed|setstate)\s*\("
)

#: ``random.Random()`` with nothing between the parentheses.
UNSEEDED_RANDOM = re.compile(r"\brandom\.Random\(\s*\)")

#: An import of ``time`` or a call on one of its host clocks.
HOST_CLOCK = re.compile(
    r"^\s*(import\s+time\b|from\s+time\s+import\b)"
    r"|\b(perf_counter|process_time|monotonic)(_ns)?\s*\("
)
SIMULATOR_ROOT = REPO_ROOT / "src" / "repro"
HOST_CLOCK_EXEMPT = SIMULATOR_ROOT / "experiments"


def _python_sources():
    for directory in SCANNED_DIRS:
        yield from sorted((REPO_ROOT / directory).rglob("*.py"))


def _violations(pattern, sources=None):
    found = []
    for path in sources or _python_sources():
        if path == Path(__file__).resolve():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "rng-audit: allow" in line:
                continue
            stripped = line.split("#", 1)[0]
            if pattern.search(stripped):
                found.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {line.strip()}")
    return found


def test_no_global_rng_calls():
    violations = _violations(GLOBAL_RNG_CALL)
    assert not violations, (
        "module-global random calls found (seed a random.Random(seed) "
        "instance instead):\n" + "\n".join(violations)
    )


def test_no_unseeded_random_instances():
    violations = _violations(UNSEEDED_RANDOM)
    assert not violations, (
        "unseeded random.Random() found (pass an explicit seed):\n"
        + "\n".join(violations)
    )


def test_simulator_reads_no_host_clock():
    sources = [
        path for path in sorted(SIMULATOR_ROOT.rglob("*.py"))
        if HOST_CLOCK_EXEMPT not in path.parents
    ]
    violations = _violations(HOST_CLOCK, sources)
    assert not violations, (
        "host clock read in the simulator (time it from outside, as the "
        "e2e tracer does):\n" + "\n".join(violations)
    )


def test_guard_detects_global_rng_use():
    """The tripwire mechanism in ``_global_rng_guard`` works: drawing
    from the global RNG is visible as a state change (which the autouse
    fixture turns into a failure).  State is restored afterwards so
    this test itself passes the guard."""
    before = random.getstate()
    random.randrange(10)
    tripped = random.getstate() != before
    random.setstate(before)
    assert tripped
