"""Syscall dispatch: the platform-pluggable handler registry.

A :class:`SyscallTable` maps syscall names to handlers.  Handlers are
callables of the shape ``handler(process, *args)`` returning either a
``(value, simulated_duration_ns)`` pair or the :data:`BLOCK` sentinel
(park the caller until woken; the kernel re-executes the syscall on
wake-up).  Raising a :class:`~repro.sim.errors.SimOSError` delivers the
failure into the process after the base syscall overhead.

At kernel construction each subsystem registers its handlers
(``subsystem.register_syscalls(table)``), so vectored calls and
experimental syscalls plug in without growing a central if/elif chain.
:meth:`SyscallTable.override` swaps an installed handler at run time —
the fault injector (:mod:`repro.sim.inject`) wraps probe syscalls that
way.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional

#: A syscall handler: ``handler(process, *args)`` →
#: ``(value, duration_ns)`` or :data:`BLOCK`.
Handler = Callable[..., Any]


class _Block:
    """Sentinel a handler returns to park the caller until woken."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BLOCK"


BLOCK = _Block()


class SyscallTable:
    """Name → handler registry with explicit override semantics.

    ``register`` claims a fresh name (duplicate registration is a
    programming error — two subsystems fighting over one syscall);
    ``override`` replaces an existing handler and returns the previous
    one so wrappers can delegate to the stock behaviour.
    """

    __slots__ = ("_handlers",)

    def __init__(self) -> None:
        self._handlers: Dict[str, Handler] = {}

    def register(self, name: str, handler: Handler) -> None:
        if name in self._handlers:
            raise ValueError(
                f"syscall {name!r} already registered; use override() to replace it"
            )
        self._handlers[name] = handler

    def override(self, name: str, handler: Handler) -> Handler:
        """Replace an existing handler; returns the one displaced."""
        previous = self._handlers.get(name)
        if previous is None:
            raise ValueError(
                f"cannot override unregistered syscall {name!r}; "
                f"known: {sorted(self._handlers)}"
            )
        self._handlers[name] = handler
        return previous

    def get(self, name: str) -> Optional[Handler]:
        return self._handlers.get(name)

    def mapping(self) -> Dict[str, Handler]:
        """The live name → handler dict (the dispatch loop's lookup).

        Shared, not copied: the kernel's ``_execute`` does one dict
        ``get`` per syscall against exactly this object.
        """
        return self._handlers

    def names(self) -> Iterator[str]:
        return iter(sorted(self._handlers))

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    def __len__(self) -> int:
        return len(self._handlers)
