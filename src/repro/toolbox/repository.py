"""The shared parameter repository ("Microbenchmarks for Configuration", §5).

Microbenchmark results are "report[ed] ... in a common format kept in
persistent storage; each microbenchmark then only needs to be run once".
Each entry remembers its value, units, and provenance so an ICL can
decide whether a stale measurement should be re-run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

# Distinguishes "no default supplied" from an explicit default of None,
# 0.0, or any other falsy value.
_MISSING = object()


@dataclass
class Parameter:
    """One measured system parameter."""

    key: str
    value: float
    units: str = ""
    source: str = ""
    measured_at_ns: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "units": self.units,
            "source": self.source,
            "measured_at_ns": self.measured_at_ns,
        }

    @classmethod
    def from_json(cls, key: str, blob: Dict[str, Any]) -> "Parameter":
        return cls(
            key=key,
            value=float(blob["value"]),
            units=str(blob.get("units", "")),
            source=str(blob.get("source", "")),
            measured_at_ns=int(blob.get("measured_at_ns", 0)),
        )


class ParameterRepository:
    """A keyed store of benchmark-derived parameters, shared across ICLs.

    Keys are dotted names, e.g. ``disk.random_access_ns`` or
    ``fccd.access_unit_bytes``.  The repository can round-trip through a
    JSON file (the "common format kept in persistent storage").
    """

    def __init__(self, platform: str = "unknown") -> None:
        self.platform = platform
        self._params: Dict[str, Parameter] = {}

    # --- access --------------------------------------------------------
    def has(self, key: str) -> bool:
        return key in self._params

    def get(self, key: str, default: Any = _MISSING) -> Optional[float]:
        param = self._params.get(key)
        if param is None:
            if default is _MISSING:
                raise KeyError(
                    f"parameter {key!r} has not been measured; "
                    f"run the relevant microbenchmark first"
                )
            return default
        return param.value

    def entry(self, key: str) -> Parameter:
        return self._params[key]

    def set(
        self,
        key: str,
        value: float,
        units: str = "",
        source: str = "",
        measured_at_ns: int = 0,
    ) -> Parameter:
        param = Parameter(key, float(value), units, source, measured_at_ns)
        self._params[key] = param
        return param

    def ensure(self, key: str, measure: Callable[[], float], **meta: Any) -> float:
        """Return the stored value, measuring and recording it if absent."""
        param = self._params.get(key)
        if param is None:
            param = self.set(key, measure(), **meta)
        return param.value

    def items(self) -> Iterator[Tuple[str, Parameter]]:
        return iter(sorted(self._params.items()))

    def __len__(self) -> int:
        return len(self._params)

    # --- persistence -----------------------------------------------------
    def save(self, path: Path) -> None:
        blob = {
            "platform": self.platform,
            "parameters": {key: p.to_json() for key, p in self._params.items()},
        }
        Path(path).write_text(json.dumps(blob, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Path) -> "ParameterRepository":
        blob = json.loads(Path(path).read_text())
        repo = cls(platform=blob.get("platform", "unknown"))
        for key, entry in blob.get("parameters", {}).items():
            repo._params[key] = Parameter.from_json(key, entry)
        return repo
