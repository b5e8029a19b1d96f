"""Request and trace containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class Request:
    """One host request: run *function* on *payload*.

    ``arrival_offset_ns`` is the inter-arrival gap before this request (0 for
    closed-loop traces where the host issues the next request immediately).
    """

    function: str
    payload: bytes
    arrival_offset_ns: int = 0

    @property
    def payload_bytes(self) -> int:
        return len(self.payload)


class Trace:
    """An ordered sequence of requests with a few convenience queries."""

    def __init__(self, requests: Sequence[Request], name: str = "trace") -> None:
        self.name = name
        self._requests = list(requests)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    @property
    def requests(self) -> List[Request]:
        return list(self._requests)

    def function_sequence(self) -> List[str]:
        """The function names in order (what the Belady policy consumes)."""
        return [request.function for request in self._requests]

    def function_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for request in self._requests:
            counts[request.function] = counts.get(request.function, 0) + 1
        return counts

    def switches(self) -> int:
        """Number of adjacent request pairs that change function — the
        quantity that stresses on-demand reconfiguration."""
        return sum(
            1
            for previous, current in zip(self._requests, self._requests[1:])
            if previous.function != current.function
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        return Trace(self._requests[start:stop], name=f"{self.name}[{start}:{stop}]")

    def concatenate(self, other: "Trace") -> "Trace":
        return Trace(self._requests + other.requests, name=f"{self.name}+{other.name}")

    def describe(self) -> str:
        counts = self.function_counts()
        top = ", ".join(f"{name}:{count}" for name, count in sorted(counts.items(), key=lambda kv: -kv[1])[:5])
        return (
            f"Trace {self.name!r}: {len(self)} requests over {len(counts)} functions, "
            f"{self.switches()} switches ({top})"
        )
