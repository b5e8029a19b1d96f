"""Request and trace containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence


@dataclass(frozen=True)
class Request:
    """One host request: run *function* on *payload*.

    ``arrival_offset_ns`` is the inter-arrival gap before this request (0 for
    closed-loop traces where the host issues the next request immediately).
    """

    function: str
    payload: bytes
    arrival_offset_ns: int = 0


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
