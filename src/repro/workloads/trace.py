"""Request and trace containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence


@dataclass(frozen=True)
class Request:
    """One closed-loop host request: run *function* on *payload* as soon as
    the previous request completes."""

    function: str
    payload: bytes


class Trace:
    """An ordered sequence of requests with a few convenience queries."""

    def __init__(self, requests: Sequence[Request], name: str = "trace") -> None:
        self.name = name
        self._requests = list(requests)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    @property
    def requests(self) -> List[Request]:
        return list(self._requests)
