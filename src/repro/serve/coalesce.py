"""Request coalescing: identical in-flight requests share one run.

Coalescing is keyed by the request *fingerprint*
(:meth:`repro.serve.protocol.ServeRequest.fingerprint` — the
``repro.exp.cache`` key), so "identical" means identical result bytes
by construction.  The first arrival for a key becomes the **leader**
and actually executes; every later arrival while the key is in flight
becomes a **joiner** and awaits the leader's future.  The leader
resolves the future with its finished response — whatever it is: a
200 result, a deterministic error, even a 429 — so joiners can never
outlive the computation they joined.

Near-identical requests (same experiment, different ``--cost-model``)
have different fingerprints and therefore never coalesce: exactly one
computation runs per *distinct* fingerprint, which is the invariant
the coalescer tests pin.

The board is event-loop-only state: every method must be called from
the service's asyncio thread (supervisor threads hand results back by
scheduling :meth:`resolve_key` on the loop), so no lock is needed —
single-threaded mutation *is* the ordering.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Tuple


class Coalescer:
    """In-flight request board: one future per live fingerprint."""

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        self.leads_total = 0
        self.hits_total = 0

    def join_or_lead(
            self, key: str, loop: asyncio.AbstractEventLoop,
    ) -> Tuple["asyncio.Future[Any]", bool]:
        """The shared future for ``key`` and whether the caller leads."""
        future = self._inflight.get(key)
        if future is not None:
            self.hits_total += 1
            return future, False
        future = loop.create_future()
        self._inflight[key] = future
        self.leads_total += 1
        return future, True

    def resolve_key(self, key: str, response: Any) -> None:
        """Leader hands its finished response to every joiner."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(response)

    def abandon(self, key: str, error: BaseException) -> None:
        """Leader died before producing a response; fail the joiners.
        A cancelled leader cancels the future, so that a board with no
        joiner leaves no exception for nobody to retrieve."""
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            if isinstance(error, asyncio.CancelledError):
                future.cancel()
            else:
                future.set_exception(error)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def snapshot(self) -> Dict[str, int]:
        return {
            "inflight": self.inflight,
            "leads": self.leads_total,
            "hits": self.hits_total,
        }
