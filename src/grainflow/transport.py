"""Message transport between partitions.

The exchange protocol only needs two collectives: an all-to-all of byte
payloads and an all-gather.  Everything above this layer is written against
that contract, so the same code runs on the in-process backend (worker
threads inside one interpreter, used for tests and for running on a single
machine) and on MPI.

Determinism contract: both collectives return payloads indexed by source
rank, so the result order never depends on scheduling.
"""

from __future__ import annotations

import threading
from typing import Callable, Protocol, TypeVar

T = TypeVar("T")


class TransportError(RuntimeError):
    """Raised when a collective cannot complete."""


class TransportAborted(TransportError):
    """Raised in surviving workers after a peer failed mid-collective."""


class Transport(Protocol):
    rank: int
    size: int

    def all_to_all(self, payloads: list[bytes]) -> list[bytes]:
        """Send payloads[j] to rank j; receive one payload per source rank."""
        ...

    def all_gather(self, payload: bytes) -> list[bytes]:
        """Every rank contributes one payload; all receive the full list."""
        ...


class InProcessExchange:
    """Shared state for one group of worker threads.

    Each collective runs in two phases (write all slots, sync, read all
    slots, sync) so a fast worker cannot start the next collective while
    a slow one is still reading.  Syncs are counted: a worker whose sync
    every peer reached leaves it normally even if a peer aborts before it
    wakes, so only workers a failure really strands raise.
    """

    def __init__(self, n_parts: int) -> None:
        if n_parts < 1:
            raise ValueError("need at least one partition")
        self.n_parts = n_parts
        self._slots: list[list[bytes | None]] = [
            [None] * n_parts for _ in range(n_parts)]
        self._cond = threading.Condition()
        self._arrived = 0
        self._generation = 0
        self._aborted = False

    def worker(self, rank: int) -> "InProcessTransport":
        if not 0 <= rank < self.n_parts:
            raise ValueError(f"rank {rank} out of range")
        return InProcessTransport(self, rank)

    def abort(self) -> None:
        """Make every peer waiting in an unfinished sync, and every later
        sync, raise TransportAborted."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    def _sync(self) -> None:
        with self._cond:
            generation = self._generation
            if not self._aborted:
                self._arrived += 1
                if self._arrived == self.n_parts:
                    self._arrived = 0
                    self._generation += 1
                    self._cond.notify_all()
                    return
                self._cond.wait_for(lambda: self._aborted
                                    or self._generation != generation)
            if self._generation == generation:
                raise TransportAborted("a peer failed mid-collective")


class InProcessTransport:
    """Per-worker view of an ``InProcessExchange``."""

    def __init__(self, exchange: InProcessExchange, rank: int) -> None:
        self._ex = exchange
        self.rank = rank
        self.size = exchange.n_parts

    def all_to_all(self, payloads: list[bytes]) -> list[bytes]:
        if len(payloads) != self.size:
            raise TransportError(
                f"all_to_all needs {self.size} payloads, got {len(payloads)}")
        ex = self._ex
        for dst, p in enumerate(payloads):
            ex._slots[self.rank][dst] = p
        ex._sync()
        out = [ex._slots[src][self.rank] for src in range(self.size)]
        ex._sync()
        return out  # type: ignore[return-value]

    def all_gather(self, payload: bytes) -> list[bytes]:
        ex = self._ex
        ex._slots[self.rank][self.rank] = payload
        ex._sync()
        out = [ex._slots[src][src] for src in range(self.size)]
        ex._sync()
        return out  # type: ignore[return-value]


def run_workers(n_parts: int, fn: Callable[[Transport], T]) -> list[T]:
    """Run ``fn(transport)`` for ranks ``0 .. n_parts - 1`` and collect the
    per-rank results.  Rank 0 runs on the calling thread, the others on
    worker threads.  The lowest rank's real exception is re-raised; peers
    that a failure stranded in a collective (``TransportAborted``) are not
    reported.  A collective every rank finished is never undone by a later
    abort, so the same failures always report the same error."""
    exchange = InProcessExchange(n_parts)
    results: list[T | None] = [None] * n_parts
    errors: list[BaseException | None] = [None] * n_parts

    def body(rank: int) -> None:
        try:
            results[rank] = fn(exchange.worker(rank))
        except BaseException as exc:
            errors[rank] = exc
            exchange.abort()

    threads = [threading.Thread(target=body, args=(r,), name=f"part-{r}")
               for r in range(1, n_parts)]
    for t in threads:
        t.start()
    body(0)
    for t in threads:
        t.join()
    failed = [e for e in errors if e is not None]
    # the exceptions' frames reach ``errors`` through ``body``: without this
    # cycle break a failed run's state would outlive it until the cyclic GC
    errors.clear()
    if failed:
        first = next((e for e in failed
                      if not isinstance(e, TransportAborted)), failed[0])
        try:
            raise first
        finally:
            del first, failed
    return results  # type: ignore[return-value]


class MpiTransport:
    """Adapter over an mpi4py communicator.  Import is deferred so the
    in-process backend works without MPI installed."""

    def __init__(self, comm=None) -> None:
        if comm is None:
            try:
                from mpi4py import MPI
            except ImportError as exc:
                raise TransportError("mpi4py is not available") from exc
            comm = MPI.COMM_WORLD
        self._comm = comm
        self.rank = comm.Get_rank()
        self.size = comm.Get_size()

    def all_to_all(self, payloads: list[bytes]) -> list[bytes]:
        if len(payloads) != self.size:
            raise TransportError(
                f"all_to_all needs {self.size} payloads, got {len(payloads)}")
        return self._comm.alltoall(payloads)

    def all_gather(self, payload: bytes) -> list[bytes]:
        return self._comm.allgather(payload)

    def abort(self) -> None:
        """End every rank of the communicator, this one included, so no
        peer stays blocked in a collective after a rank failed."""
        self._comm.Abort(1)
