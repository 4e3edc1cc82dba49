"""In-process transport collectives: ordering, reuse, failure paths."""

import gc
import sys
import threading
import time
import weakref

import pytest

from grainflow.transport import (
    InProcessExchange, MpiTransport, TransportAborted, TransportError,
    run_workers,
)


def test_all_to_all_routes_by_rank():
    def body(tp):
        out = tp.all_to_all([f"{tp.rank}->{j}".encode() for j in range(tp.size)])
        return out

    for results in (run_workers(1, body), run_workers(3, body)):
        n = len(results)
        for rank, got in enumerate(results):
            assert got == [f"{src}->{rank}".encode() for src in range(n)]


def test_all_gather_orders_by_source():
    def body(tp):
        return tp.all_gather(bytes([tp.rank]))

    for results in (run_workers(1, body), run_workers(4, body)):
        expect = [bytes([r]) for r in range(len(results))]
        assert all(got == expect for got in results)


def test_back_to_back_collectives_do_not_bleed():
    # a fast worker must not overwrite a slot a slow worker has yet to read
    def body(tp):
        seen = []
        for round_no in range(20):
            tag = f"{round_no}:{tp.rank}".encode()
            seen.append(tp.all_gather(tag))
            seen.append(tp.all_to_all([tag] * tp.size))
        return seen

    for results in run_workers(3, body):
        for i, got in enumerate(results):
            round_no = i // 2
            assert got == [f"{round_no}:{r}".encode() for r in range(3)]


def test_collectives_hold_under_a_short_switch_interval():
    # more workers than cores and a thread switch every few microseconds:
    # every round must hand back that round's payloads, and no sync may
    # strand a worker
    def body(tp):
        wrong = 0
        for round_no in range(200):
            tag = f"{round_no}:{tp.rank}".encode()
            want = [f"{round_no}:{r}".encode() for r in range(tp.size)]
            wrong += tp.all_gather(tag) != want
            wrong += tp.all_to_all([tag] * tp.size) != want
        return wrong

    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(
            target=lambda: results.append(run_workers(6, body)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    assert results == [[0] * 6]


def test_all_to_all_arity_check():
    def body(tp):
        with pytest.raises(TransportError, match="payloads"):
            tp.all_to_all([b""])
        # the rejected call left the exchange usable
        return tp.all_gather(b"") == [b""] * tp.size

    assert run_workers(2, body) == [True, True]


def test_worker_error_propagates_and_peers_unwind():
    class Boom(RuntimeError):
        pass

    def body(tp):
        if tp.rank == 1:
            raise Boom("worker 1 died")
        # peers are stuck in a collective when the failure hits
        tp.all_gather(b"x")
        return None

    with pytest.raises(Boom):
        run_workers(3, body)


def test_errors_after_a_finished_collective_report_rank_zero():
    # both workers finish one all_gather and then raise.  Rank 1 arrives
    # last, so it leaves the collective first and aborts the exchange while
    # rank 0 may not have woken yet; that must not turn rank 0's finished
    # collective into TransportAborted, so rank 0's error is always the one
    # reported
    def body(tp):
        if tp.rank == 1:
            time.sleep(0.001)
        tp.all_gather(b"x")
        raise ValueError(f"rank {tp.rank}")

    for _ in range(200):
        with pytest.raises(ValueError, match="rank 0"):
            run_workers(2, body)


def test_abort_breaks_waiting_peers():
    ex = InProcessExchange(2)
    tp = ex.worker(0)
    ex.abort()
    with pytest.raises(TransportAborted):
        tp.all_gather(b"")


def test_ranks_validated():
    ex = InProcessExchange(2)
    with pytest.raises(ValueError):
        ex.worker(2)
    with pytest.raises(ValueError):
        InProcessExchange(0)


def test_results_indexed_by_rank():
    assert run_workers(4, lambda tp: tp.rank * 10) == [0, 10, 20, 30]


def test_rank_zero_runs_on_calling_thread():
    names = run_workers(2, lambda tp: threading.current_thread().name)
    assert names[0] == threading.current_thread().name
    assert names[1] != names[0]


@pytest.mark.parametrize("failing_rank", [0, 1])
def test_failed_worker_state_freed_without_gc(failing_rank):
    class State:
        pass

    refs = []

    def body(tp):
        state = State()
        refs.append(weakref.ref(state))
        if tp.rank == failing_rank:
            raise RuntimeError("worker died")
        tp.all_gather(b"x")

    gc.disable()
    try:
        try:
            run_workers(2, body)
        except RuntimeError:
            pass
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_mpi_abort_ends_the_communicator():
    # a stand-in for an mpi4py communicator: only the call into MPI is
    # checked, not a real abort
    class Comm:
        def __init__(self):
            self.codes = []

        def Get_rank(self):
            return 1

        def Get_size(self):
            return 3

        def Abort(self, code):
            self.codes.append(code)

    comm = Comm()
    tp = MpiTransport(comm)
    tp.abort()
    assert (tp.rank, tp.size, comm.codes) == (1, 3, [1])
