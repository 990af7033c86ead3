"""The search's workers: a lead's chunk is worked by the calling process or
by one of the children it forks, which inherit everything the work reads.

Every process claims leads in order, one at a time, from one pipe filled
before the fork, so a long chunk holds up only the process that claimed it.
Each child pickles its (lead, chunk) list back through a pipe of its own
once the queue is empty, and leaves by os._exit, whose code 0 says the
whole list was written.  A child's exception is raised in the caller; a
child that ends without its list, killed by a signal or exiting, raises
WorkerDied.  Every child is reaped, and on any error the ones still running
are killed first.
"""
from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import BinaryIO, Callable, NoReturn, TypeVar

from .errors import WorkerDied

T = TypeVar("T")

# the claim queue holds one byte per run of consecutive leads, at most 256
# bytes, which any pipe takes whole (PIPE_BUF >= 512): it is filled before the fork
_CLAIMS = 256


def _work_share(work: Callable[[int], T], leads: list[int], step: int, queue: int) -> list[tuple[int, T]]:
    """The chunks of the leads this process claims, in the order claimed:
    each byte read from the queue claims the run of step leads it indexes,
    until the queue is empty."""
    done = []
    while claim := os.read(queue, 1):
        start = claim[0] * step
        done.extend((lead, work(lead)) for lead in leads[start : start + step])
    return done


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError carrying
    its traceback text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError("".join(traceback.format_exception(exc)))


def _child(work: Callable[[int], T], leads: list[int], step: int, queue: int, out: int) -> NoReturn:
    """A forked child: work leads from the queue, pickle (True, its chunks)
    or (False, its exception) to the pipe out and leave."""
    code = 1
    try:
        try:
            payload = (True, _work_share(work, leads, step, queue))
        except BaseException as exc:  # interrupts included: the caller raises it
            payload = (False, _portable(exc))
        with open(out, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _ended(pid: int, code: int) -> str:
    """How a child ended without sending its chunks, from its exit code,
    which is minus the signal that killed it."""
    if code > 0:
        return f"worker {pid} exited with code {code}"
    try:
        name = signal.Signals(-code).name
    except ValueError:
        name = f"signal {-code}"
    return f"worker {pid} was killed by {name}"


def fork_join(work: Callable[[int], T], leads: list[int], workers: int) -> list[T]:
    """work(lead) for each lead, in lead order, on this process and workers
    - 1 forked children."""
    step = -(-len(leads) // _CLAIMS)
    queue, fill = os.pipe()
    os.write(fill, bytes(range(-(-len(leads) // step))))
    os.close(fill)  # an empty queue then reads as EOF in every process
    children: dict[int, BinaryIO] = {}  # pid: the read end of its pipe
    done: dict[int, T] = {}
    dead: list[str] = []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if not pid:
                _child(work, leads, step, queue, w)
            os.close(w)
            children[pid] = open(r, "rb")
        done.update(_work_share(work, leads, step, queue))
        for pid in list(children):
            with children[pid] as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                dead.append(_ended(pid, code))
                continue
            ok, result = pickle.loads(payload)
            if not ok:
                raise result
            done.update(result)
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if dead:
        missing = ", ".join(str(lead) for lead in leads if lead not in done)
        raise WorkerDied(f"search {'; '.join(dead)}: no chunk came back for leads {missing}")
    return [done[lead] for lead in leads]
