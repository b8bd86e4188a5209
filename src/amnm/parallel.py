"""Independent work units spread over the CPUs this process may run on.

``run_all(units)`` returns ``[unit() for unit in units]`` for pure
zero-argument callables.  The caller and one forked helper per further CPU
of ``os.sched_getaffinity(0)`` take unit indices in increasing order from a
pipe; helpers inherit the units and send back only their pickled results,
so arrays and floats arrive bit-identical and results do not depend on the
number of CPUs.  Processes, not threads: the estimator makes many tiny
numpy calls, which the interpreter lock serializes.

``run_all`` is the plain loop with one CPU, without ``os.fork``, while other
Python threads run (a fork copies only the calling thread), and inside a
unit of another ``run_all``.  A unit that raises stops the hand-out, and the
failure of the lowest index is raised, as in the plain loop; the units of a
helper that died run in the caller.  A helper leaves only by ``os._exit``,
so no ``finally`` or ``atexit`` of the caller runs twice, and the caller
kills and reaps every helper before it returns or raises.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

# True while run_all runs, in its caller and (inherited) in its helpers
_nested = False


def _cpus() -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _take(token: tuple[int, int], n: int, stop: bool = False) -> int:
    """The next unit index.  The pipe ``token`` holds one 4-byte index at a
    time, so it never fills: read it, then write back the following one, or
    ``n`` (none left) when ``stop``."""
    i = int.from_bytes(os.read(token[0], 4), "little")
    os.write(token[1], (n if stop else min(i + 1, n)).to_bytes(4, "little"))
    return i


def _work(units: list, token: tuple[int, int]) -> dict:
    """Index -> (True, result) or (False, exception) of the units this
    process took, until none is left or one raised."""
    done = {}
    while (i := _take(token, len(units))) < len(units):
        try:
            done[i] = (True, units[i]())
        except Exception as exc:  # raised by run_all in unit order
            done[i] = (False, exc)
            _take(token, len(units), stop=True)
            break
    return done


def _helper(units: list, token: tuple[int, int], result: tuple[int, int]) -> None:
    """A forked helper's whole life: work, send the pickled results down the
    pipe ``result``, and leave by ``os._exit``."""
    try:
        os.close(result[0])
        with open(result[1], "wb") as pipe:
            pickle.dump(_work(units, token), pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def run_all(units) -> list:
    """``[unit() for unit in units]``, the units spread over this process and
    forked helpers."""
    global _nested
    units = list(units)
    helpers = min(_cpus(), len(units)) - 1
    if _nested or helpers < 1 or threading.active_count() > 1:
        return [unit() for unit in units]
    token = os.pipe()
    os.write(token[1], bytes(4))
    running = []  # (pid, read end of its result pipe)
    _nested = True
    try:
        for _ in range(helpers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer helpers
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _helper(units, token, (r, w))
            os.close(w)
            running.append((pid, r))
        done = _work(units, token)
        for _, r in running:
            with open(r, "rb", closefd=False) as pipe:
                try:
                    done.update(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):
                    pass  # the helper died; its units run below
    finally:
        _nested = False
        for pid, r in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
        os.close(token[0])
        os.close(token[1])
    results = []
    for i, unit in enumerate(units):
        if i not in done:
            done[i] = (True, unit())
        ok, value = done[i]
        if not ok:
            raise value
        results.append(value)
    return results
