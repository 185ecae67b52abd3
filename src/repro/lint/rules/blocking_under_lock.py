"""RL101 — no blocking calls while holding a lock.

A lock in the monitor tier serialises *bookkeeping* — counter bumps,
deque rotation, LRU reordering — all sub-microsecond.  The moment a
critical section blocks (socket I/O, ``queue.get``, ``thread.join``,
``time.sleep``, a sqlite statement), every handler thread queues up
behind it and ingest throughput collapses to the latency of the slow
call; a ``join`` under a lock the joined thread needs is a deadlock,
not just a stall.  The fix is always the same shape: snapshot state
under the lock, do the blocking work outside, re-enter the lock to
record the result.

Detection is by callee name with light receiver/keyword context, so it
is deliberately conservative:

* ``sleep`` — any receiver;
* socket ops — ``recv``/``recvfrom``/``recv_into``/``recvfrom_into``/
  ``accept``/``connect``/``sendall``/``sendto``;
* ``join`` — only on receivers whose name looks thread/process-like
  (``", ".join(...)`` stays legal);
* ``get``/``put`` — when called with ``block=``/``timeout=`` or on a
  queue-named receiver (``dict.get(k, default)`` stays legal);
* sqlite — ``execute``/``executemany``/``executescript``/``commit``;
* ``wait`` — ``Event``/``Condition``/process waits.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.lint.analysis.concurrency import class_models
from repro.lint.analysis.model import CallSite
from repro.lint.context import FileContext
from repro.lint.registry import register
from repro.lint.violation import Violation

_SOCKET_OPS = frozenset(
    {"recv", "recvfrom", "recv_into", "recvfrom_into", "accept", "connect", "sendall", "sendto"}
)
_SQLITE_OPS = frozenset({"execute", "executemany", "executescript", "commit"})
_THREADISH_RECEIVER = re.compile(r"thread|process|proc|worker", re.IGNORECASE)
_QUEUEISH_RECEIVER = re.compile(r"queue|fifo", re.IGNORECASE)


def _blocking_reason(call: CallSite) -> Optional[str]:
    name, receiver = call.name, call.receiver or ""
    if name == "sleep":
        return "sleep() stalls every thread waiting on the lock"
    if name in _SOCKET_OPS:
        return f"socket .{name}() can block indefinitely"
    if name in _SQLITE_OPS:
        return f".{name}() runs sqlite I/O"
    if name == "wait":
        return ".wait() blocks until signalled"
    if name == "join" and _THREADISH_RECEIVER.search(receiver):
        return (
            f"joining '{receiver}' under a lock deadlocks if that thread "
            "needs the same lock to exit"
        )
    if name in ("get", "put"):
        if call.keywords & {"block", "timeout"}:
            return f"queue .{name}(block=/timeout=) blocks"
        if _QUEUEISH_RECEIVER.search(receiver):
            return f"queue .{name}() blocks when the queue is empty/full"
    return None


@register
class BlockingUnderLockRule:
    rule_id = "RL101"
    title = "blocking call while holding a lock"

    rationale = (
        "Critical sections must stay O(bookkeeping).  A blocking call —\n"
        "socket I/O, queue.get/put, thread.join, sleep, sqlite execute —\n"
        "made while a lock is held serialises every other thread behind a\n"
        "latency it cannot control, and a join on a thread that needs the\n"
        "same lock to exit is a guaranteed deadlock.  Snapshot state under\n"
        "the lock, block outside it, re-enter to record the result."
    )
    example_bad = (
        "def stop(self) -> None:\n"
        "    with self._lock:\n"
        "        self._running = False\n"
        "        self._thread.join(timeout=5.0)  # RL101: receiver thread\n"
        "        # may be stuck in submit() waiting for self._lock\n"
    )
    example_good = (
        "def stop(self) -> None:\n"
        "    with self._lock:\n"
        "        self._running = False\n"
        "        thread, self._thread = self._thread, None\n"
        "    if thread is not None:\n"
        "        thread.join(timeout=5.0)  # outside the lock\n"
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code:
            return
        for model in class_models(context):
            for method in model.methods.values():
                for call in method.calls:
                    if not call.locks:
                        continue
                    reason = _blocking_reason(call)
                    if reason is None:
                        continue
                    locks = ", ".join(f"self.{name}" for name in sorted(call.locks))
                    yield Violation(
                        path=str(context.path),
                        line=call.line,
                        col=call.col,
                        rule_id=self.rule_id,
                        message=(
                            f"{model.name}.{call.method}() calls "
                            f".{call.name}() while holding {locks}: {reason}"
                        ),
                    )
