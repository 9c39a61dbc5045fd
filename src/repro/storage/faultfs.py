"""Deterministic fault injection for the storage stack.

Crash-safety claims are only as good as the crashes you can manufacture.
This module wraps every file handle the storage layer opens (via the
``opener`` hooks on :class:`~repro.storage.pagefile.PageFile` and
:class:`~repro.storage.wal.WriteAheadLog`) and simulates a process death
at a chosen **operation index** in the global sequence of mutating file
operations (writes and fsyncs, counted across all files of the simulated
process):

- crash *during* a write, optionally after a partial (torn) prefix of the
  data reached the file — the seeded RNG picks the tear point;
- crash on an fsync, before it takes effect.

After the crash fires, every further operation on any wrapped file raises
:class:`SimulatedCrash` too — the "process" is dead, so no destructor or
``finally`` block can accidentally finish the job.

Schedules are fully deterministic: a :class:`FaultPlan` is
``(crash_at_op, seed)``, and the same plan over the same workload tears
the same byte of the same write every time.  To enumerate the injection
points of a workload, run it once under a counting injector
(:meth:`FaultInjector.counting`) and sweep ``crash_at_op`` from 1 to
:attr:`FaultInjector.ops`.

Underlying files are opened unbuffered, so "reached the file" equals
"survives the crash" — the model treats OS-visible bytes as durable and
uses fsync only as the ordering barrier the WAL protocol relies on.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import global_registry


class SimulatedCrash(Exception):
    """The simulated process died (deliberately not a
    :class:`~repro.exceptions.ReproError`: library code must never catch
    and survive it, exactly like a real ``kill -9``)."""


@dataclass(frozen=True)
class FaultPlan:
    """A replayable crash schedule.

    ``crash_at_op`` is the 1-based index of the mutating operation that
    dies; ``None`` means count only.  ``partial_writes`` makes the fatal
    write tear (a seeded prefix survives); otherwise the fatal write is
    lost entirely.
    """

    crash_at_op: Optional[int] = None
    partial_writes: bool = True
    seed: int = 0

    def describe(self) -> str:
        """Human-readable one-liner of the fault plan."""
        mode = "torn" if self.partial_writes else "lost"
        return f"crash_at_op={self.crash_at_op} ({mode} write, seed={self.seed})"


class FaultInjector:
    """Shared per-"process" operation counter and crash trigger."""

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.ops = 0
        self.dead = False
        self._rng = random.Random(self.plan.seed)
        self._c_crashes = global_registry().counter("faultfs.crashes")
        self._c_torn = global_registry().counter("faultfs.torn_writes")

    @classmethod
    def counting(cls) -> "FaultInjector":
        """An injector that never crashes — run the workload once under it
        to learn the number of injection points (:attr:`ops`)."""
        return cls(FaultPlan(crash_at_op=None))

    # ------------------------------------------------------------------
    def opener(self, path, mode: str):
        """An ``opener(path, mode)`` for the storage layer's hooks."""
        self._check_alive()
        return FaultyFile(open(path, mode, buffering=0), self, str(path))

    def _check_alive(self) -> None:
        if self.dead:
            raise SimulatedCrash("process already crashed")

    def _die(self) -> None:
        self.dead = True
        self._c_crashes.value += 1
        raise SimulatedCrash(
            f"simulated crash at op {self.ops} ({self.plan.describe()})"
        )

    def on_write(self, fh, data: bytes) -> int:
        """A counted write: may tear the payload and crash."""
        self._check_alive()
        self.ops += 1
        if self.plan.crash_at_op is not None \
                and self.ops >= self.plan.crash_at_op:
            if self.plan.partial_writes and len(data) > 1:
                survived = self._rng.randrange(1, len(data))
                fh.write(data[:survived])
                self._c_torn.value += 1
            self._die()
        return fh.write(data)

    def on_fsync(self, fh) -> None:
        """A counted fsync: may crash before the barrier lands."""
        self._check_alive()
        self.ops += 1
        if self.plan.crash_at_op is not None \
                and self.ops >= self.plan.crash_at_op:
            self._die()  # crash before the barrier takes effect
        os.fsync(fh.fileno())


class FaultyFile:
    """A file-object wrapper routing mutations through a
    :class:`FaultInjector`.  Reads and seeks pass through (they cannot
    corrupt anything); writes and fsyncs are injection points."""

    def __init__(self, fh, injector: FaultInjector, path: str) -> None:
        self._fh = fh
        self._injector = injector
        self.path = path

    # -- injected operations ------------------------------------------
    def write(self, data: bytes) -> int:
        """Write through the injector (torn-write/crash point)."""
        return self._injector.on_write(self._fh, data)

    def fsync(self) -> None:
        """Fsync through the injector (crash point)."""
        self._injector.on_fsync(self._fh)

    def truncate(self, size: Optional[int] = None) -> int:
        """Truncate through the injector (counted crash point)."""
        self._injector._check_alive()
        self._injector.ops += 1
        if self._injector.plan.crash_at_op is not None \
                and self._injector.ops >= self._injector.plan.crash_at_op:
            self._injector._die()
        return self._fh.truncate(size)

    # -- pass-through --------------------------------------------------
    def read(self, size: int = -1) -> bytes:
        """Pass-through read (cannot corrupt anything)."""
        self._injector._check_alive()
        return self._fh.read(size)

    def seek(self, offset: int, whence: int = 0) -> int:
        """Pass-through seek."""
        self._injector._check_alive()
        return self._fh.seek(offset, whence)

    def flush(self) -> None:
        """No-op: the underlying file is unbuffered."""
        # Unbuffered underlying file: flush is a no-op, and must not be an
        # injection point (it gives no durability in the model).
        self._injector._check_alive()

    def fileno(self) -> int:
        """Pass-through file descriptor."""
        return self._fh.fileno()

    def close(self) -> None:
        """Close the underlying handle (flushes nothing extra)."""
        # Closing never flushes anything extra (unbuffered), so a dead
        # process's abandoned handles can be collected safely.
        self._fh.close()

    def __repr__(self) -> str:
        return f"<FaultyFile {self.path} ops={self._injector.ops}>"
