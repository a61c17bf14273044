"""Spill-to-disk for DFS support-set frontiers.

The miners hold one support set per live DFS node.  Each set is columnar
(``array('q')`` columns, see :mod:`repro.core.support` and
:mod:`repro.core.compressed`), so for a dense pattern the frontier can
dominate the process footprint even when the *database* lives on disk.

:class:`SpillPolicy` closes that gap at the engine seam: every set an
engine produces passes through :meth:`SpillPolicy.maybe_spill`, and any
set whose columns exceed the configured byte budget is rewritten onto
disk — the columns are dumped to an anonymous temp file, mmap'd read-only,
and the file is unlinked immediately (the mapping keeps the pages
reachable; the OS reclaims the space as soon as the set is garbage),
then the set is rebuilt through its trusted ``from_arrays`` constructor
with ``memoryview`` columns over the mapping.  Everything downstream
(growth sweeps, closure border checks) already accepts either column
kind — the disk-backed index established that
contract — so a spilled set is observationally identical to a resident
one, just paged by the OS instead of held on the heap.  The file is
written and mapped through :mod:`repro.db.columns`, the column codec that
pattern stores and index segments share.

Because the wrap happens on :class:`~repro.core.engine.SupportEngine`
(:meth:`~repro.core.engine.SupportEngine.with_spill`), both the
full-landmark and compressed engines get spilling without knowing about
it, and the miners only see a ``spill_budget`` knob on
:class:`~repro.core.gsgrow.MinerConfig`.

On platforms without :mod:`mmap` (or big-endian hosts, where raw column
bytes cannot be reinterpreted) the policy degrades to a counted no-op:
mining proceeds fully in RAM.
"""

from __future__ import annotations

import os
import tempfile
from typing import TYPE_CHECKING

from repro.core.compressed import CompressedSupportSet
from repro.core.support import SupportSet
from repro.db.columns import (
    ITEMSIZE,
    Column,
    ColumnFile,
    column_bytes,
    zero_copy_unavailable_reason,
)

if TYPE_CHECKING:
    from repro.core.engine import SupportSetLike
    from repro.obs import MetricsRegistry

__all__ = ["SpillPolicy", "spilled_bytes"]


def spilled_bytes(support_set: "SupportSetLike") -> int:
    """Byte size of a set's columns (what :class:`SpillPolicy` budgets)."""
    if isinstance(support_set, CompressedSupportSet):
        return 3 * len(support_set.seq_indices_array) * ITEMSIZE
    rows = len(support_set.seq_indices_array)
    return rows * (1 + support_set.row_width) * ITEMSIZE


class SpillPolicy:
    """Move support sets whose columns exceed ``budget_bytes`` onto disk.

    Parameters
    ----------
    budget_bytes:
        Per-set threshold: a set whose columns total more than this many
        bytes is spilled.  This bounds the *resident* cost of each DFS
        frontier entry, which is the unit the engines allocate in.
    directory:
        Where spill files are created (they are unlinked immediately, so
        this only chooses the filesystem).  Defaults to the system temp
        directory.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry`; the policy maintains
        ``core.spill.spills``, ``core.spill.bytes`` and
        ``core.spill.skipped`` counters (instruments pre-bound here, per
        the hot-loop rule).
    """

    __slots__ = ("budget_bytes", "enabled", "_directory", "_spills", "_bytes", "_skipped")

    def __init__(
        self,
        budget_bytes: int,
        *,
        directory: "str | None" = None,
        obs: "MetricsRegistry | None" = None,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"spill budget must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._directory = directory
        self.enabled = zero_copy_unavailable_reason() is None
        self._spills = obs.counter("core.spill.spills") if obs is not None else None
        self._bytes = obs.counter("core.spill.bytes") if obs is not None else None
        self._skipped = obs.counter("core.spill.skipped") if obs is not None else None

    def maybe_spill(self, support_set: "SupportSetLike") -> "SupportSetLike":
        """Return ``support_set``, spilled onto disk if it is over budget."""
        nbytes = spilled_bytes(support_set)
        if nbytes <= self.budget_bytes:
            return support_set
        if not self.enabled:
            if self._skipped is not None:
                self._skipped.inc()
            return support_set
        if isinstance(support_set, CompressedSupportSet):
            seqs, firsts, lasts = self._remap(
                support_set.seq_indices_array,
                support_set.firsts_array,
                support_set.lasts_array,
            )
            spilled: SupportSetLike = CompressedSupportSet.from_arrays(
                support_set.pattern, seqs, firsts, lasts
            )
        else:
            seqs, landmarks = self._remap(
                support_set.seq_indices_array, support_set.landmarks_array
            )
            spilled = SupportSet.from_arrays(
                support_set.pattern, seqs, landmarks, support_set.row_width
            )
        if self._spills is not None:
            self._spills.inc()
        if self._bytes is not None:
            self._bytes.inc(nbytes)
        return spilled

    def _remap(self, *columns: Column) -> tuple[Column, ...]:
        """Write ``columns`` to an unlinked temp file and map them back.

        The returned views all share one read-only mapping; the mapping
        (and the disk space, already unlinked) is released when the last
        view is garbage-collected.
        """
        fd, path = tempfile.mkstemp(prefix="repro-spill-", suffix=".cols", dir=self._directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                for column in columns:
                    handle.write(column_bytes(column))
            source = ColumnFile.open(path, mmap=True)
        finally:
            os.unlink(path)
        views: list[Column] = []
        offset = 0
        for column in columns:
            end = offset + len(column) * ITEMSIZE
            views.append(source.column(offset, end))
            offset = end
        return tuple(views)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"SpillPolicy(budget_bytes={self.budget_bytes}, {state})"

