"""Support-set engine selection (full landmarks vs compressed triples).

The miners and the closure checker never look inside an instance during the
DFS: they read supports, patterns and landmark borders, and they grow sets
with Algorithm 2.  Both support-set representations expose that interface —

* the **full-landmark** engine (:class:`~repro.core.support.SupportSet`,
  :func:`~repro.core.instance_growth.ins_grow`) keeps ``m``-wide landmark
  rows, which the public result needs when ``store_instances=True``;
* the **compressed** engine (Section III-D;
  :class:`~repro.core.compressed.CompressedSupportSet`,
  :func:`~repro.core.compressed.ins_grow_compressed`) keeps constant-space
  ``(i, l1, lm)`` triples, the right choice whenever only patterns and
  supports are reported.

A :class:`SupportEngine` bundles the pair of operations the DFS needs
(initial size-1 set, one-event growth) for one representation;
:func:`engine_for` maps ``MinerConfig.store_instances`` to the engine that
serves it.  Both engines produce identical patterns and supports — the
randomized engine-equivalence tests pin that invariant.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.core.compressed import (
    CompressedSupportSet,
    initial_compressed_support_set,
    ins_grow_compressed,
)
from repro.core.instance_growth import ins_grow
from repro.core.support import SupportSet, initial_support_set

if TYPE_CHECKING:
    from repro.core.spill import SpillPolicy
    from repro.db.index import InvertedEventIndex

#: Either support-set representation; everything the DFS and the closure
#: checker touch (``pattern``, ``support``, ``border_arrays()``,
#: ``per_sequence_counts()``) is common to both.
SupportSetLike = SupportSet | CompressedSupportSet

#: ``initial(index, event)`` — leftmost support set of a size-1 pattern.
InitialFn = Callable[["InvertedEventIndex", Any], SupportSetLike]

#: ``grow(index, support_set, event, constraint=None)`` — Algorithm 2.  The
#: concrete growth functions take their own representation's set type, so the
#: parameter list is erased here; the pairing inside one engine is what keeps
#: the calls sound.
GrowFn = Callable[..., SupportSetLike]


class SupportEngine:
    """One support-set representation's growth operations.

    Attributes
    ----------
    name:
        Stable identifier (``"full-landmark"`` / ``"compressed"``) used in
        diagnostics and benchmark reports.
    initial:
        ``initial(index, event)`` — leftmost support set of a size-1 pattern.
    grow:
        ``grow(index, support_set, event, constraint=None)`` — Algorithm 2.
    """

    __slots__ = ("name", "initial", "grow")

    def __init__(self, name: str, initial: InitialFn, grow: GrowFn) -> None:
        self.name = name
        self.initial = initial
        self.grow = grow

    def __repr__(self) -> str:
        return f"SupportEngine({self.name!r})"

    def with_spill(self, policy: "SpillPolicy") -> SupportEngine:
        """This engine with every produced set routed through ``policy``.

        Spilling wraps the *engine*, not a representation: both the
        full-landmark and compressed engines come out of here with
        over-budget frontiers remapped onto disk
        (:mod:`repro.core.spill`), and the DFS cannot tell the difference.
        """
        initial = self.initial
        grow = self.grow
        maybe_spill = policy.maybe_spill

        def initial_spilling(index: "InvertedEventIndex", event: Any) -> SupportSetLike:
            return maybe_spill(initial(index, event))

        def grow_spilling(*args: Any, **kwargs: Any) -> SupportSetLike:
            return maybe_spill(grow(*args, **kwargs))

        return SupportEngine(f"{self.name}+spill", initial_spilling, grow_spilling)


#: Engine over full-landmark :class:`SupportSet` rows.
FULL_LANDMARK_ENGINE = SupportEngine("full-landmark", initial_support_set, ins_grow)

#: Engine over compressed ``(i, l1, lm)`` triples.
COMPRESSED_ENGINE = SupportEngine("compressed", initial_compressed_support_set, ins_grow_compressed)


def engine_for(store_instances: bool) -> SupportEngine:
    """The engine serving a miner configuration.

    ``store_instances=True`` needs full landmarks in the reported support
    sets; everything else runs on constant-space compressed triples.
    """
    return FULL_LANDMARK_ENGINE if store_instances else COMPRESSED_ENGINE
