"""Instance growth (``INSgrow``, Algorithm 2).

Instance growth is the operation the paper puts in place of the projected
database used by PrefixSpan-style miners: given the *leftmost* support set
``I`` of a pattern ``P`` and an event ``e``, it produces the leftmost support
set of ``P ∘ e`` by extending the instances of ``I`` greedily, sequence by
sequence, in the right-shift order.

The greedy rule (lines 3–7 of Algorithm 2) extends each instance with the
smallest position of ``e`` that is

* strictly to the right of the instance's own last landmark position, and
* strictly to the right of the position consumed by the previously extended
  instance of the same sequence (``last_position``), which guarantees the
  extended instances stay pairwise non-overlapping.

Lemma 4 proves this produces a leftmost support set — i.e. the greedy choice
achieves the maximum number of non-overlapping instances.

The implementation is a single flat sweep over the support set's columnar
arrays: instances of one sequence are contiguous in right-shift order, so no
per-call grouping structures are needed, the ``next()`` query is an inlined
:func:`bisect.bisect_right` over the index's position array (fetched once per
sequence run through the event's column getter, not once per instance), and
the grown landmarks are written into two pre-sized output arrays — the only
allocations of the call.

This is the growth operation of the **full-landmark** engine, used when
``store_instances=True``.  The default configuration grows compressed
``(i, l1, lm)`` triples instead (:func:`repro.core.compressed.ins_grow_compressed`,
same greedy control flow, no landmark copies); :mod:`repro.core.engine`
selects between the two.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from repro.core.constraints import GapConstraint
from repro.core.support import SupportSet
from repro.db.columns import ITEMSIZE, POSITION_TYPECODE
from repro.db.index import InvertedEventIndex
from repro.db.sequence import Event


def ins_grow(
    index: InvertedEventIndex,
    support_set: SupportSet,
    event: Event,
    constraint: GapConstraint | None = None,
) -> SupportSet:
    """Algorithm 2 (``INSgrow``): grow a leftmost support set by one event.

    Parameters
    ----------
    index:
        Inverted event index of the database being mined.
    support_set:
        The leftmost support set of some pattern ``P``.  The instances must
        already be in right-shift order (which :class:`SupportSet`
        guarantees).
    event:
        The event ``e`` to append; the result describes ``P ∘ e``.
    constraint:
        Optional gap constraint; when given, the position chosen for ``e``
        must additionally satisfy ``constraint`` relative to the instance's
        previous landmark position.  See :mod:`repro.core.constraints` for
        the semantics caveat of the constrained variant.

    Returns
    -------
    SupportSet
        The leftmost support set of ``P ∘ e`` (its size is ``sup(P ∘ e)``).
    """
    grown_pattern = support_set.pattern.grow(event)
    seqs = support_set.seq_indices_array
    lands = support_set.landmarks_array
    m = support_set.row_width
    n = len(seqs)
    out_m = m + 1
    # Resolve the event to its interned id once — the only hash of the user
    # object this call pays; an unknown event grows nothing.
    eid = index.event_id(event)
    if eid < 0 or n == 0:
        empty = array(POSITION_TYPECODE)
        return SupportSet.from_arrays(grown_pattern, empty, array(POSITION_TYPECODE), out_m)
    # Pre-sized outputs (a grown set is never larger than its parent); the
    # memoryviews make the per-instance landmark copy a buffer-to-buffer move.
    out_seqs = array(POSITION_TYPECODE, bytes(ITEMSIZE * n))
    out_lands = array(POSITION_TYPECODE, bytes(ITEMSIZE * n * out_m))
    in_mv = memoryview(lands)
    out_mv = memoryview(out_lands)
    column = index.backend.column_getter(eid)
    # Bound methods hoisted so the sweep never re-runs the attribute
    # descriptor lookups per instance.
    lowest_allowed = None if constraint is None else constraint.lowest_allowed
    allows = None if constraint is None else constraint.allows

    count = 0
    prev_seq = -1
    skip_seq = -1
    last_position = 0
    plist = None
    plen = 0
    # reprolint: hot-loop
    for k in range(n):
        i = seqs[k]
        if i == skip_seq:
            # No occurrence of `event` remains to the right in S_i: later
            # instances of this sequence end even further right, so the rest
            # of the run is skipped (line 5 of Algorithm 2).
            continue
        if i != prev_seq:
            prev_seq = i
            last_position = 0
            plist = column(i)
            if not plist:
                skip_seq = i
                continue
            plen = len(plist)
        last = lands[k * m + m - 1]
        lowest = last if last >= last_position else last_position
        if lowest_allowed is not None:
            bound = lowest_allowed(last)
            if bound > lowest:
                lowest = bound
        idx = bisect_right(plist, lowest)
        if idx >= plen:
            skip_seq = i
            continue
        position = plist[idx]
        if allows is not None and not allows(last, position):
            # Under a maximum-gap constraint the nearest occurrence may be
            # too far away for *this* instance while still usable by a
            # later one, so skip rather than break.
            continue
        last_position = position
        out_seqs[count] = i
        base = count * out_m
        out_mv[base : base + m] = in_mv[k * m : k * m + m]
        out_lands[base + m] = position
        count += 1

    if count < n:
        out_seqs = out_seqs[:count]
        out_lands = out_lands[: count * out_m]
    return SupportSet.from_arrays(grown_pattern, out_seqs, out_lands, out_m)


def grow_with_pattern(
    index: InvertedEventIndex,
    support_set: SupportSet,
    suffix,
    constraint: GapConstraint | None = None,
) -> SupportSet:
    """Grow a support set with every event of ``suffix`` in order (``P ∘ Q``).

    Used by the closure checker to evaluate insert/prepend extensions: the
    leftmost support set of ``e1..ej e'`` is grown with the remaining suffix
    ``e(j+1) .. em`` of the original pattern.
    """
    from repro.core.pattern import as_pattern

    result = support_set
    for event in as_pattern(suffix):
        result = ins_grow(index, result, event, constraint=constraint)
    return result
