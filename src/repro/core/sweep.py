"""The instance-growth sweep over compressed border arrays.

:func:`grow_triples` is Algorithm 2 (``INSgrow``) over the columnar
``(seqs, firsts, lasts)`` arrays of a
:class:`~repro.core.compressed.CompressedSupportSet`: one greedy pass in
right-shift order that finds each instance's next landmark by binary search
in the inverted index (Section III-D).  The position consumed by one
instance becomes the lower bound of the next instance of the same sequence,
so the sweep carries that bound from row to row.  Its control flow is that
of :func:`repro.core.instance_growth.ins_grow`, minus the landmark copies.

Gap constraints run through the same loop: a ``min_gap`` raises an
instance's lower bound, and a ``max_gap`` rejection skips the instance
without consuming a position.
"""

from __future__ import annotations

import importlib.util
from array import array
from bisect import bisect_right
from collections.abc import Callable
from typing import Any

from repro.core.constraints import GapConstraint
from repro.db.index import POSITION_TYPECODE

#: Whether numpy is installed on this host.  Nothing here imports it (the
#: sweep is pure Python); the flag only reports the host, for benchmark
#: records that note their environment.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: (sequence indices, first positions, last positions) column arrays.
TripleArrays = tuple["array[int]", "array[int]", "array[int]"]


def grow_triples(
    seqs: array[int],
    firsts: array[int],
    lasts: array[int],
    column: Callable[[int], Any],
    constraint: GapConstraint | None = None,
) -> TripleArrays:
    """Greedy growth over ``(i, l1, lm)`` column arrays.

    Parameters
    ----------
    seqs, firsts, lasts:
        The columns of a compressed support set in right-shift order.
    column:
        ``i -> positions of the appended event in S_i (or None)``: the
        :meth:`~repro.db.backend.ColumnStore.column_getter` of the event
        being appended, resolved once by the caller (this function never
        hashes user event objects).
    constraint:
        Optional gap constraint.

    Returns
    -------
    TripleArrays
        The surviving instances' columns: sequence index and first position
        are carried over, the last position is the consumed occurrence.
        Most grown sets keep a small share of their parent's rows, so the
        outputs are appended to rather than pre-sized and sliced.
    """
    out_seqs = array(POSITION_TYPECODE)
    out_firsts = array(POSITION_TYPECODE)
    out_lasts = array(POSITION_TYPECODE)
    # Bound methods hoisted so the sweep never re-runs the attribute
    # descriptor lookups per instance.
    put_seq = out_seqs.append
    put_first = out_firsts.append
    put_last = out_lasts.append
    lowest_allowed = None if constraint is None else constraint.lowest_allowed
    allows = None if constraint is None else constraint.allows
    prev_seq = -1
    last_position = 0
    plist = None
    # reprolint: hot-loop
    for i, first, last in zip(seqs, firsts, lasts, strict=True):
        if i != prev_seq:
            prev_seq = i
            last_position = 0
            plist = column(i)
        if not plist:
            # No occurrence of the event remains to the right in S_i: later
            # instances of this sequence end even further right, so the rest
            # of the run is skipped (line 5 of Algorithm 2).
            continue
        lowest = last if last >= last_position else last_position
        if lowest_allowed is not None:
            bound = lowest_allowed(last)
            if bound > lowest:
                lowest = bound
        if plist[-1] <= lowest:
            plist = None
            continue
        position = plist[bisect_right(plist, lowest)]
        if allows is not None and not allows(last, position):
            # Under a maximum-gap constraint the nearest occurrence may be
            # too far away for *this* instance while still usable by a later
            # one, so skip rather than break.
            continue
        last_position = position
        put_seq(i)
        put_first(first)
        put_last(position)
    return out_seqs, out_firsts, out_lasts
