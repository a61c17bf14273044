"""Sequence database substrate.

This subpackage provides the input-side machinery that the miners in
:mod:`repro.core` operate on:

* :class:`~repro.db.sequence.Sequence` — an ordered list of events with
  1-based positional access matching the paper's notation ``S[i]``.
* :class:`~repro.db.database.SequenceDatabase` — an ordered collection of
  sequences (``SeqDB`` in the paper).
* :class:`~repro.db.index.InvertedEventIndex` — the inverted event index
  (``L_{e,S_i}`` lists) used to answer ``next(S, e, lowest)`` queries in
  logarithmic time.
* :mod:`repro.db.io` — readers and writers for a few simple on-disk formats.
* :mod:`repro.db.columns` — the int64 column-file codec under index
  segments, pattern stores and spill files.
* :mod:`repro.db.stats` — summary statistics used by the experiment reports.
"""

from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex
from repro.db.lazy import LazySequenceDatabase
from repro.db.sequence import Sequence
from repro.db.stats import DatabaseStats, describe

__all__ = [
    "Sequence",
    "SequenceDatabase",
    "LazySequenceDatabase",
    "InvertedEventIndex",
    "DatabaseStats",
    "describe",
]
