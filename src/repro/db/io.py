"""Reading and writing sequence databases.

Three simple formats are supported:

* **SPMF-style text**: one sequence per line, events separated by ``-1`` and
  the line terminated by ``-2`` (the convention of the SPMF library, which
  hosts most public sequential-pattern-mining datasets).
* **Plain text**: one sequence per line, whitespace-separated event tokens
  (or one string of single-character events per line).
* **JSON**: a list of lists of events, optionally wrapped in an object with
  ``name`` and ``sequences`` keys.

All loaders return :class:`~repro.db.database.SequenceDatabase`; all writers
accept one.
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Iterable
from typing import Any

from repro.db.columns import PathLike
from repro.db.database import SequenceDatabase
from repro.db.sequence import Sequence


# ----------------------------------------------------------------------
# SPMF format
# ----------------------------------------------------------------------
def load_spmf(path: PathLike, name: str | None = None) -> SequenceDatabase:
    """Load an SPMF-format file (``-1`` separates itemsets, ``-2`` ends lines).

    Itemsets of size greater than one are flattened in reading order; the
    miners in this package operate on sequences of single events.
    """
    return parse_spmf(Path(path).read_text().splitlines(), name=name or Path(path).stem)


def parse_event_line(line: str, fmt: str = "text") -> list[str] | None:
    """Parse one line into its events, or ``None`` for blanks and comments.

    The single per-line tokenizer behind both the whole-file loaders and the
    streaming CLI's tail loop, so a file mined in batch and the same file
    tailed line by line always parse identically.  ``fmt`` is ``"spmf"``
    (``-1`` separates itemsets, ``-2`` ends the line, ``@`` starts a
    directive), ``"text"`` (whitespace-separated tokens) or ``"chars"`` (one
    single-character event per character).
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if fmt == "spmf":
        if stripped.startswith("@"):
            return None
        events: list[str] = []
        for token in stripped.split():
            if token == "-2":
                break
            if token == "-1":
                continue
            events.append(token)
        return events or None
    if fmt == "chars":
        return list(stripped)
    if fmt == "text":
        return stripped.split()
    raise ValueError(f"unknown line format {fmt!r}")


def parse_spmf(lines: Iterable[str], name: str | None = None) -> SequenceDatabase:
    """Parse SPMF-format lines into a database (see :func:`load_spmf`)."""
    sequences: list[Sequence] = []
    for line in lines:
        events = parse_event_line(line, "spmf")
        if events is not None:
            sequences.append(Sequence(events))
    return SequenceDatabase(sequences, name=name)


def dump_spmf(database: SequenceDatabase, path: PathLike) -> None:
    """Write ``database`` in SPMF format (one event per itemset)."""
    lines = []
    for seq in database:
        tokens: list[str] = []
        for event in seq:
            tokens.append(str(event))
            tokens.append("-1")
        tokens.append("-2")
        lines.append(" ".join(tokens))
    Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Plain text
# ----------------------------------------------------------------------
def load_text(path: PathLike, name: str | None = None, *, chars: bool = False) -> SequenceDatabase:
    """Load a plain-text file: one sequence per line.

    With ``chars=True`` every line is a string of single-character events;
    otherwise events are whitespace-separated tokens.
    """
    return parse_text(
        Path(path).read_text().splitlines(), name=name or Path(path).stem, chars=chars
    )


def parse_text(lines: Iterable[str], name: str | None = None, *, chars: bool = False) -> SequenceDatabase:
    """Parse plain-text lines into a database (see :func:`load_text`)."""
    sequences: list[Sequence] = []
    for line in lines:
        events = parse_event_line(line, "chars" if chars else "text")
        if events is not None:
            sequences.append(Sequence(events))
    return SequenceDatabase(sequences, name=name)


def dump_text(database: SequenceDatabase, path: PathLike, *, chars: bool = False) -> None:
    """Write a plain-text file; the inverse of :func:`load_text`."""
    lines = []
    for seq in database:
        if chars:
            lines.append("".join(str(e) for e in seq))
        else:
            lines.append(" ".join(str(e) for e in seq))
    Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def load_json(path: PathLike) -> SequenceDatabase:
    """Load a JSON file: either a list of sequences or ``{"name", "sequences"}``."""
    data = json.loads(Path(path).read_text())
    return database_from_json(data)


def database_from_json(data: Any) -> SequenceDatabase:
    """Build a database from already-parsed JSON data."""
    if isinstance(data, dict):
        name = data.get("name")
        sequences = data.get("sequences", [])
    else:
        name = None
        sequences = data
    return SequenceDatabase([Sequence(seq) for seq in sequences], name=name)


def database_to_json(database: SequenceDatabase) -> dict[str, Any]:
    """Return a JSON-serialisable representation of ``database``."""
    return {
        "name": database.name,
        "sequences": [list(seq.events) for seq in database],
    }


def dump_json(database: SequenceDatabase, path: PathLike) -> None:
    """Write ``database`` as JSON; the inverse of :func:`load_json`."""
    Path(path).write_text(json.dumps(database_to_json(database), indent=2))
