"""RL007 — byte-format storage stays behind its seams: the facade and the codec.

``repro.db.backend.layout`` (segment/journal byte formats) and
``repro.db.backend.disk`` (the disk store built on them) are internals of
the storage seam.  Everything outside ``repro.db`` must reach storage
through the :mod:`repro.db.backend` facade — the :class:`ColumnStore`
protocol, :func:`make_backend` and the re-exported format constants —
otherwise callers pin themselves to one backend's on-disk layout and the
format can never evolve behind its version field.

Flagged outside ``repro/db/``:

* ``import repro.db.backend.layout`` / ``import repro.db.backend.disk``;
* ``from repro.db.backend.layout import ...`` and the ``disk``
  equivalent, in both absolute and relative (``from .db.backend.layout``)
  spellings;
* ``from repro.db.backend import layout`` (grabbing the submodule through
  the facade).

Importing re-exported *names* from the facade
(``from repro.db.backend import make_backend, ColumnStore``) is fine: the
package ``__init__`` is the supported surface.

Also flagged, anywhere in ``repro/`` (``repro/db/`` included) except
``repro/db/columns.py``: ``import mmap`` and ``from mmap import ...``.  The
column codec maps files for pattern stores, index segments and spill files
alike; a second mapping site would grow a second zero-copy check and copy
fallback beside it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.context import FileContext, Finding
from tools.reprolint.rules.base import Rule

_INTERNAL_MODULES = ("repro.db.backend.layout", "repro.db.backend.disk")
_INTERNAL_NAMES = frozenset({"layout", "disk"})
_CODEC_MODULE = "repro/db/columns.py"


class StorageSeamLayering(Rule):
    rule_id = "RL007"
    summary = (
        "only repro.db may import the storage byte-format modules, "
        "and only repro.db.columns may import mmap"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.rel_posix.startswith("repro/") and ctx.rel_posix != _CODEC_MODULE

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        outside_db = not ctx.rel_posix.startswith("repro/db/")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "mmap":
                        yield self._mmap_violation(node.lineno)
                    elif outside_db and alias.name in _INTERNAL_MODULES:
                        yield self._violation(node.lineno, alias.name)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "mmap":
                    yield self._mmap_violation(node.lineno)
                elif outside_db and (
                    module in _INTERNAL_MODULES
                    or (node.level and module in ("db.backend.layout", "db.backend.disk"))
                ):
                    yield self._violation(node.lineno, module)
                elif outside_db and (
                    module in ("repro.db.backend", "db.backend")
                    or (node.level and module == "db.backend")
                ):
                    for alias in node.names:
                        if alias.name in _INTERNAL_NAMES:
                            yield self._violation(
                                node.lineno, f"repro.db.backend.{alias.name}"
                            )

    def _violation(self, lineno: int, module: str) -> Finding:
        return self.finding(
            lineno,
            f"direct import of storage-internal module '{module}' outside "
            "repro.db; use the ColumnStore facade (repro.db.backend: "
            "make_backend and its re-exports)",
        )

    def _mmap_violation(self, lineno: int) -> Finding:
        return self.finding(
            lineno,
            "mmap imported outside repro/db/columns.py; map column files "
            "through repro.db.columns.ColumnFile",
        )
