"""RL009 — worker processes start in one place: the fan-out in ``repro/obs/aggregate.py``.

:func:`repro.obs.aggregate.pooled_map` resolves ``n_jobs``, owns the only
``ProcessPoolExecutor``, ships the caller's trace context and absorbs each
worker's telemetry.  A second pool elsewhere would need all four again, and
the ones it forgot would make its pooled runs record differently from its
serial ones.

Flagged anywhere in ``repro/`` except ``repro/obs/aggregate.py``:

* ``import multiprocessing`` (and its submodules) and ``from
  multiprocessing ... import ...``;
* ``ProcessPoolExecutor`` imported from ``concurrent.futures`` (or its
  ``process`` submodule), ``import concurrent.futures.process``, and any
  ``<module>.ProcessPoolExecutor`` attribute.

Thread pools (``ThreadPoolExecutor``) are not process fan-out and stay
allowed.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.context import FileContext, Finding
from tools.reprolint.rules.base import Rule

_FAN_OUT_MODULE = "repro/obs/aggregate.py"
_POOL_MODULE = "concurrent.futures.process"
_FUTURES_MODULES = ("concurrent.futures", _POOL_MODULE)


def _is_multiprocessing(module: str) -> bool:
    return module == "multiprocessing" or module.startswith("multiprocessing.")


class ProcessPoolSeam(Rule):
    rule_id = "RL009"
    summary = (
        "only repro.obs.aggregate may import multiprocessing or use "
        "ProcessPoolExecutor"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.rel_posix.startswith("repro/") and ctx.rel_posix != _FAN_OUT_MODULE

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_multiprocessing(alias.name) or alias.name == _POOL_MODULE:
                        yield self._violation(node.lineno, alias.name)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                if _is_multiprocessing(module):
                    yield self._violation(node.lineno, module)
                elif module in _FUTURES_MODULES and any(
                    alias.name in ("ProcessPoolExecutor", "*") for alias in node.names
                ):
                    yield self._violation(node.lineno, f"{module}.ProcessPoolExecutor")
            elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
                yield self._violation(node.lineno, "ProcessPoolExecutor")

    def _violation(self, lineno: int, what: str) -> Finding:
        return self.finding(
            lineno,
            f"process pool '{what}' used outside repro/obs/aggregate.py; fan "
            "work out through repro.obs.aggregate.pooled_map",
        )
