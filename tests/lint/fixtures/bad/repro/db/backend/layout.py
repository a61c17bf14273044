"""RL007 positive fixture: mmap imported outside the column codec, even in repro.db."""

from __future__ import annotations

import mmap  # -> RL007
from mmap import ACCESS_READ  # -> RL007
import os, mmap as _mmap  # -> RL007: one alias of several

__all__ = ["ACCESS_READ", "_mmap", "mmap", "os"]
