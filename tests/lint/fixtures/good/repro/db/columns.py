"""RL007 negative fixture: the column codec is the one module that maps files."""

from __future__ import annotations

import mmap  # the codec itself: fine
from mmap import ACCESS_READ  # fine

__all__ = ["ACCESS_READ", "mmap"]
