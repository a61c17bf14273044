"""RL009 negative fixture: the fan-out module is the one place that starts workers."""

from __future__ import annotations

import multiprocessing  # the fan-out itself: fine
from concurrent.futures import ProcessPoolExecutor  # fine


def pooled_map(work, tasks):
    with ProcessPoolExecutor(mp_context=multiprocessing.get_context()) as pool:
        return list(pool.map(work, tasks))


__all__ = ["pooled_map"]
