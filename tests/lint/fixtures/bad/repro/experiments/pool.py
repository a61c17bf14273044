"""RL009 positive fixture: process pools started outside the fan-out module."""

from __future__ import annotations

import multiprocessing  # -> RL009
from multiprocessing.pool import Pool  # -> RL009
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor  # -> RL009
import concurrent.futures


def run(tasks):
    with concurrent.futures.ProcessPoolExecutor() as pool:  # -> RL009
        return list(pool.map(len, tasks))


__all__ = ["Pool", "ProcessPoolExecutor", "ThreadPoolExecutor", "multiprocessing", "run"]
