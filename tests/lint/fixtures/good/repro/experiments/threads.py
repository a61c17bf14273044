"""RL009 negative fixture: thread pools are not process fan-out."""

from __future__ import annotations

import concurrent.futures
from concurrent.futures import ThreadPoolExecutor


def run(tasks):
    with ThreadPoolExecutor() as pool:
        done = list(pool.map(len, tasks))
    with concurrent.futures.ThreadPoolExecutor() as pool:
        return done + list(pool.map(len, tasks))


__all__ = ["run"]
