"""Host speed, read off a fixed kernel of the benchmark's own.

On a shared host, other tenants slow every instruction of this one by up to
~1.5x for stretches of seconds to minutes, so the same mine reads 0.75 s in
one run and 1.2 s in the next.  Nothing inside one run averages that out.
So the benchmark runs a fixed pure-Python kernel just before and just after
each operation it times, and reports the operation's time at the kernel's
nominal speed::

    scaled = measured * NOMINAL_S / sqrt(kernel_before * kernel_after)

The kernel is benchmark code, not program code: no change to the program
moves it, so a change that makes an operation 10% slower makes its scaled
time 10% slower too.  It does the two kinds of work the miner's hot path
does, a bisect sweep over ``array('q')`` columns and growing a prefix tree
of small objects in dicts, with the garbage collector off, so its time does
not depend on what the program left on the heap.
"""

from __future__ import annotations

import gc
import math
import time
from array import array
from bisect import bisect_right

#: The kernel's wall time on an unloaded host of the kind the benchmark was
#: tuned on (2 vCPUs of a 2.1 GHz Xeon, CPython 3.11): the unit of scaled times.
NOMINAL_S = 0.075

_SEED = 12345
_LISTS = 400
_LIST_LENGTH = 60
_SWEEPS = 12
_TREE_PATHS = 10_000
_TREE_DEPTH = 4
_ALPHABET = 23


def _lcg(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def _columns() -> tuple[array, array, list[array]]:
    """Sorted position lists, and probes into them in right-shift order."""
    x = _SEED
    lists = []
    for _ in range(_LISTS):
        positions = array("q")
        position = 0
        for _ in range(_LIST_LENGTH):
            x = _lcg(x)
            position += 1 + x % 7
            positions.append(position)
        lists.append(positions)
    seqs, lasts = array("q"), array("q")
    for s, positions in enumerate(lists):
        for k in range(0, _LIST_LENGTH, 3):
            seqs.append(s)
            lasts.append(positions[k])
    return seqs, lasts, lists


_SEQS, _LASTS, _POSITIONS = _columns()


def _sweep() -> int:
    """The greedy instance-growth sweep's shape, over fixed columns."""
    seqs, lasts, lists = _SEQS, _LASTS, _POSITIONS
    n = len(seqs)
    total = 0
    for _ in range(_SWEEPS):
        out = array("q", bytes(8 * n))
        count = 0
        previous = -1
        last_position = 0
        positions = lists[0]
        length = 0
        for k in range(n):
            i = seqs[k]
            if i != previous:
                previous = i
                last_position = 0
                positions = lists[i]
                length = len(positions)
            last = lasts[k]
            lowest = last if last >= last_position else last_position
            idx = bisect_right(positions, lowest)
            if idx >= length:
                continue
            last_position = positions[idx]
            out[count] = last_position
            count += 1
        total += count
    return total


class _Node:
    __slots__ = ("key", "count", "children")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.count = 0
        self.children: dict[int, _Node] = {}


def _tree() -> int:
    """Grow a prefix tree of event tuples, then walk it in key order."""
    x = _SEED
    root = _Node(())
    for _ in range(_TREE_PATHS):
        node = root
        path: tuple = ()
        for _ in range(_TREE_DEPTH):
            x = _lcg(x)
            event = x % _ALPHABET
            path = path + (event,)
            child = node.children.get(event)
            if child is None:
                child = node.children[event] = _Node(path)
            child.count += 1
            node = child
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total += node.count
        stack.extend(sorted(node.children.values(), key=lambda n: n.key))
    return total


def kernel_s() -> float:
    """Run the kernel once; its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _sweep()
        _tree()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scaled(measured_s: list[float], kernels_s: list[float]) -> list[float]:
    """Each ``measured_s[k]`` at nominal speed, from the kernel runs around it.

    ``kernels_s`` holds one more entry than ``measured_s``: ``kernels_s[k]``
    ran just before operation ``k`` and ``kernels_s[k + 1]`` just after it.
    """
    return [
        t * NOMINAL_S / math.sqrt(kernels_s[k] * kernels_s[k + 1])
        for k, t in enumerate(measured_s)
    ]
