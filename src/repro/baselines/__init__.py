"""Related-work baselines (Table I of the paper).

Each module implements the support semantics of one line of Table I, so the
paper's comparison of definitions (Example 1.1 and the related-work section)
can be regenerated, plus the three classic sequential-pattern miners used in
the Experiment-1 runtime comparison:

* :mod:`repro.baselines.sequential` — sequence-count support
  (Agrawal & Srikant) and an Apriori-style miner.
* :mod:`repro.baselines.prefixspan` — the PrefixSpan miner (Pei et al.).
* :mod:`repro.baselines.clospan` — CloSpan-style closed sequential mining.
* :mod:`repro.baselines.bide` — the BIDE closed sequential miner
  (Wang & Han) with BI-Directional Extension checking and BackScan pruning.
* :mod:`repro.baselines.episodes` — episode support over fixed-width and
  minimal windows (Mannila et al.).
* :mod:`repro.baselines.gap_requirement` — all-occurrence counting under a
  gap requirement (Zhang et al.).
* :mod:`repro.baselines.interaction` — interaction-pattern support
  (El-Ramly et al.).
* :mod:`repro.baselines.iterative` — iterative-pattern (MSC/LSC) support
  (Lo et al.).
"""

from repro.baselines.bide import BIDE, mine_closed_sequential
from repro.baselines.clospan import CloSpan
from repro.baselines.episodes import fixed_window_support, minimal_window_support
from repro.baselines.gap_requirement import gap_occurrence_support, gap_support_ratio
from repro.baselines.interaction import interaction_support
from repro.baselines.iterative import iterative_support
from repro.baselines.prefixspan import PrefixSpan, mine_sequential
from repro.baselines.sequential import sequence_support

__all__ = [
    "sequence_support",
    "PrefixSpan",
    "mine_sequential",
    "CloSpan",
    "BIDE",
    "mine_closed_sequential",
    "fixed_window_support",
    "minimal_window_support",
    "gap_occurrence_support",
    "gap_support_ratio",
    "interaction_support",
    "iterative_support",
]
