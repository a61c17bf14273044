"""Core contribution of the paper: repetitive gapped subsequence mining.

The modules in this subpackage implement, in the paper's own vocabulary:

* :mod:`repro.core.pattern` — patterns (gapped subsequences) and the pattern
  growth / extension operations of Definitions 3.3 and 3.4.
* :mod:`repro.core.instance` — instances ``(i, <l1..lm>)``, the overlap
  relation (Definition 2.3) and non-redundant instance sets (Definition 2.4).
* :mod:`repro.core.instance_growth` — the ``INSgrow`` operation
  (Algorithm 2) and the ``supComp`` support computation (Algorithm 1).
* :mod:`repro.core.support` — repetitive support and leftmost support sets
  (Definitions 2.5 and 3.2).
* :mod:`repro.core.compressed` — the Section III-D ``(i, l1, lm)``
  representation: the constant-space engine the miners run on whenever
  ``store_instances=False`` (the default).
* :mod:`repro.core.sweep` — the flat sweep behind compressed instance
  growth.
* :mod:`repro.core.engine` — selection between the full-landmark and the
  compressed engine.
* :mod:`repro.core.reference` — brute-force reference semantics used as test
  oracles.
* :mod:`repro.core.gsgrow` — the ``GSgrow`` miner (Algorithm 3).
* :mod:`repro.core.closure` — closure checking (Theorem 4) and landmark
  border checking (Theorem 5).
* :mod:`repro.core.clogsgrow` — the ``CloGSgrow`` closed-pattern miner
  (Algorithm 4).
* :mod:`repro.core.constraints` — the gap-constrained variant sketched as
  future work in Section V.
* :mod:`repro.core.results` — result containers shared by all miners.
"""

from repro.core.clogsgrow import CloGSgrow, mine_closed
from repro.core.compressed import CompressedSupportSet, sup_comp_compressed
from repro.core.constraints import GapConstraint
from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE, SupportEngine, engine_for
from repro.core.gsgrow import GSgrow, mine_all
from repro.core.instance import Instance, instances_overlap, is_non_redundant
from repro.core.pattern import Pattern
from repro.core.results import MinedPattern, MiningResult
from repro.core.support import SupportSet, repetitive_support, sup_comp

__all__ = [
    "Pattern",
    "Instance",
    "instances_overlap",
    "is_non_redundant",
    "SupportSet",
    "CompressedSupportSet",
    "SupportEngine",
    "FULL_LANDMARK_ENGINE",
    "COMPRESSED_ENGINE",
    "engine_for",
    "repetitive_support",
    "sup_comp",
    "sup_comp_compressed",
    "GSgrow",
    "mine_all",
    "CloGSgrow",
    "mine_closed",
    "GapConstraint",
    "MinedPattern",
    "MiningResult",
]
