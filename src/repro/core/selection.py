"""Cost-aware transfer-engine selection (Algorithm 1, lines 2-13).

Given the per-partition cost estimates of
:class:`~repro.core.cost_model.CostModel`, HyTGraph picks one engine per
active partition:

* choose **ExpTM-compaction** when ``Tec_i < α·Tef_i`` *and*
  ``Tec_i < β·Tiz_i`` — the first condition is Subway's 80 % observation
  (α = 0.8), the second (β = 0.4) prefers compaction over zero-copy for
  partitions with many low-degree active vertices whose unsaturated
  requests would waste PCIe bandwidth;
* otherwise choose **ImpTM-zero-copy** if ``Tiz_i < Tef_i``;
* otherwise choose **ExpTM-filter**.

In the real system this selection runs on the GPU so that only the result
crosses PCIe; the simulated runtime charges that device-side scan via
:meth:`repro.sim.kernel.KernelModel.device_scan_time`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import PartitionCosts
from repro.transfer.base import EngineKind

__all__ = ["SelectionThresholds", "SelectionResult", "EngineSelector"]

DEFAULT_ALPHA = 0.8
DEFAULT_BETA = 0.4


@dataclass(frozen=True)
class SelectionThresholds:
    """The α and β thresholds of Section V-A."""

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")


#: Selection codes: one ``int8`` per partition, 0 for inactive ones.
INACTIVE, FILTER, COMPACTION, ZERO_COPY = 0, 1, 2, 3
#: Code -> engine (``None`` for inactive partitions) and engine -> code.
ENGINE_OF_CODE = (None, EngineKind.EXP_FILTER, EngineKind.EXP_COMPACTION, EngineKind.IMP_ZERO_COPY)
CODE_OF_ENGINE = {engine: code for code, engine in enumerate(ENGINE_OF_CODE)}


class SelectionResult:
    """Chosen engine per partition for one iteration.

    Held as :attr:`codes`, an ``int8`` vector with :data:`FILTER` /
    :data:`COMPACTION` / :data:`ZERO_COPY` per active partition and
    :data:`INACTIVE` elsewhere.  ``choices`` is the same thing as a list
    of :class:`~repro.transfer.base.EngineKind` (``None`` for inactive
    partitions; unified memory is never selected by the hybrid runtime —
    Section IV explains why), and either form constructs a result.
    """

    __slots__ = ("codes",)

    def __init__(self, choices: list[EngineKind | None] | None = None, *, codes: np.ndarray | None = None):
        if codes is None:
            codes = np.array([CODE_OF_ENGINE[choice] for choice in choices], dtype=np.int8)
        self.codes = codes

    @property
    def choices(self) -> list[EngineKind | None]:
        """The selected engine (or ``None``) of every partition."""
        return [ENGINE_OF_CODE[code] for code in self.codes.tolist()]

    def partitions_using(self, engine: EngineKind) -> list[int]:
        """Indices of partitions that selected ``engine``."""
        return np.flatnonzero(self.codes == CODE_OF_ENGINE[engine]).tolist()

    def counts(self) -> dict[str, int]:
        """Number of active partitions per selected engine (Figure 7a/b).

        Keys appear in order of the engines' first partition.
        """
        totals = np.bincount(self.codes, minlength=len(ENGINE_OF_CODE)).tolist()
        present = [code for code in (FILTER, COMPACTION, ZERO_COPY) if totals[code]]
        if len(present) > 1:
            present.sort(key=self.codes.tolist().index)
        return {ENGINE_OF_CODE[code].value: totals[code] for code in present}


class EngineSelector:
    """Applies the α/β selection rule to per-partition cost estimates."""

    def __init__(self, thresholds: SelectionThresholds | None = None):
        self.thresholds = thresholds or SelectionThresholds()

    def select(self, costs: PartitionCosts) -> SelectionResult:
        """Pick the most cost-efficient engine for every active partition."""
        tef, tec, tiz = costs.filter_cost, costs.compaction_cost, costs.zero_copy_cost
        active = costs.active_edges > 0
        # Filter unless zero-copy is cheaper; compaction overrides both.
        codes = active.astype(np.int8)
        codes[active & (tiz < tef)] = ZERO_COPY
        compaction = (tec < self.thresholds.alpha * tef) & (tec < self.thresholds.beta * tiz)
        codes[active & compaction] = COMPACTION
        return SelectionResult(codes=codes)

    def select_single(self, filter_cost: float, compaction_cost: float, zero_copy_cost: float) -> EngineKind:
        """Selection rule for a single partition (convenience for tests)."""
        costs = PartitionCosts(
            filter_cost=np.array([filter_cost]),
            compaction_cost=np.array([compaction_cost]),
            zero_copy_cost=np.array([zero_copy_cost]),
            active_vertices=np.array([1]),
            active_edges=np.array([1]),
        )
        return self.select(costs).choices[0]
