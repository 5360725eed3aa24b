"""Runtime communication cost estimation (Section 4.1.2).

"To estimate comm at runtime, we use an algorithm like that suggested by
Sarkar and Hennessy, which performs a weighted sum of dataflow graph edges
that cross processor boundaries.  Rather than perform this computation
statically, the Delirium compiler generates code blocks that perform the
estimate given runtime parameters such as N and p."

:class:`CommEstimator` is that generated code block: it evaluates the
symbolic size annotations under concrete problem-size parameters and
weights each crossing edge by the boundary fraction implied by the
processor counts on each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from .machine import MachineConfig

if TYPE_CHECKING:  # the runtime never loads the compiler half
    from ..delirium.annotations import GraphAnnotations
    from ..delirium.graph import DataflowGraph, OpNode


@dataclass
class CommEstimator:
    """Weighted sum of crossing dataflow edges for one operator."""

    graph: DataflowGraph
    annotations: GraphAnnotations
    config: MachineConfig
    #: Problem-size parameters (symbolic names -> values), e.g. {"n": 512}.
    params: Dict[str, float] = field(default_factory=dict)

    def edge_cost(self, n_bytes: float, producer_p: int, consumer_p: int) -> float:
        """Cost of one edge when producer/consumer own p1/p2 processors.

        With matching decompositions most data stays local; the crossing
        fraction grows with the mismatch between the two processor counts.
        """
        if producer_p <= 0 or consumer_p <= 0:
            return 0.0
        smaller = min(producer_p, consumer_p)
        larger = max(producer_p, consumer_p)
        crossing_fraction = 1.0 - smaller / (2.0 * larger)
        messages = max(producer_p, consumer_p)
        return (
            messages * self.config.message_latency
            + crossing_fraction * n_bytes / self.config.bandwidth
        )

    def estimate(
        self,
        node: OpNode,
        p: int,
        neighbor_p: Optional[Mapping[int, int]] = None,
    ) -> float:
        """The ``comm`` term of Eq. 1 for running ``node`` on ``p``
        processors; ``neighbor_p`` optionally gives the processor counts
        of adjacent operators (defaults to ``p``)."""
        neighbor_p = neighbor_p or {}
        total = 0.0
        for edge in self.graph.in_edges(node):
            n_bytes = self.annotations.edge_bytes(edge, self.params)
            other = neighbor_p.get(edge.producer, p)
            total += self.edge_cost(n_bytes, other, p)
        for edge in self.graph.out_edges(node):
            n_bytes = self.annotations.edge_bytes(edge, self.params)
            other = neighbor_p.get(edge.consumer, p)
            total += self.edge_cost(n_bytes, p, other)
        return total


@dataclass
class FlatCommModel:
    """A graph-free communication model for workload-level simulations.

    Apps that drive the runtime directly (without compiling a MiniF
    program) describe an operation's communication as bytes-in plus
    bytes-out; the estimator charges boundary crossings like
    :class:`CommEstimator` does.
    """

    config: MachineConfig
    bytes_in: float = 0.0
    bytes_out: float = 0.0

    def estimate(self, p: int) -> float:
        if p <= 0:
            return 0.0
        total_bytes = self.bytes_in + self.bytes_out
        return p * self.config.message_latency * 0.5 + total_bytes / (
            self.config.bandwidth
        ) / max(1.0, p**0.5)
