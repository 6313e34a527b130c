"""CPU/GPU task mapping (Section 2.4.4 of the paper).

On Summit the paper places 42 MPI tasks per node: 36 drive the coarse
bulk fluid on the POWER9 cores and 6 drive the cell-resolved window on
the V100 GPUs.  :class:`TaskMap` captures that split and derives the
per-task workloads the scaling model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TaskMap:
    """Placement of bulk and window tasks across nodes."""

    n_nodes: int
    cpu_tasks_per_node: int
    gpu_tasks_per_node: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.cpu_tasks_per_node < 0 or self.gpu_tasks_per_node < 0:
            raise ValueError("task counts must be non-negative")

    @property
    def n_cpu_tasks(self) -> int:
        return self.n_nodes * self.cpu_tasks_per_node

    @property
    def n_gpu_tasks(self) -> int:
        return self.n_nodes * self.gpu_tasks_per_node

    @property
    def tasks_per_node(self) -> int:
        return self.cpu_tasks_per_node + self.gpu_tasks_per_node


def summit_task_map(n_nodes: int) -> TaskMap:
    """The paper's Summit configuration: 36 CPU + 6 GPU tasks per node."""
    return TaskMap(
        n_nodes=n_nodes, cpu_tasks_per_node=36, gpu_tasks_per_node=6
    )
