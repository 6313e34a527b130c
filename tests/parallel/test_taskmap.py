"""CPU/GPU task placement (Section 2.4.4)."""

import pytest

from repro.parallel import TaskMap, summit_task_map


def test_summit_split():
    tm = summit_task_map(1)
    assert tm.cpu_tasks_per_node == 36
    assert tm.gpu_tasks_per_node == 6
    assert tm.tasks_per_node == 42


def test_paper_scale_counts():
    """Section 3.5: 256 nodes -> 1536 GPUs and ~10752 bulk CPU tasks."""
    tm = summit_task_map(256)
    assert tm.n_gpu_tasks == 1536
    assert tm.n_cpu_tasks == 9216  # 36 bulk tasks/node (42 cores incl. GPU tasks)


def test_validation():
    with pytest.raises(ValueError):
        TaskMap(n_nodes=0, cpu_tasks_per_node=36, gpu_tasks_per_node=6)
    with pytest.raises(ValueError):
        TaskMap(n_nodes=1, cpu_tasks_per_node=-1, gpu_tasks_per_node=6)
