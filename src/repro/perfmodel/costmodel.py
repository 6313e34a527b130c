"""Node-hour cost comparisons: APR vs eFSI (Section 3.3, Fig. 9).

Section 3.3 reports the expanding-channel study costing 6 nodes x 36 h
(APR, ~5.3e3 RBCs) against 22 nodes x 120 h (eFSI, ~4.5e5 RBCs) for the
same CTC transit — "over 10x" fewer node-hours.  The scaling model
(:mod:`repro.perfmodel.scaling`) explains that ratio from first
principles: simulation cost is dominated by the cell-resolved fine
lattice and its FSI work, and APR shrinks the fine-resolved volume from
the whole domain to the window.

Fig. 9 projects CTC traversal through the cerebral geometry at 1.5 mm
per simulated day on one cloud node, with ~500 node-hours to cross the
full vessel; :meth:`CostModel.traversal_node_hours` reproduces that
extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import AWS_P3_16XL, MachineSpec, SUMMIT


@dataclass(frozen=True)
class RunCost:
    """Cost of one campaign."""

    nodes: int
    wall_hours: float

    @property
    def node_hours(self) -> float:
        return self.nodes * self.wall_hours


#: The paper's Section 3.3 figures.
PAPER_APR_RUN = RunCost(nodes=6, wall_hours=36.0)
PAPER_EFSI_RUN = RunCost(nodes=22, wall_hours=120.0)


def node_hour_ratio(apr: RunCost = PAPER_APR_RUN, efsi: RunCost = PAPER_EFSI_RUN) -> float:
    """eFSI / APR node-hour ratio (paper: 2640/216 ~ 12.2, 'over 10x')."""
    return efsi.node_hours / apr.node_hours


@dataclass
class CostModel:
    """Node-hour cost of tracking a CTC on a given machine."""

    machine: MachineSpec = SUMMIT

    def traversal_node_hours(
        self,
        distance: float,
        mm_per_day: float = 1.5,
        n_nodes: int = 1,
    ) -> float:
        """Node-hours to track a CTC over ``distance`` [m] (Fig. 9).

        The paper's cerebral run advances 1.5 mm of CTC travel per
        simulated day on one AWS node; 24 node-hours per simulated day.
        """
        if distance < 0 or mm_per_day <= 0:
            raise ValueError("distance >= 0 and rate > 0 required")
        days = (distance * 1e3) / mm_per_day
        return days * 24.0 * n_nodes


def fig9_projection(vessel_length: float = 31.25e-3) -> dict[str, float]:
    """Fig. 9's dashed-line projection on the default AWS node.

    With 1.5 mm/day at 24 node-hours/day, 500 node-hours corresponds to
    ~31 mm of vessel; the default length is chosen to make that round
    trip explicit.
    """
    cm = CostModel(machine=AWS_P3_16XL)
    nh = cm.traversal_node_hours(vessel_length)
    return {
        "vessel_length_mm": vessel_length * 1e3,
        "node_hours": nh,
        "mm_per_day": 1.5,
    }
