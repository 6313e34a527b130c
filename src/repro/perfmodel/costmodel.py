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
full vessel; :func:`traversal_node_hours` reproduces that extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's cerebral run: 1.5 mm of CTC travel per simulated day on
#: one AWS node, i.e. 24 node-hours per day.
MM_PER_DAY = 1.5
NODE_HOURS_PER_DAY = 24.0


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


def traversal_node_hours(distance: float) -> float:
    """Node-hours to track a CTC over ``distance`` [m] at Fig. 9's rate."""
    if distance < 0:
        raise ValueError("distance >= 0 required")
    return (distance * 1e3) / MM_PER_DAY * NODE_HOURS_PER_DAY


def fig9_projection(vessel_length: float = 31.25e-3) -> dict[str, float]:
    """Fig. 9's dashed-line projection on the paper's AWS node.

    With 1.5 mm/day at 24 node-hours/day, 500 node-hours corresponds to
    ~31 mm of vessel; the default length is chosen to make that round
    trip explicit.
    """
    return {
        "vessel_length_mm": vessel_length * 1e3,
        "node_hours": traversal_node_hours(vessel_length),
        "mm_per_day": MM_PER_DAY,
    }
