"""Ablation: RCM vertex reordering for FEM locality (Section 2.4.5).

The paper reorders cell-mesh vertices with reverse Cuthill-McKee so each
element's twelve-vertex neighborhood sits close in memory.  This ablation
measures the bandwidth reduction and the effect on the batched membrane
force evaluation (the product-path ``membrane_forces``, Skalak + bending
here) over a pooled RBC population.
"""

import numpy as np
import pytest

from conftest import banner
from repro.membrane import (
    ReferenceState,
    biconcave_rbc,
    membrane_forces,
    mesh_bandwidth,
    rcm_ordering,
    reorder_mesh,
)

GS, C, KB = 5e-6, 100.0, 2.3e-19


def _meshes():
    verts, faces = biconcave_rbc()
    rng = np.random.default_rng(7)
    scramble = rng.permutation(len(verts))
    v_bad, f_bad = reorder_mesh(verts, faces, scramble)
    perm = rcm_ordering(f_bad, len(verts))
    v_rcm, f_rcm = reorder_mesh(v_bad, f_bad, perm)
    return (v_bad, f_bad), (v_rcm, f_rcm)


def test_rcm_bandwidth_reduction(benchmark):
    (v_bad, f_bad), (v_rcm, f_rcm) = benchmark.pedantic(_meshes, rounds=1, iterations=1)
    bw_bad = mesh_bandwidth(f_bad, len(v_bad))
    bw_rcm = mesh_bandwidth(f_rcm, len(v_rcm))
    banner("Ablation: RCM reordering")
    print(f"  bandwidth scrambled: {bw_bad}, RCM: {bw_rcm} "
          f"({bw_bad / bw_rcm:.1f}x reduction)")
    assert bw_rcm * 4 < bw_bad


@pytest.mark.parametrize("ordering", ["scrambled", "rcm"])
def test_batched_membrane_forces_by_ordering(benchmark, ordering):
    (bad, rcm) = _meshes()
    verts, faces = bad if ordering == "scrambled" else rcm
    ref = ReferenceState.from_mesh(verts, faces)
    rng = np.random.default_rng(0)
    batch = ref.vertices[None] * (
        1.0 + 0.03 * rng.standard_normal((16,) + ref.vertices.shape)
    )

    def forces():
        return membrane_forces(batch, ref, GS, C, KB, 0.0, 0.0)

    result = benchmark(forces)
    assert np.isfinite(result).all()
