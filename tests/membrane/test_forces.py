"""The fused membrane force function against its per-term oracle.

:func:`repro.membrane.membrane_forces` is what every product path calls
(``Cell.forces``, ``CellManager``); the
per-term ``skalak_forces`` / ``bending_forces`` / ``area_volume_forces``
it replaced there stay as the public per-term API and are the oracle
here.
"""

import tracemalloc

import numpy as np
import pytest

from repro.membrane import (
    area_volume_forces,
    bending_forces,
    make_ctc,
    make_rbc,
    membrane_forces,
    skalak_forces,
)
from repro.membrane.cell import random_rotation

from .reference_bodies import row_major_block_forces

REL_TOL = 1e-13


def _moduli(cell):
    return (cell.shear_modulus, cell.skalak_C, cell.k_bend, cell.k_area,
            cell.k_volume)


def _oracle(batch, cell):
    ref = cell.reference
    f = skalak_forces(batch, ref, cell.shear_modulus, cell.skalak_C)
    f += bending_forces(batch, ref.quads, ref.theta0, cell.k_bend)
    f += area_volume_forces(
        batch, ref.faces, ref.area0, ref.volume0, cell.k_area, cell.k_volume
    )
    return f


def _shapes(cell, n_cells, strain, seed=5):
    """(B, V, 3) randomly rotated, placed and ``strain``-deformed copies."""
    rng = np.random.default_rng(seed)
    ref = cell.reference.vertices
    batch = np.empty((n_cells,) + ref.shape)
    for b in range(n_cells):
        deform = np.eye(3) + strain * rng.standard_normal((3, 3))
        batch[b] = ref @ (random_rotation(rng) @ deform).T
        batch[b] += 2e-5 * rng.random(3)
    return batch


@pytest.fixture(scope="module", params=[make_rbc, make_ctc],
                ids=["rbc", "ctc"])
def cell(request):
    return request.param(np.zeros(3), global_id=0, subdivisions=2)


@pytest.fixture(scope="module")
def force_scale(cell):
    """Largest nodal force of the 5%-strained shapes: the yardstick for
    'forces ~ 0' at the rest shape, where a relative error has no base."""
    return np.abs(_oracle(_shapes(cell, 4, 0.05), cell)).max()


@pytest.mark.parametrize("n_cells", [1, 50])
@pytest.mark.parametrize("strain", [0.0, 0.05], ids=["rest", "strained"])
def test_matches_sum_of_per_term_forces(cell, force_scale, n_cells, strain):
    batch = _shapes(cell, n_cells, strain)
    got = membrane_forces(batch, cell.reference, *_moduli(cell))
    want = _oracle(batch, cell)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL_TOL * force_scale
    if strain == 0.0:
        assert np.abs(got).max() <= 1e-9 * force_scale
    else:
        assert np.abs(want).max() > 0.1 * force_scale


def test_single_cell_without_batch_axis(cell, force_scale):
    verts = _shapes(cell, 1, 0.05)[0]
    got = membrane_forces(verts, cell.reference, *_moduli(cell))
    assert got.shape == verts.shape
    assert np.abs(got - _oracle(verts, cell)).max() <= REL_TOL * force_scale
    cell_at_shape = cell.copy()
    cell_at_shape.vertices = verts
    assert np.array_equal(cell_at_shape.forces(), got)


def test_penalty_terms_switch_off_like_the_oracle(cell, force_scale):
    batch = _shapes(cell, 3, 0.05)
    moduli = (cell.shear_modulus, cell.skalak_C, cell.k_bend, 0.0, 0.0)
    ref = cell.reference
    want = skalak_forces(batch, ref, *moduli[:2])
    want += bending_forces(batch, ref.quads, ref.theta0, cell.k_bend)
    got = membrane_forces(batch, ref, *moduli)
    assert np.abs(got - want).max() <= REL_TOL * force_scale


def test_net_force_and_torque_vanish_per_cell(cell, force_scale):
    batch = _shapes(cell, 50, 0.05)
    f = membrane_forces(batch, cell.reference, *_moduli(cell))
    n_vertices = batch.shape[1]
    assert np.abs(f.sum(axis=1)).max() <= 1e-12 * n_vertices * force_scale
    arms = batch - batch.mean(axis=1, keepdims=True)
    torque = np.cross(arms, f).sum(axis=1)
    arm_scale = np.abs(arms).max()
    assert (np.abs(torque).max()
            <= 1e-12 * n_vertices * force_scale * arm_scale)


@pytest.mark.parametrize(
    "bounds", [(0, 1, 50), (0, 17, 34, 50), (0, 49, 50), (0, 33, 50)]
)
def test_cell_chunks_are_bitwise_the_whole_batch(cell, bounds):
    """A cell's forces do not depend on the batch it is evaluated in:
    cell chunks reproduce the whole-group evaluation bit for bit —
    including chunks of one cell and chunks that straddle the internal
    evaluation blocks."""
    batch = _shapes(cell, 50, 0.05)
    args = (cell.reference, *_moduli(cell))
    whole = membrane_forces(batch, *args)
    chunks = [membrane_forces(batch[lo:hi], *args)
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(np.concatenate(chunks), whole)


def test_operator_is_built_once_per_reference(cell):
    ref = cell.reference
    op = ref.force_operator
    membrane_forces(ref.vertices, ref, *_moduli(cell))
    assert ref.force_operator is op
    n_rows = 3 * len(ref.faces) + 4 * len(ref.quads)
    assert op.incidence.shape == (ref.n_vertices, n_rows)
    assert op.incidence.nnz == n_rows


@pytest.mark.parametrize("n_cells", [1, 25, 32, 33, 70])
@pytest.mark.parametrize("penalties", [True, False], ids=["all", "no-av"])
def test_workspace_pass_is_bitwise_the_row_major_pass(cell, n_cells,
                                                       penalties):
    """The component-major workspace pass against the row-major block
    pass it replaced, block by block — including batches that end inside
    a block and batches across block boundaries."""
    batch = _shapes(cell, n_cells, 0.05, seed=n_cells)
    ref = cell.reference
    op = ref.force_operator
    moduli = _moduli(cell) if penalties else _moduli(cell)[:3] + (0.0, 0.0)
    got = membrane_forces(batch, ref, *moduli)
    want = np.concatenate([
        row_major_block_forces(batch[lo:lo + op.block_cells], op, *moduli)
        for lo in range(0, n_cells, op.block_cells)
    ])
    assert np.array_equal(got, want)


def test_out_receives_the_forces(cell):
    batch = _shapes(cell, 3, 0.05)
    args = (cell.reference, *_moduli(cell))
    out = np.full(batch.shape, np.nan)
    assert membrane_forces(batch, *args, out=out) is out
    assert np.array_equal(out, membrane_forces(batch, *args))
    with pytest.raises(ValueError):
        membrane_forces(batch, *args, out=np.empty((3, 3) + batch.shape[1:2]))
    with pytest.raises(ValueError):
        membrane_forces(batch, *args, out=np.empty(batch.shape, order="F"))


def test_one_call_on_25_rbcs_holds_at_most_4_mib():
    """Traced peak of one call above its entry, plus the operator's
    persistent workspace: at most 4 MiB for 25 RBCs (one block)."""
    rbc = make_rbc(np.zeros(3), global_id=0, subdivisions=2)
    batch = _shapes(rbc, 25, 0.05)
    args = (rbc.reference, *_moduli(rbc))
    op = rbc.reference.force_operator
    membrane_forces(batch, *args)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        membrane_forces(batch, *args)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert op.block_cells >= 25
    assert peak + op.workspace_nbytes <= 4 * 2**20
