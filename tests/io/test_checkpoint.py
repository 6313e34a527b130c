"""Checkpoint save/restore."""

import numpy as np
import pytest

from repro.fsi import CellManager
from repro.io import CHECKPOINT_SCHEMA_VERSION, load_checkpoint, save_checkpoint
from repro.membrane import CellKind, make_ctc, make_rbc


def _population():
    m = CellManager()
    rbc = make_rbc(np.array([5e-6, 0, 0]), global_id=m.allocate_id(), subdivisions=2)
    m.add(rbc)
    rbc.vertices *= 1.02  # deform so restore must keep the shape
    ctc = make_ctc(np.array([0, 20e-6, 0]), global_id=m.allocate_id(), subdivisions=2)
    m.add(ctc)
    return m


def test_roundtrip_fields(tmp_path, rng):
    path = tmp_path / "ck.npz"
    f_coarse = rng.random((19, 4, 4, 4))
    f_fine = rng.random((19, 6, 6, 6))
    save_checkpoint(path, step=123, f_coarse=f_coarse, f_fine=f_fine)
    out = load_checkpoint(path)
    assert out["step"] == 123
    assert np.array_equal(out["f_coarse"], f_coarse)
    assert np.array_equal(out["f_fine"], f_fine)


def test_roundtrip_cells(tmp_path, rng):
    path = tmp_path / "ck.npz"
    m = _population()
    shapes = {c.global_id: c.vertices.copy() for c in m.cells}
    kinds = {c.global_id: c.kind for c in m.cells}
    save_checkpoint(path, step=1, f_coarse=np.zeros((19, 2, 2, 2)), manager=m)
    out = load_checkpoint(path)
    m2 = out["manager"]
    assert m2.n_cells == 2
    for gid, verts in shapes.items():
        cell = m2.get(gid)
        assert np.allclose(cell.vertices, verts)
        assert cell.kind is kinds[gid]


def test_restored_cells_have_working_mechanics(tmp_path):
    path = tmp_path / "ck.npz"
    m = _population()
    save_checkpoint(path, step=0, f_coarse=np.zeros((19, 2, 2, 2)), manager=m)
    m2 = load_checkpoint(path)["manager"]
    forces = m2.membrane_forces()
    assert len(forces) == 2
    for f in forces.values():
        assert np.isfinite(f).all()


def test_float32_roundtrip_bit_exact(tmp_path, rng):
    """float32 fields restore bit-exact (and silently) at dtype=float32."""
    import warnings

    path = tmp_path / "ck.npz"
    f_coarse = rng.random((19, 4, 4, 4)).astype(np.float32)
    f_fine = rng.random((19, 6, 6, 6)).astype(np.float32)
    save_checkpoint(path, step=9, f_coarse=f_coarse, f_fine=f_fine)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = load_checkpoint(path, dtype="float32")
    assert out["f_coarse"].dtype == np.float32
    assert np.array_equal(out["f_coarse"], f_coarse)
    assert np.array_equal(out["f_fine"], f_fine)


def test_float64_to_float32_restore_warns(tmp_path, rng):
    """Restoring a double-precision checkpoint into a float32 run is a
    deliberate precision loss and says so."""
    path = tmp_path / "ck.npz"
    f_coarse = rng.random((19, 4, 4, 4))
    save_checkpoint(path, step=9, f_coarse=f_coarse)
    with pytest.warns(RuntimeWarning, match="loses precision"):
        out = load_checkpoint(path, dtype="float32")
    assert out["f_coarse"].dtype == np.float32
    assert np.array_equal(out["f_coarse"], f_coarse.astype(np.float32))


def test_same_dtype_restore_is_silent(tmp_path, rng):
    import warnings

    path = tmp_path / "ck.npz"
    f_coarse = rng.random((19, 4, 4, 4))
    save_checkpoint(path, step=9, f_coarse=f_coarse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = load_checkpoint(path)
    assert out["f_coarse"].dtype == np.float64
    assert np.array_equal(out["f_coarse"], f_coarse)


def test_restore_dtype_follows_env(tmp_path, rng, monkeypatch):
    """REPRO_DTYPE steers the restore dtype exactly like Grid(dtype=)."""
    from repro.kernels import DTYPE_ENV_VAR

    path = tmp_path / "ck.npz"
    save_checkpoint(path, step=1, f_coarse=rng.random((19, 2, 2, 2)))
    monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
    with pytest.warns(RuntimeWarning, match="loses precision"):
        out = load_checkpoint(path)
    assert out["f_coarse"].dtype == np.float32


def test_extra_payload(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(
        path,
        step=5,
        f_coarse=np.zeros((19, 2, 2, 2)),
        extra={"window_center": np.array([1.0, 2.0, 3.0])},
    )
    out = load_checkpoint(path)
    assert np.allclose(out["extra"]["window_center"], [1.0, 2.0, 3.0])


def test_no_fine_field(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(path, step=0, f_coarse=np.zeros((19, 2, 2, 2)))
    out = load_checkpoint(path)
    assert "f_fine" not in out


def test_schema_version_round_trip(tmp_path):
    """New checkpoints carry the current schema version explicitly."""
    path = tmp_path / "ck.npz"
    save_checkpoint(path, step=9, f_coarse=np.zeros((19, 2, 2, 2)))
    with np.load(path) as raw:
        assert int(raw["schema_version"]) == CHECKPOINT_SCHEMA_VERSION
    out = load_checkpoint(path)
    assert out["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert out["step"] == 9


def test_versionless_legacy_checkpoint_loads_as_v1(tmp_path, rng):
    """Pre-versioning archives (no marker) still restore, reported as v1."""
    path = tmp_path / "legacy.npz"
    f_coarse = rng.random((19, 3, 3, 3))
    m = _population()
    save_checkpoint(path, step=77, f_coarse=f_coarse, manager=m,
                    extra={"window_center": np.array([1.0, 2.0, 3.0])})
    # strip the version marker to fabricate a legacy archive
    with np.load(path) as raw:
        payload = {k: raw[k] for k in raw.files if k != "schema_version"}
    np.savez_compressed(path, **payload)

    out = load_checkpoint(path)
    assert out["schema_version"] == 1
    assert out["step"] == 77
    assert np.array_equal(out["f_coarse"], f_coarse)
    assert out["manager"].n_cells == 2
    assert np.allclose(out["extra"]["window_center"], [1.0, 2.0, 3.0])


def test_unknown_schema_version_raises_clear_error(tmp_path):
    path = tmp_path / "future.npz"
    save_checkpoint(path, step=0, f_coarse=np.zeros((19, 2, 2, 2)))
    with np.load(path) as raw:
        payload = {k: raw[k] for k in raw.files}
    payload["schema_version"] = np.array(CHECKPOINT_SCHEMA_VERSION + 5)
    np.savez_compressed(path, **payload)
    with pytest.raises(ValueError, match="schema version"):
        load_checkpoint(path)


def _mixed_population():
    """RBCs at two resolutions/stiffnesses plus a CTC, all deformed."""
    m = CellManager()
    rng = np.random.default_rng(7)
    cells = [
        make_rbc(np.array([5e-6, 0, 0]), global_id=m.allocate_id(),
                 subdivisions=1),
        make_rbc(np.array([-5e-6, 3e-6, 0]), global_id=m.allocate_id(),
                 subdivisions=2, shear_modulus=1.7e-5),
        make_ctc(np.array([0, 20e-6, 0]), global_id=m.allocate_id(),
                 subdivisions=2),
    ]
    for cell in cells:
        m.add(cell)
        # Small random deformation so restore must preserve exact shapes.
        cell.vertices += 1e-8 * rng.standard_normal(cell.vertices.shape)
    return m


def test_roundtrip_mixed_kinds_with_extra_payload(tmp_path, rng):
    """Full-state round trip: fields + mixed-kind cells + extra payload."""
    path = tmp_path / "ck.npz"
    m = _mixed_population()
    shapes = {c.global_id: c.vertices.copy() for c in m.cells}
    kinds = {c.global_id: c.kind for c in m.cells}
    moduli = {c.global_id: c.shear_modulus for c in m.cells}
    f_coarse = rng.random((19, 3, 3, 3))
    extra = {
        "window_center": np.array([1.0e-6, -2.0e-6, 3.0e-6]),
        "move_count": np.array(4),
    }
    save_checkpoint(path, step=42, f_coarse=f_coarse, manager=m, extra=extra)
    out = load_checkpoint(path)

    assert out["step"] == 42
    assert np.array_equal(out["f_coarse"], f_coarse)
    assert np.allclose(out["extra"]["window_center"], extra["window_center"])
    assert int(out["extra"]["move_count"]) == 4

    m2 = out["manager"]
    assert m2.n_cells == 3
    assert sorted((c.kind for c in m2.cells), key=lambda k: k.value) == sorted(
        kinds.values(), key=lambda k: k.value
    )
    for gid, verts in shapes.items():
        cell = m2.get(gid)
        assert cell.kind is kinds[gid]
        assert cell.shear_modulus == pytest.approx(moduli[gid])
        assert np.allclose(cell.vertices, verts)
        # Reference rebuilt at the right resolution.
        assert cell.reference.n_vertices == len(verts)


def test_restored_mixed_population_supports_further_dynamics(tmp_path):
    """Restored managers must keep working: forces, removal, re-adding."""
    path = tmp_path / "ck.npz"
    m = _mixed_population()
    save_checkpoint(path, step=0, f_coarse=np.zeros((19, 2, 2, 2)), manager=m)
    m2 = load_checkpoint(path)["manager"]
    forces = m2.membrane_forces()
    assert set(forces) == {c.global_id for c in m2.cells}
    ctc = next(c for c in m2.cells if c.kind is CellKind.CTC)
    m2.remove(ctc.global_id)
    assert m2.n_cells == 2
    fresh = make_rbc(np.array([0, -20e-6, 0]), global_id=m2.allocate_id(),
                     subdivisions=1)
    m2.add(fresh)
    # New IDs never collide with restored ones.
    assert len({c.global_id for c in m2.cells}) == m2.n_cells


def test_archive_members_equal_savez_compressed(tmp_path, rng):
    """Streamed members are the bytes ``np.savez_compressed`` writes —
    0-d, unicode and empty arrays included — and a name without the
    suffix gets ``.npz`` appended the same way."""
    import zipfile

    from repro.io.checkpoint import _write_npz

    payload = {
        "step": np.array(5, dtype=np.int64),
        "f": rng.random((19, 3, 4, 5)).astype(np.float32),
        "kinds": np.array(["rbc", "ctc"], dtype="U8"),
        "none": np.zeros((0, 3)),
        "strided": rng.random((6, 4))[::2].T,
    }
    np.savez_compressed(tmp_path / "want", **payload)
    _write_npz(tmp_path / "got", payload)
    want = zipfile.ZipFile(tmp_path / "want.npz")
    got = zipfile.ZipFile(tmp_path / "got.npz")
    assert got.namelist() == want.namelist()
    for name in want.namelist():
        if name == "strided.npy":  # the streamed copy is C-ordered
            continue
        assert got.read(name) == want.read(name), name
    loaded = np.load(tmp_path / "got.npz")
    for key, value in payload.items():
        assert loaded[key].dtype == value.dtype
        assert np.array_equal(loaded[key], value)


def test_save_holds_no_copy_of_a_lattice(tmp_path):
    import tracemalloc

    f = np.arange(19 * 36**3, dtype=np.float64).reshape(19, 36, 36, 36)
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "ck.npz", step=1, f_coarse=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.nbytes / 4
    assert np.array_equal(load_checkpoint(tmp_path / "ck.npz")["f_coarse"], f)
