"""Array-API kernels backend: one implementation, host or device namespace.

Every kernel here is written once against a duck-typed array namespace
``xp`` (resolved per call from the array arguments — the
``cupy.get_array_module`` idiom, equivalent to
``array_api_compat.array_namespace`` when that package is installed) and
registered twice:

``arrayapi:numpy``
    ``xp`` resolves to the host :mod:`numpy` namespace.  Each kernel
    replicates the reference backend's elementary operations in the
    reference's exact order — same ufuncs, same reduction orders, same
    ``bincount`` scatter orders — so this backend is *bitwise identical*
    to the ``numpy`` backend (the BGK collide is not a replica: both
    backends register the one ``xp``-generic body).  CI exercises the
    full golden matrix against it on CPU-only machines, which is what
    keeps the device code path honest without a GPU in the loop.

``arrayapi:cupy``
    Registered only when :mod:`cupy` imports.  The same kernel bodies
    run unchanged on device arrays; the registered table wraps each
    kernel in a thin host<->device adapter built on
    :class:`DeviceResidency` because the rest of the code base holds
    numpy arrays.  When cupy is *not* importable,
    :func:`repro.kernels.resolve_kernels` maps a request for this
    backend to ``arrayapi:numpy`` with a one-time ``RuntimeWarning``.

Device-residency policy
-----------------------
Transfers, not FLOPs, dominate naive GPU ports of this hot path, so the
policy has three tiers (see the CUDA accelerator guide's
host-to-device-traffic discipline):

* **Immutable tables** — lattice velocity matrices, mesh topology
  (``faces`` / ``quads``), :class:`~repro.membrane.reference.ReferenceState`
  arrays — are uploaded once per array object and cached forever
  (:func:`_const`); the cache pins the host array so ``id`` reuse cannot
  alias a stale upload.
* **Mutating state** — ``f``, packed vertices, force accumulators, IBM
  scratch — keeps a persistent device buffer per host buffer
  (:class:`DeviceResidency`): re-entering a kernel with the same host
  array refreshes the *contents* of the resident device allocation
  instead of allocating, and results are synced back only into declared
  outputs.  Allocation churn and device-memory fragmentation stay O(1)
  per step.
* **Native device callers** pay nothing: because the kernels duck-type
  ``xp`` from their arguments, a driver that holds cupy arrays
  end-to-end (``f``, vertices and IBM scratch allocated on device)
  bypasses the adapters entirely and no per-step transfer happens.
  ``to_device`` / ``sync_host`` are the explicit boundary helpers for
  such drivers; on the numpy namespace both are identity functions.
"""

from __future__ import annotations

import numpy as np

try:  # optional — used only to normalize exotic namespaces when present
    import array_api_compat  # noqa: F401
except ImportError:  # pragma: no cover - not installed in the CI image
    array_api_compat = None

try:
    import cupy as _cupy

    CUPY_AVAILABLE = True
except ImportError:
    _cupy = None
    CUPY_AVAILABLE = False

from ..lbm.collision import collide_bgk
from ..lbm.streaming import _INTERIOR, _PADDED_SEGMENTS, _STREAM_SEGMENTS


def _xp_of(*arrays):
    """Array namespace of the arguments (numpy unless one is a cupy array)."""
    if _cupy is not None:
        present = [a for a in arrays if a is not None]
        if present:
            return _cupy.get_array_module(*present)
    return np


#: id(host array) -> (device copy, host array).  Keeping the host
#: reference pins its id, so a cache hit can never alias a dead array.
_CONST_CACHE: dict[int, tuple] = {}


def _const(a, xp):
    """Device copy of an immutable host array, uploaded once (identity on numpy)."""
    if xp is np or not isinstance(a, np.ndarray):
        return a
    hit = _CONST_CACHE.get(id(a))
    if hit is not None and hit[1] is a:
        return hit[0]
    dev = xp.asarray(a)
    _CONST_CACHE[id(a)] = (dev, a)
    return dev


class DeviceResidency:
    """Persistent host-buffer -> device-buffer pairing.

    ``upload`` refreshes the *contents* of the resident device buffer
    (reusing its allocation) and ``download`` syncs a device result back
    into the paired host array.  On the numpy namespace every method is
    an identity/no-op, which is what the residency unit tests assert.
    """

    def __init__(self, xp):
        self.xp = xp
        self._buffers: dict[int, tuple] = {}

    def upload(self, host: np.ndarray):
        """Device view of ``host``, refreshing the resident buffer."""
        if self.xp is np:
            return host
        hit = self._buffers.get(id(host))
        if (
            hit is not None
            and hit[1] is host
            and hit[0].shape == host.shape
            and hit[0].dtype == host.dtype
        ):
            dev = hit[0]
        else:
            dev = self.xp.empty(host.shape, dtype=host.dtype)
            self._buffers[id(host)] = (dev, host)
        dev.set(host)
        return dev

    def download(self, dev, host: np.ndarray) -> np.ndarray:
        """Sync a device array back into the paired host array."""
        if self.xp is np:
            if dev is not host:
                host[...] = dev
            return host
        host[...] = self.xp.asnumpy(dev)
        return host

    def to_host(self, arr) -> np.ndarray:
        if self.xp is np:
            return arr
        return self.xp.asnumpy(arr)

    def clear(self) -> None:
        self._buffers.clear()


_RESIDENCY = DeviceResidency(_cupy if CUPY_AVAILABLE else np)


def to_device(a: np.ndarray, backend: str = "arrayapi:numpy"):
    """Move a host array onto the backend's device (identity on numpy)."""
    if backend == "arrayapi:cupy" and CUPY_AVAILABLE:
        return _RESIDENCY.upload(a)
    return a


def sync_host(dev, host: np.ndarray | None = None) -> np.ndarray:
    """Bring a (possibly device) array back to the host (identity on numpy)."""
    if host is not None:
        return _RESIDENCY.download(dev, host)
    return _RESIDENCY.to_host(dev)


# ----------------------------------------------------------------------
# LBM kernels
# ----------------------------------------------------------------------
# ``collide_bgk`` is :func:`repro.lbm.collision.collide_bgk` itself: that
# body resolves ``xp`` from ``f``, so it is the same function the
# ``numpy`` backend registers.
def stream_pull(f_post, out=None):
    """Periodic pull streaming via the shared slice-slab segment table."""
    xp = _xp_of(f_post)
    if out is None:
        out = xp.empty_like(f_post)
    if out is f_post:
        raise ValueError("streaming cannot be done in place")
    for i, segments in enumerate(_STREAM_SEGMENTS):
        src_i = f_post[i]
        dst_i = out[i]
        for dst, src in segments:
            dst_i[dst] = src_i[src]
    return out


def stream_pull_padded(f_post, out):
    """Halo-padded pull streaming (interior writes only)."""
    if out is f_post:
        raise ValueError("streaming cannot be done in place")
    for i, src in enumerate(_PADDED_SEGMENTS):
        out[i][_INTERIOR] = f_post[i][src]
    return out


# ----------------------------------------------------------------------
# Membrane kernels
# ----------------------------------------------------------------------
def _face_corners(v, faces):
    return (
        v[..., faces[:, 0], :],
        v[..., faces[:, 1], :],
        v[..., faces[:, 2], :],
    )


def _scatter_add(out, idx, vals, xp):
    """Batched bincount scatter (mirror of membrane.constraints._scatter_add)."""
    nv = out.shape[-2]
    flat = out.reshape(-1, nv, 3)
    vflat = vals.reshape(-1, vals.shape[-2], 3)
    b = flat.shape[0]
    batch_idx = (xp.arange(b)[:, None] * nv + idx[None, :]).reshape(-1)
    for d in range(3):
        flat[:, :, d] += xp.bincount(
            batch_idx, weights=vflat[:, :, d].reshape(-1), minlength=b * nv
        ).reshape(b, nv)


def skalak_forces(vertices, ref, Gs, C):
    """Skalak in-plane nodal forces (mirror of membrane.skalak.skalak_forces)."""
    xp = _xp_of(vertices)
    v = xp.asarray(vertices, dtype=np.float64)
    faces = _const(ref.faces, xp)
    Dr_inv = _const(ref.Dr_inv, xp)
    ref_area = _const(ref.ref_face_area, xp)
    # local_frame_edges
    x0, x1, x2 = _face_corners(v, faces)
    d1 = x1 - x0
    d2 = x2 - x0
    n = xp.cross(d1, d2)
    n_norm = xp.linalg.norm(n, axis=-1)
    l1 = xp.linalg.norm(d1, axis=-1)
    e1 = d1 / l1[..., None]
    n_hat = n / n_norm[..., None]
    e2 = xp.cross(n_hat, e1)
    Dd = xp.zeros(v.shape[:-2] + (faces.shape[0], 2, 2))
    Dd[..., 0, 0] = l1
    Dd[..., 0, 1] = xp.einsum("...a,...a->...", d2, e1)
    Dd[..., 1, 1] = xp.einsum("...a,...a->...", d2, e2)
    F = Dd @ Dr_inv
    # invariants
    G11 = F[..., 0, 0] ** 2 + F[..., 1, 0] ** 2
    G22 = F[..., 0, 1] ** 2 + F[..., 1, 1] ** 2
    detF = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    detG = detF**2
    I1 = G11 + G22 - 2.0
    I2 = detG - 1.0
    # first Piola-Kirchhoff stress
    coef_F = Gs * (I1 + 1.0)
    coef_inv = Gs * (C * I2 - 1.0) * detG
    FinvT = xp.empty_like(F)
    FinvT[..., 0, 0] = F[..., 1, 1]
    FinvT[..., 0, 1] = -F[..., 1, 0]
    FinvT[..., 1, 0] = -F[..., 0, 1]
    FinvT[..., 1, 1] = F[..., 0, 0]
    FinvT /= detF[..., None, None]
    P = coef_F[..., None, None] * F + coef_inv[..., None, None] * FinvT
    dW_dDd = ref_area[..., None, None] * (P @ xp.swapaxes(Dr_inv, -1, -2))
    f1_loc = -dW_dDd[..., :, 0]
    f2_loc = -dW_dDd[..., :, 1]
    f1 = f1_loc[..., 0:1] * e1 + f1_loc[..., 1:2] * e2
    f2 = f2_loc[..., 0:1] * e1 + f2_loc[..., 1:2] * e2
    f0 = -(f1 + f2)
    force = xp.zeros_like(v)
    for contrib, corner in ((f0, 0), (f1, 1), (f2, 2)):
        _scatter_add(force, faces[:, corner], contrib, xp)
    return force


def bending_forces(vertices, quads, theta0, k_bend):
    """Dihedral-spring nodal forces (mirror of membrane.bending.bending_forces)."""
    xp = _xp_of(vertices)
    v = xp.asarray(vertices, dtype=np.float64)
    quads = _const(quads, xp)
    theta0 = _const(theta0, xp)
    x1 = v[..., quads[:, 0], :]
    x2 = v[..., quads[:, 1], :]
    x3 = v[..., quads[:, 2], :]
    x4 = v[..., quads[:, 3], :]
    e = x2 - x1
    nA = xp.cross(x2 - x1, x3 - x1)
    nB = xp.cross(x4 - x1, x2 - x1)
    # dihedral angles
    e_len = xp.linalg.norm(e, axis=-1)
    nA_hat = nA / xp.linalg.norm(nA, axis=-1, keepdims=True)
    nB_hat = nB / xp.linalg.norm(nB, axis=-1, keepdims=True)
    cos_t = xp.einsum("...a,...a->...", nA_hat, nB_hat)
    sin_t = xp.einsum("...a,...a->...", xp.cross(nA_hat, nB_hat), e) / e_len
    theta = xp.arctan2(sin_t, xp.clip(cos_t, -1.0, 1.0))
    # angle gradients
    l2 = xp.einsum("...a,...a->...", e, e)
    l = xp.sqrt(l2)
    nA2 = xp.einsum("...a,...a->...", nA, nA)
    nB2 = xp.einsum("...a,...a->...", nB, nB)
    gA = -(l / nA2)[..., None] * nA
    gB = -(l / nB2)[..., None] * nB
    alpha = (xp.einsum("...a,...a->...", x3 - x1, e) / l2)[..., None]
    beta = (xp.einsum("...a,...a->...", x4 - x1, e) / l2)[..., None]
    g3 = gA
    g4 = gB
    g1 = -(1.0 - alpha) * gA - (1.0 - beta) * gB
    g2 = -alpha * gA - beta * gB
    coeff = (-2.0 * k_bend * (theta - theta0))[..., None]
    force = xp.zeros_like(v)
    for g, col in ((g1, 0), (g2, 1), (g3, 2), (g4, 3)):
        _scatter_add(force, quads[:, col], coeff * g, xp)
    return force


def area_volume_forces(vertices, faces, area0, volume0, k_area, k_volume):
    """Global area/volume penalty forces (mirror of membrane.constraints)."""
    xp = _xp_of(vertices)
    v = xp.asarray(vertices, dtype=np.float64)
    faces = _const(faces, xp)
    force = xp.zeros_like(v)
    if k_area != 0.0:
        x0, x1, x2 = _face_corners(v, faces)
        n = xp.cross(x1 - x0, x2 - x0)
        A = (0.5 * xp.linalg.norm(n, axis=-1)).sum(axis=-1)
        coeff = -k_area * (A - area0) / area0
        n_hat = n / xp.linalg.norm(n, axis=-1, keepdims=True)
        grad = xp.zeros_like(v)
        _scatter_add(grad, faces[:, 0], 0.5 * xp.cross(n_hat, x2 - x1), xp)
        _scatter_add(grad, faces[:, 1], 0.5 * xp.cross(n_hat, x0 - x2), xp)
        _scatter_add(grad, faces[:, 2], 0.5 * xp.cross(n_hat, x1 - x0), xp)
        force += coeff[..., None, None] * grad
    if k_volume != 0.0:
        x0, x1, x2 = _face_corners(v, faces)
        V = xp.einsum("...a,...a->...", xp.cross(x0, x1), x2).sum(axis=-1) / 6.0
        coeff = -k_volume * (V - volume0) / volume0
        grad = xp.zeros_like(v)
        _scatter_add(grad, faces[:, 0], xp.cross(x1, x2) / 6.0, xp)
        _scatter_add(grad, faces[:, 1], xp.cross(x2, x0) / 6.0, xp)
        _scatter_add(grad, faces[:, 2], xp.cross(x0, x1) / 6.0, xp)
        force += coeff[..., None, None] * grad
    return force


def local_area_forces(vertices, faces, ref_face_area, k_local):
    """Per-face area penalty forces (mirror of membrane.localarea)."""
    xp = _xp_of(vertices)
    v = xp.asarray(vertices, dtype=np.float64)
    faces = _const(faces, xp)
    ref_face_area = _const(ref_face_area, xp)
    x0, x1, x2 = _face_corners(v, faces)
    n = xp.cross(x1 - x0, x2 - x0)
    norm = xp.linalg.norm(n, axis=-1, keepdims=True)
    n_hat = n / norm
    A = 0.5 * norm[..., 0]
    coeff = (-k_local * (A - ref_face_area) / ref_face_area)[..., None]
    g0 = 0.5 * xp.cross(n_hat, x2 - x1)
    g1 = 0.5 * xp.cross(n_hat, x0 - x2)
    g2 = 0.5 * xp.cross(n_hat, x1 - x0)
    force = xp.zeros_like(v)
    _scatter_add(force, faces[:, 0], coeff * g0, xp)
    _scatter_add(force, faces[:, 1], coeff * g1, xp)
    _scatter_add(force, faces[:, 2], coeff * g2, xp)
    return force


# ----------------------------------------------------------------------
# FSI kernels
# ----------------------------------------------------------------------
def contact_scatter(vertices, i, j, cutoff, stiffness, out):
    """Contact pair forces + scatter (mirror of fsi.contact.contact_scatter)."""
    xp = _xp_of(vertices)
    n = len(vertices)
    d = vertices[i] - vertices[j]
    r = xp.linalg.norm(d, axis=1)
    r = xp.maximum(r, 1e-12 * cutoff)
    mag = stiffness * (1.0 - r / cutoff)
    fij = (mag / r)[:, None] * d
    idx = xp.concatenate([i, j])
    for axis in range(3):
        w = xp.concatenate([fij[:, axis], -fij[:, axis]])
        out[:, axis] = xp.bincount(idx, weights=w, minlength=n)


def subgrid_query(stored, slot, points, probe, radius):
    """Candidate distance filter (mirror of fsi.subgrid.subgrid_query)."""
    d2 = ((stored[slot] - points[probe]) ** 2).sum(axis=1)
    return d2 <= radius * radius


# ----------------------------------------------------------------------
# IBM kernels
# ----------------------------------------------------------------------
def ibm_interp(field, stencil):
    """Interpolate an Eulerian field at the stencil's markers."""
    xp = _xp_of(field)
    ia = xp.asarray(stencil.idx[0])[:, :, None, None]
    ib = xp.asarray(stencil.idx[1])[:, None, :, None]
    ic = xp.asarray(stencil.idx[2])[:, None, None, :]
    w = xp.asarray(stencil.w)
    if field.ndim == 4:
        vals = field[:, ia, ib, ic]
        return xp.einsum("dnabc,nabc->nd", vals, w)
    vals = field[ia, ib, ic]
    return xp.einsum("nabc,nabc->n", vals, w)


def ibm_spread(values, stencil, out_field, contrib_out=None):
    """Spread marker values onto the Eulerian field, in place.

    ``contrib_out`` (a host scratch hint from :class:`IBMCoupler`) is
    ignored: allocations go through ``xp`` so they live device-side.
    """
    xp = _xp_of(out_field)
    vals = xp.atleast_2d(xp.asarray(values, dtype=np.float64))
    w = xp.asarray(stencil.w)
    flat = xp.asarray(stencil.flat_indices())
    shape = stencil.shape
    size = shape[0] * shape[1] * shape[2]
    if out_field.ndim == 4:
        for d in range(3):
            contrib = w * vals[:, d][:, None, None, None]
            out_field[d] += xp.bincount(
                flat, weights=contrib.reshape(-1), minlength=size
            ).reshape(shape)
    else:
        contrib = w * vals[:, 0][:, None, None, None]
        out_field += xp.bincount(
            flat, weights=contrib.reshape(-1), minlength=size
        ).reshape(shape)


def ibm_spread_contrib(w, values, contrib_out):
    """Weights × marker forces, flattened per component (sharded stage 1)."""
    for d in range(3):
        contrib_out[d] = (w * values[:, d][:, None, None, None]).reshape(-1)


def ibm_spread_scatter(flat, contrib, field_flat, lo, hi):
    """Bincount-reduce spread contributions into one flat node range."""
    xp = _xp_of(field_flat)
    if hi <= lo:
        return
    mask = (flat >= lo) & (flat < hi)
    idx = flat[mask] - lo
    for d in range(3):
        field_flat[d, lo:hi] += xp.bincount(
            idx, weights=contrib[d][mask], minlength=hi - lo
        )


# ----------------------------------------------------------------------
# warmup
# ----------------------------------------------------------------------
def warmup_calls(resolved: str):
    """(kernel name, thunk) pairs touching every kernel with tiny inputs.

    For ``arrayapi:cupy`` the thunks run on device and synchronize, so
    timing them measures the one-time kernel compilation/caching cost;
    on the numpy namespace they are near-free but keep ``repro kernels``
    output uniform across backends.
    """
    from ..ibm.coupling import make_stencil
    from ..membrane.reference import ReferenceState

    xp = _cupy if (resolved == "arrayapi:cupy" and CUPY_AVAILABLE) else np

    def synced(call):
        if xp is np:
            return call

        def run():
            out = call()
            xp.cuda.Stream.null.synchronize()
            return out

        return run

    f = xp.asarray(np.linspace(0.9, 1.1, 19 * 8).reshape(19, 2, 2, 2))
    force = xp.asarray(np.full((3, 2, 2, 2), 1e-6))
    s_out = xp.empty_like(f)
    f_pad = xp.asarray(np.linspace(0.9, 1.1, 19 * 27).reshape(19, 3, 3, 3))
    p_out = xp.zeros((19, 3, 3, 3))

    tv = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    tf = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    ref = ReferenceState.from_mesh(tv, tf)
    verts = xp.asarray(ref.vertices * 1.05)

    pair_i = xp.asarray(np.array([0], dtype=np.int64))
    pair_j = xp.asarray(np.array([1], dtype=np.int64))
    c_out = xp.zeros((4, 3))
    stored = xp.asarray(tv)
    slot = xp.asarray(np.array([0, 1], dtype=np.int64))
    probe = xp.asarray(np.array([0, 0], dtype=np.int64))
    q_pts = xp.asarray(tv[:1])

    stencil = make_stencil(np.array([[1.2, 1.4, 1.6]]), (4, 4, 4))
    field = xp.asarray(np.linspace(0.0, 1.0, 3 * 64).reshape(3, 4, 4, 4))
    spread_field = xp.zeros((3, 4, 4, 4))
    m_vals = xp.asarray(np.ones((1, 3)))
    w_dev = xp.asarray(stencil.w)
    contrib_out = xp.zeros((3, stencil.w.size))
    flat = xp.asarray(stencil.flat_indices())
    contrib = xp.asarray(np.ones((3, stencil.w.size)))
    field_flat = xp.zeros((3, 64))

    calls = [
        ("collide_bgk", lambda: collide_bgk(f, 0.8, force)),
        ("stream_pull", lambda: stream_pull(f, out=s_out)),
        ("stream_pull_padded", lambda: stream_pull_padded(f_pad, p_out)),
        ("skalak_forces", lambda: skalak_forces(verts, ref, 1.0, 10.0)),
        (
            "bending_forces",
            lambda: bending_forces(verts, ref.quads, ref.theta0, 1.0),
        ),
        (
            "area_volume_forces",
            lambda: area_volume_forces(
                verts, ref.faces, ref.area0, ref.volume0, 1.0, 1.0
            ),
        ),
        (
            "local_area_forces",
            lambda: local_area_forces(verts, ref.faces, ref.ref_face_area, 1.0),
        ),
        (
            "contact_scatter",
            lambda: contact_scatter(verts, pair_i, pair_j, 2.0, 1.0, c_out),
        ),
        (
            "subgrid_query",
            lambda: subgrid_query(stored, slot, q_pts, probe, 1.0),
        ),
        ("ibm_interp", lambda: ibm_interp(field, stencil)),
        ("ibm_spread", lambda: ibm_spread(m_vals, stencil, spread_field)),
        (
            "ibm_spread_contrib",
            lambda: ibm_spread_contrib(w_dev, m_vals, contrib_out),
        ),
        (
            "ibm_spread_scatter",
            lambda: ibm_spread_scatter(flat, contrib, field_flat, 0, 64),
        ),
    ]
    return [(name, synced(call)) for name, call in calls]


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
_TABLE = {
    "collide_bgk": collide_bgk,
    "stream_pull": stream_pull,
    "stream_pull_padded": stream_pull_padded,
    "skalak_forces": skalak_forces,
    "bending_forces": bending_forces,
    "area_volume_forces": area_volume_forces,
    "local_area_forces": local_area_forces,
    "contact_scatter": contact_scatter,
    "subgrid_query": subgrid_query,
    "ibm_interp": ibm_interp,
    "ibm_spread": ibm_spread,
    "ibm_spread_contrib": ibm_spread_contrib,
    "ibm_spread_scatter": ibm_spread_scatter,
}


def _cupy_table():  # pragma: no cover - requires a CUDA-capable box
    """Host<->device adapters realizing the residency policy for cupy.

    Callers throughout the repo hold numpy arrays; these wrappers move
    mutating inputs through :class:`DeviceResidency` (persistent device
    allocations, contents refreshed per call), run the xp-generic kernel
    bodies on device, and sync results back only into declared outputs.
    ``scratch`` / ``moments_in`` host caches are dropped — the device
    path recomputes moments on device, which is cheaper than shipping
    them across the bus.
    """
    res = _RESIDENCY

    def up(a):
        return res.upload(a) if isinstance(a, np.ndarray) else a

    def up_tau(tau):
        if np.isscalar(tau) or np.ndim(tau) == 0:
            return tau
        return res.upload(tau)

    def d_collide_bgk(f, tau, force=None, out=None, scratch=None, moments_in=None):
        f_post, rho, u = collide_bgk(
            up(f), up_tau(tau), up(force) if force is not None else None
        )
        if out is not None:
            res.download(f_post, out)
            f_post = out
        else:
            f_post = res.to_host(f_post)
        return f_post, res.to_host(rho), res.to_host(u)

    def d_stream_pull(f_post, out=None):
        dev = stream_pull(up(f_post))
        if out is not None:
            return res.download(dev, out)
        return res.to_host(dev)

    def d_stream_pull_padded(f_post, out):
        dev_out = up(out)
        stream_pull_padded(up(f_post), dev_out)
        return res.download(dev_out, out)

    def d_skalak(vertices, ref, Gs, C):
        return res.to_host(skalak_forces(up(vertices), ref, Gs, C))

    def d_bending(vertices, quads, theta0, k_bend):
        return res.to_host(bending_forces(up(vertices), quads, theta0, k_bend))

    def d_area_volume(vertices, faces, area0, volume0, k_area, k_volume):
        return res.to_host(
            area_volume_forces(up(vertices), faces, area0, volume0, k_area, k_volume)
        )

    def d_local_area(vertices, faces, ref_face_area, k_local):
        return res.to_host(
            local_area_forces(up(vertices), faces, ref_face_area, k_local)
        )

    def d_contact_scatter(vertices, i, j, cutoff, stiffness, out):
        dev_out = up(out)
        contact_scatter(up(vertices), up(i), up(j), cutoff, stiffness, dev_out)
        res.download(dev_out, out)

    def d_subgrid_query(stored, slot, points, probe, radius):
        return res.to_host(
            subgrid_query(up(stored), up(slot), up(points), up(probe), radius)
        )

    def d_ibm_interp(field, stencil):
        return res.to_host(ibm_interp(up(field), stencil))

    def d_ibm_spread(values, stencil, out_field, contrib_out=None):
        dev_field = up(out_field)
        ibm_spread(up(values), stencil, dev_field)
        res.download(dev_field, out_field)

    def d_ibm_spread_contrib(w, values, contrib_out):
        dev_contrib = up(contrib_out)
        ibm_spread_contrib(up(w), up(values), dev_contrib)
        res.download(dev_contrib, contrib_out)

    def d_ibm_spread_scatter(flat, contrib, field_flat, lo, hi):
        dev_field = up(field_flat)
        ibm_spread_scatter(up(flat), up(contrib), dev_field, lo, hi)
        res.download(dev_field, field_flat)

    return {
        "collide_bgk": d_collide_bgk,
        "stream_pull": d_stream_pull,
        "stream_pull_padded": d_stream_pull_padded,
        "skalak_forces": d_skalak,
        "bending_forces": d_bending,
        "area_volume_forces": d_area_volume,
        "local_area_forces": d_local_area,
        "contact_scatter": d_contact_scatter,
        "subgrid_query": d_subgrid_query,
        "ibm_interp": d_ibm_interp,
        "ibm_spread": d_ibm_spread,
        "ibm_spread_contrib": d_ibm_spread_contrib,
        "ibm_spread_scatter": d_ibm_spread_scatter,
    }


from . import register_backend  # noqa: E402  (import cycle: registry first)

register_backend("arrayapi:numpy", _TABLE)
if CUPY_AVAILABLE:  # pragma: no cover - requires a CUDA-capable box
    register_backend("arrayapi:cupy", _cupy_table())
