"""BGK collision with Guo forcing (Eq. 1 of the paper).

The evolution equation implemented here is

    f_i(x + c_i, t + 1) = f_i(x, t) - (1/tau) [f_i - f_i^eq(rho, u)] + S_i

where ``S_i`` is the Guo et al. (2002) forcing source term, the standard
second-order-accurate discretization of the external force field F_i in
Eq. 1.  The macroscopic velocity includes the half-force correction
``u = (sum_i c_i f_i + F/2) / rho`` so that the scheme recovers the forced
Navier-Stokes equations without discrete lattice artifacts.

Moment-space form
-----------------
``f^eq`` is a second-order polynomial in ``u`` and ``S`` is bilinear in
``(u, F)``, so with ``omega = 1/tau`` the whole update is linear in a
handful of per-node monomials:

    f_post = (1 - omega) f + [omega M | (1 - omega/2) G] @ [Phi; Psi]

    Phi = (rho, rho u_a, rho u_a u_a, rho u_a u_b)            10 rows
    Psi = (F_a, u_a F_a, u_a F_b + u_b F_a)                    9 rows

``M`` (19x10) and ``G`` (19x9) depend only on ``D3Q19.c``/``w``
(:func:`moment_operators`); ``f^eq`` alone is ``M @ Phi``
(:func:`equilibrium`).  :func:`collide_bgk` builds the ``N``-sized
monomial rows :data:`PANEL` columns at a time, forms ``(1 - omega) f``
in ``out``, and adds the panel's GEMM to it, instead of walking
``(19, N)`` arrays once per elementary operation.  The density and
momentum are one more GEMM, ``[1; c^T] @ f`` (:func:`moments`), formed
in the same panel pass, so ``f`` is read once per collide.

Fixed-width panels
------------------
BLAS rounds a column differently depending on how many columns the call
has (tail columns take another micro-kernel), so ``A @ X[:, a:b]`` is
*not* the same numbers as ``(A @ X)[:, a:b]``.  Every lattice GEMM here
— the collide operator, the moment sums (in the collide, :func:`moments`
and :func:`density`) and the equilibrium — is therefore one BLAS call
per :data:`GEMM_COLS`-wide column block of the flattened lattice, the
last block zero-padded.  Each call has the identical shape, a column's
result does not depend on its position inside the block, and so a
node's result cannot depend on the shape of the lattice, block or slab
it sits in: a decomposed lattice stays bitwise equal to the single grid.
A panel's full blocks go to ``np.matmul`` in one call, as stacked
``(k, rows, GEMM_COLS)`` strided views (:func:`_matmul_panel`): the same
GEMM per block, one NumPy call per panel.  :data:`PANEL` is a multiple
of :data:`GEMM_COLS` and moves only the speed, never a result.

Exact-zero rules
----------------
Two terms of the update are skipped where they are exactly zero; extra
zero terms do not change a sum, so neither rule is visible in the
results.  A stretch of nodes whose force is identically zero multiplies
by the 19x10 ``omega M`` alone.  A scalar ``tau`` that makes ``omega``
exactly 1 has ``(1 - omega) f = 0``, and that whole relaxation pass is
left out.

Two halves
----------
A lattice pass of at least ``halves.SPLIT_PANELS`` panels — the collide,
the moment GEMM, the Guo velocity and the force reset — runs as two
halves split at a :data:`GEMM_COLS` boundary, the second on a helper
thread (:mod:`repro.lbm.halves`), so the halves stay balanced at any
panel width.  Each half walks its own panels through the same calls, in
its own panel rows, and allocates nothing, so a column's result is the
same bits split or inline.  Packing strided views and copying ``out``
back happen on the calling thread, before and after the split.

Allocation discipline
---------------------
The collide holds nothing lattice-sized between calls.  Its density
and momentum are formed panel by panel, just before the monomials,
unless the caller hands over cached ones (``moments_in``; only a lattice
whose moments have a second reader keeps a cache, see
:meth:`repro.lbm.grid.Grid.moments`).  The panel-sized rest is 38 rows
per process, dtype and half, shared by every lattice
(:func:`_panel_buffers`): 19 monomial rows and 19 product rows, the
panel's moments, velocity, density floor and ``Psi`` scratch living in
the product rows until its GEMM overwrites them, and a moment GEMM's
zero-padded ragged tail in the monomial rows before they are formed.
Nothing ``(19, N)``-sized is allocated besides ``f`` and ``out``
themselves.  With ``scratch`` and ``out`` supplied the collide
allocates nothing (the 19x19 operators are cached per dtype and
``omega``); without them it allocates what it returns plus a throw-away
scratch — same values either way.  Strided slab views are packed into
contiguous buffers the scratch keeps per slab shape.  :func:`density`
forms ``rho`` alone through the same panels, for a reader that needs
nothing else.  :func:`equilibrium` evaluates ``M @ Phi`` with the same
monomials and blocks, in the inline panel rows, and allocates nothing
besides what it returns.
"""

from __future__ import annotations

import functools

import numpy as np

from .halves import run_halves, split_column
from .lattice import D3Q19

#: Lattice velocity matrix as floats, laid out for BLAS matmul.
_C = np.ascontiguousarray(D3Q19.c.astype(np.float64))        # (Q, 3)
#: Moment operator ``[1; c^T]`` (4, Q): row 0 gives the density, rows
#: 1-3 the momentum.  The all-ones row adds each population exactly and
#: in population order, the order ``np.sum(f, axis=0)`` uses.
_MOMENTS = np.ascontiguousarray(
    np.vstack([np.ones(D3Q19.Q), D3Q19.c.T]).astype(np.float64)
)

#: Per-compute-dtype copies of ``[1; c^T]`` (mixed-dtype matmuls would
#: silently upcast every float32 moment sum back to float64).
_MOMENTS_BY_DTYPE: dict[np.dtype, np.ndarray] = {np.dtype(np.float64): _MOMENTS}

#: Columns of every lattice GEMM call (see "Fixed-width panels").
#: Results do not depend on the value, only speed does: 19 x 19 x 2048
#: multiply-adds is under the size (~1e6) at which OpenBLAS hands a GEMM
#: to its thread pool.  Waking a BLAS worker that has gone to sleep cost
#: 14-16 ms per call on the 2-CPU reference VM — more than the whole
#: collide of a small lattice.  A large pass gets its second CPU from
#: the two halves (see "Two halves"), not from OpenBLAS's pool.
GEMM_COLS = 2048

#: Columns a lattice pass works on at a time: the panel's elementwise
#: passes are this long and its GEMM blocks go to BLAS in one batched
#: call, so a half hands over the GIL once per call of this width.  Its
#: 38 rows (:func:`_panel_buffers`) are 3.7 MB per half in float64.
#: From ``benchmarks/lattice_halves.py --widths`` (docs/performance.md):
#: the split 64^3 step read 13.3 ms here against 15.4 ms at 4,096
#: columns; 16,384 read no better and costs 1.2 MB more per half.  A
#: multiple of :data:`GEMM_COLS`.
PANEL = 6 * GEMM_COLS

#: Row counts of the monomial blocks ``Phi`` and ``[Phi; Psi]``.
_N_PHI = 10
_N_MONOMIALS = 19

#: Index pairs of the off-diagonal second-order monomials, in row order.
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _moments_operator(dtype) -> np.ndarray:
    """``[1; c^T]`` in the requested compute dtype."""
    dt = np.dtype(dtype)
    op = _MOMENTS_BY_DTYPE.get(dt)
    if op is None:
        op = _MOMENTS_BY_DTYPE[dt] = np.ascontiguousarray(_MOMENTS.astype(dt))
    return op


def moment_operators() -> tuple[np.ndarray, np.ndarray]:
    """The constant matrices ``M`` (19x10) and ``G`` (19x9), float64.

    Expanding ``f_i^eq = w_i rho [1 + c.u/cs2 + (c.u)^2/(2 cs4) -
    u.u/(2 cs2)]`` in the monomials ``Phi`` gives

        M[i] = w_i (1,  c_ia/cs2,  (c_ia^2 - cs2)/(2 cs4),  c_ia c_ib/cs4)

    and the Guo source ``S_i = w_i [(c_i - u)/cs2 + (c_i.u) c_i/cs4] . F``
    in the monomials ``Psi`` gives

        G[i] = w_i (c_ia/cs2,  (c_ia^2 - cs2)/cs4,  c_ia c_ib/cs4)

    with ``a`` over the three axes and ``(a, b)`` over :data:`_PAIRS`.
    """
    c, w, cs2 = _C, D3Q19.w, D3Q19.cs2
    cross = np.stack([c[:, a] * c[:, b] for a, b in _PAIRS], axis=1)
    m = np.hstack([
        np.ones((D3Q19.Q, 1)), c / cs2, (c * c - cs2) / (2.0 * cs2**2),
        cross / cs2**2,
    ])
    g = np.hstack([c / cs2, (c * c - cs2) / cs2**2, cross / cs2**2])
    return w[:, None] * m, w[:, None] * g


_M, _G = moment_operators()


def _rho_floor(dtype) -> float:
    """Density floor guarding the velocity division, per compute dtype."""
    if dtype == np.float64:
        return 1e-300
    return float(np.finfo(dtype).tiny)


def _is_field(tau) -> bool:
    return not (np.isscalar(tau) or np.ndim(tau) == 0)


@functools.lru_cache(maxsize=None)
def _panel_buffers(dtype: np.dtype, half: int) -> tuple[np.ndarray, np.ndarray]:
    """The process's :data:`PANEL`-wide buffers in ``dtype`` for one half
    of a pass (0 inline or on the calling thread, 1 on the helper): the
    19 monomial rows and the 19 product rows.

    The product rows hold a panel's scratch until the collide GEMM
    overwrites them: its moments (rows 0-3), velocity (4-6), floored
    density (7) and the ``Psi`` scratch row (8).  The monomial rows are
    also the zero-padded copy of a moment GEMM's ragged tail, before the
    monomials are formed.  Every pass writes each panel column before it
    reads it, and no pass is in flight while another runs (the lattices
    of a process step one after the other; a process pool's workers each
    have their own), so every lattice of a dtype shares them; the two
    halves of a split pass each use their own.
    """
    return (
        np.empty((_N_MONOMIALS, PANEL), dtype=dtype),
        np.empty((D3Q19.Q, PANEL), dtype=dtype),
    )


class CollisionScratch:
    """Preallocated temporaries for the collide hot path.

    One instance per :class:`~repro.lbm.grid.Grid` shape; handing it to
    :func:`collide_bgk` removes every lattice-sized allocation from the
    collision step.  ``dtype`` matches the grid's compute dtype.  The
    collide itself keeps nothing lattice-sized here but the packed copies
    of strided views: its moments, velocity, density floor and monomials
    live in :data:`PANEL`-wide rows that all lattices of a dtype share
    (:func:`_panel_buffers`).  Cached moments handed over as
    ``moments_in`` belong to their lattice
    (:meth:`~repro.lbm.grid.Grid.moments`), not to the scratch.
    """

    def __init__(self, shape: tuple[int, int, int], dtype=np.float64):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._packed: dict[str, np.ndarray] = {}

    def packed(self, name: str, a):
        """Contiguous buffer shaped like the strided view ``a``, kept per name."""
        buf = self._packed.get(name)
        if buf is None:
            buf = self._packed[name] = np.empty(a.shape, dtype=self.dtype)
        return buf


def _by_panels(n: int, body) -> None:
    """``body(half, lo, hi)`` for each :data:`PANEL`-wide column range of
    ``[0, n)``, the last one of each half ragged: in one walk, or in two
    halves split at a :data:`GEMM_COLS` boundary (see "Two halves")."""

    def walk(half, start, stop):
        for lo in range(start, stop, PANEL):
            body(half, lo, min(lo + PANEL, stop))

    mid = split_column(n, PANEL, GEMM_COLS)
    if mid is None:
        walk(0, 0, n)
    else:
        run_halves(lambda: walk(0, 0, mid), lambda: walk(1, mid, n))


def _blocks(a: np.ndarray) -> np.ndarray:
    """The ``(r, k * GEMM_COLS)`` columns ``a`` (unit column stride) as
    the stacked ``(k, r, GEMM_COLS)`` view of its column blocks.  Cutting
    the unit-stride axis is always a view, so a write lands in ``a``."""
    r, n = a.shape
    return a.reshape(r, n // GEMM_COLS, GEMM_COLS).transpose(1, 0, 2)


def _matmul_panel(a, x, out, pad) -> None:
    """``out[:, :n] = a @ x`` for an ``x`` of ``n`` columns with unit
    column stride, one :data:`GEMM_COLS`-wide BLAS call per block.

    The full blocks go to ``np.matmul`` at once, as stacked strided
    views: the same GEMM call for each block as one by one.  A ragged
    tail is copied into ``pad`` (at least ``x``'s rows and
    :data:`GEMM_COLS` columns) and zero-padded, so that it is the same
    call; then ``out`` has ``n`` rounded up to :data:`GEMM_COLS` columns.
    """
    n = x.shape[1]
    full = n - n % GEMM_COLS
    if full:
        np.matmul(a, _blocks(x[:, :full]), out=_blocks(out[:, :full]))
    if full < n:
        pad = pad[:x.shape[0], :GEMM_COLS]
        pad[:, :n - full] = x[:, full:]
        pad[:, n - full:] = 0.0
        np.matmul(a, pad, out=out[:, full:full + GEMM_COLS])


def _panel_moments(f2, lo, hi, half) -> np.ndarray:
    """``[1; c^T] @ f2[:, lo:hi]`` for one :data:`PANEL` of ``(19, N)``
    columns, into the first rows of the half's product rows: the
    ``(4, hi - lo)`` moments.  Overwrites the monomial rows."""
    monomials, product = _panel_buffers(f2.dtype, half)
    _matmul_panel(_moments_operator(f2.dtype), f2[:, lo:hi], product[:4],
                  monomials)
    return product[:4, :hi - lo]


def _moment_rows(f: np.ndarray, out2: np.ndarray) -> None:
    """The first ``k`` rows of ``[1; c^T] @ f`` into the ``(k, N)`` node
    columns ``out2``, panel by panel."""
    f2 = np.ascontiguousarray(f).reshape(D3Q19.Q, -1)
    k = out2.shape[0]

    def panel(half, lo, hi):
        if k == 4:
            # the full blocks' GEMMs land in ``out2`` directly
            full = lo + (hi - lo) // GEMM_COLS * GEMM_COLS
            _matmul_panel(_moments_operator(f2.dtype), f2[:, lo:full],
                          out2[:, lo:full], None)
            lo = full
        if lo < hi:
            out2[:, lo:hi] = _panel_moments(f2, lo, hi, half)[:k]

    _by_panels(f2.shape[1], panel)


def flat_columns(a: np.ndarray) -> np.ndarray:
    """``(C,) + shape`` array as a ``(C, N)`` *view*, so that writes
    through flat node indices land in ``a`` itself."""
    if not a.flags.c_contiguous:
        raise ValueError("flat node indexing needs a C-contiguous array")
    return a.reshape(a.shape[0], -1)


def take_columns(a: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``a[:, nodes]`` for a C-contiguous ``(C,) + shape`` array and flat
    node indices ``nodes`` (any shape): ``(C,) + nodes.shape``.

    Copied one channel row at a time (``np.take`` along the node axis)
    rather than node by node, which would touch ``C`` far-apart cache
    lines per node.
    """
    return np.take(flat_columns(a), nodes, axis=1)


def put_columns(a: np.ndarray, nodes: np.ndarray, values: np.ndarray) -> None:
    """``a[:, nodes] = values`` for a C-contiguous ``(C,) + shape`` array,
    one channel row at a time (see :func:`take_columns`)."""
    for row, row_values in zip(flat_columns(a), values):
        row[nodes] = row_values


def moments(
    f: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Density and bare momentum (no force shift) of the distributions.

    One ``[1; c^T] @ f`` GEMM over fixed-width column panels, so ``f`` is
    read once and a node's moments do not depend on the shape of ``f``
    (or on whether ``f`` is a lattice or a gathered ``(19, G)`` block).
    ``out`` is a C-contiguous ``(4,) + f.shape[1:]`` buffer; the return
    value is its rows ``(out[0], out[1:])``.
    """
    if out is None:
        out = np.empty((4,) + f.shape[1:], dtype=f.dtype)
    _moment_rows(f, out.reshape(4, -1))
    return out[0], out[1:]


def density(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Density alone: bit for bit ``moments(f)[0]``, from the same GEMM
    calls, without the ``(4,) + f.shape[1:]`` rows.  ``out`` is a
    C-contiguous ``f.shape[1:]`` buffer."""
    if out is None:
        out = np.empty(f.shape[1:], dtype=f.dtype)
    _moment_rows(f, out.reshape(1, -1))
    return out


def patch_moments(
    out: np.ndarray, nodes: np.ndarray, columns: np.ndarray
) -> None:
    """Recompute the ``(4,) + shape`` :func:`moments` rows ``out`` in
    place at flat node indices ``nodes``, from the ``(19, G)`` ``columns``
    ``f`` holds there.

    Bitwise equal to what :func:`moments` writes there: the columns go
    through the same fixed-width GEMM as a ``(19, G)`` block.
    """
    block = np.empty((4,) + columns.shape[1:], dtype=columns.dtype)
    moments(columns, out=block)
    put_columns(out, nodes, block)


def velocity_from_moments(
    rho: np.ndarray,
    mom: np.ndarray,
    force: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Velocity ``u = (mom + F/2) / rho`` with the Guo half-force shift.

    ``mom`` is preserved unless passed as ``out`` as well; ``force``
    likewise, so ``out=force`` forms the velocity in the force field's
    own memory.  ``out`` is C-contiguous.  The sum and the quotient by
    the floored density ``max(rho, floor)`` are formed one :data:`PANEL`
    at a time, the floor and ``F/2`` in the panel rows, never
    lattice-wide, and from the split threshold in two halves; the
    quotients are the same bits.
    """
    if out is None:
        out = np.empty(mom.shape, dtype=mom.dtype)
    out2 = flat_columns(out)
    mom2 = None if mom is out else np.broadcast_to(mom, out.shape).reshape(
        out2.shape)
    force2 = None if force is None else np.broadcast_to(
        force, out.shape).reshape(out2.shape)
    rho1 = np.broadcast_to(rho, out.shape[1:]).reshape(-1)
    floor = _rho_floor(rho.dtype)

    def panel(half, lo, hi):
        o = out2[:, lo:hi]
        if force2 is not None and mom2 is None:
            half_force = _panel_buffers(force2.dtype, half)[1][1:4, :hi - lo]
            np.multiply(force2[:, lo:hi], 0.5, out=half_force)
            np.add(o, half_force, out=o)
        elif force2 is not None:
            np.multiply(force2[:, lo:hi], 0.5, out=o)
            np.add(o, mom2[:, lo:hi], out=o)
        elif mom2 is not None:
            o[...] = mom2[:, lo:hi]
        den = _panel_buffers(rho.dtype, half)[1][0, :hi - lo]
        np.maximum(rho1[lo:hi], floor, out=den)
        np.divide(o, den, out=o)

    _by_panels(rho1.size, panel)
    return out


def fill_columns(a: np.ndarray, column: np.ndarray) -> None:
    """``a[:, node] = column`` at every node of a C-contiguous
    ``(C,) + shape`` array, one :data:`PANEL` at a time and from the
    split threshold in two halves."""
    a2 = flat_columns(a)
    column = np.asarray(column, dtype=a.dtype)[:, None]

    def panel(half, lo, hi):
        a2[:, lo:hi] = column

    _by_panels(a2.shape[1], panel)


def macroscopic(
    f: np.ndarray, force: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Density and velocity moments of the distributions.

    Parameters
    ----------
    f:
        Distributions, shape (19, nx, ny, nz).
    force:
        Optional body-force density (3, nx, ny, nz); when present the
        velocity gets the Guo half-force shift.

    Returns
    -------
    rho : (nx, ny, nz)
    u : (3, nx, ny, nz)
    """
    rho, mom = moments(f)
    u = velocity_from_moments(rho, mom, force, out=mom)
    return rho, u


def _node_columns(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``a`` broadcast to ``(k,) + shape`` as ``(k, N)`` node columns, or
    as one ``(k, 1)`` column when it is the same at every node; copied
    only when neither view exists."""
    k = a.shape[0]
    if a.shape[1:] != shape:
        a = np.broadcast_to(a, (k,) + shape)
    if not any(a.strides[1:]):
        return a[(slice(None),) + (0,) * (a.ndim - 1)][:, None]
    return np.ascontiguousarray(a).reshape(k, -1)


def equilibrium(
    rho: float | np.ndarray, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Maxwell-Boltzmann equilibrium distribution f_i^eq(rho, u).

    Second-order expansion in the lattice velocity,
    f_i^eq = w_i rho [1 + cu/cs2 + cu^2/(2 cs4) - u.u/(2 cs2)], evaluated
    as ``M @ Phi`` with the collide's own operator and monomials (see the
    module docstring) over fixed-width :data:`GEMM_COLS` panels, so a
    node's f^eq does not depend on the shape it is evaluated in, and
    ``collide_bgk(f, 1.0)`` without a force is bit for bit
    ``equilibrium(rho, mom / rho)``.

    ``rho`` is a scalar or a field and ``u`` is ``(3,) + shape``; both may
    be broadcasts (a node-constant ``u`` is read as one column).  The
    result has shape ``(19,) + broadcast(rho, u[0])`` in ``u``'s dtype;
    ``out`` receives it instead of a new array.
    """
    u = np.asarray(u)
    shape = np.broadcast_shapes(np.shape(rho), u.shape[1:])
    dtype = np.result_type(u.dtype, np.float32)
    if out is None:
        out = np.empty((D3Q19.Q,) + shape, dtype=dtype)
    out2 = out.reshape(D3Q19.Q, -1)
    # reshape copies an ``out`` with no (19, N) view: fill that, copy back
    copied = not np.may_share_memory(out2, out)
    n = out2.shape[1]
    if n == 0:
        return out
    rho2 = _node_columns(np.asarray(rho)[None], shape)
    u2 = _node_columns(u, shape)
    op = _operators(dtype)[0]
    monomials, product = _panel_buffers(dtype, 0)

    # GEMM windows: full GEMM_COLS-wide blocks, and for a ragged end the
    # last GEMM_COLS columns again (a column's value does not depend on
    # its place in the window, so the overlap is rewritten unchanged).
    # Fewer columns than one window go through a zero-padded one.
    small = n < GEMM_COLS
    if small:
        monomials[:_N_PHI, n:GEMM_COLS] = 0.0
    for lo in range(0, n, PANEL):
        hi = min(lo + PANEL, n)
        # a ragged end's window reaches back into the last panel
        start = lo if small or hi - lo >= GEMM_COLS else hi - GEMM_COLS
        x = monomials[:_N_PHI, :hi - start]
        r = rho2[:, start:hi] if rho2.shape[1] > 1 else rho2
        v = u2[:, start:hi] if u2.shape[1] > 1 else u2
        x[0] = r[0]
        np.multiply(v, r, out=x[1:4])
        np.multiply(x[1:4], v, out=x[4:7])
        for row, (a, b) in enumerate(_PAIRS, start=7):
            np.multiply(x[1 + a], v[b], out=x[row])
        if small:
            np.matmul(op, monomials[:_N_PHI, :GEMM_COLS],
                      out=product[:, :GEMM_COLS])
            out2[:] = product[:, :n]
            break
        full = (hi - start) // GEMM_COLS * GEMM_COLS
        _matmul_panel(op, x[:, :full], out2[:, start:start + full], None)
        if start + full < hi:
            np.matmul(op, x[:, hi - start - GEMM_COLS:],
                      out=out2[:, hi - GEMM_COLS:hi])
    if copied:
        out[...] = out2.reshape(out.shape)
    return out


@functools.lru_cache(maxsize=64)
def _operators(dtype, omega: float = 1.0, guo: float = 1.0):
    """``omega M`` (19x10) and ``[omega M | guo G]`` (19x19) in ``dtype``,
    read-only (cached)."""
    full = np.hstack([omega * _M, guo * _G]).astype(dtype)
    phi = np.ascontiguousarray(full[:, :_N_PHI])
    full.flags.writeable = phi.flags.writeable = False
    return phi, full


def collide_bgk(
    f: np.ndarray,
    tau: float | np.ndarray,
    force: np.ndarray | None = None,
    out: np.ndarray | None = None,
    scratch: CollisionScratch | None = None,
    moments_in: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """One BGK collision step, in moment space (see the module docstring).

    ``tau`` may be a scalar or a per-node (nx, ny, nz) field — the latter
    realizes a spatially varying kinematic viscosity, which the coarse
    bulk lattice uses to represent the effective-viscosity map (whole
    blood outside the window region, the window fluid inside it).  A
    scalar ``tau`` is folded into the operator (at ``tau == 1`` the
    ``(1 - omega) f`` term is exactly zero and is not formed); a field
    scales the monomial rows and the ``(1 - omega)`` factor node by node.

    ``scratch`` supplies preallocated temporaries (no lattice-sized
    allocation when both ``scratch`` and ``out`` are given);
    ``moments_in`` lets the caller hand over cached post-stream
    ``(rho, mom)`` of ``f``.  Without it each panel forms its own from
    the ``f`` columns it is about to relax, with the GEMM calls of
    :func:`moments` (the same bits), so ``f`` is read once.  ``f``,
    ``out``, ``force``, ``tau`` and ``moments_in`` may be strided slab
    views.

    Returns the post-collision distributions (``out`` when given).  The
    pre-collision ``rho, u`` it relaxes towards are
    :func:`macroscopic` ``(f, force)``.
    """
    q = D3Q19.Q
    if scratch is None:
        scratch = CollisionScratch(f.shape[1:], dtype=f.dtype)
    if out is None:
        out = np.empty(f.shape, dtype=f.dtype)

    def rows(name, a, lead):
        if not a.flags.c_contiguous:
            buf = scratch.packed(name, a)
            buf[...] = a
            a = buf
        return a.reshape(lead, -1)

    f2 = rows("f", f, q)
    rho2 = mom2 = None
    if moments_in is not None:
        rho2 = rows("rho", moments_in[0], 1)[0]
        mom2 = rows("mom", moments_in[1], 3)
    force2 = None if force is None else rows("force", force, 3)
    packed_out = None if out.flags.c_contiguous else scratch.packed("out", out)
    out2 = (out if packed_out is None else packed_out).reshape(q, -1)

    tau_field = _is_field(tau)
    if tau_field:
        tau2 = rows("tau", tau, 1)[0]
        op_phi, op_full = _operators(f.dtype)
        relax = True
    else:
        omega = 1.0 / float(tau)
        keep = 1.0 - omega
        op_phi, op_full = _operators(f.dtype, omega, 1.0 - 0.5 * omega)
        # (1 - omega) f is exactly zero at omega == 1: not formed at all
        relax = keep != 0.0

    floor = _rho_floor(f.dtype)

    def panel(half, lo, hi):
        monomials, product = _panel_buffers(f.dtype, half)
        sl = slice(lo, hi)
        w = hi - lo
        if rho2 is None:
            # in the product rows, free until the collide GEMM
            rm = _panel_moments(f2, lo, hi, half)
            r, m = rm[0], rm[1:]
        else:
            r, m = rho2[sl], mom2[:, sl]
        # columns the GEMM blocks cover: w rounded up, the excess zeroed
        padded = -(-w // GEMM_COLS) * GEMM_COLS
        monomials[:, w:padded] = 0.0
        x = monomials[:, :w]
        u, d, t = product[4:7, :w], product[7, :w], product[8, :w]
        fp = None
        if force2 is not None and bool(force2[:, sl].any()):
            fp = force2[:, sl]

        np.maximum(r, floor, out=d)
        if fp is None:
            np.divide(m, d, out=u)
        else:
            np.multiply(fp, 0.5, out=u)
            np.add(u, m, out=u)
            np.divide(u, d, out=u)

        x[0] = r
        np.multiply(u, r, out=x[1:4])
        np.multiply(x[1:4], u, out=x[4:7])
        for row, (a, b) in enumerate(_PAIRS, start=7):
            np.multiply(x[1 + a], u[b], out=x[row])
        if fp is not None:
            psi = x[_N_PHI:]
            psi[0:3] = fp
            np.multiply(u, fp, out=psi[3:6])
            for row, (a, b) in enumerate(_PAIRS, start=6):
                np.multiply(u[a], fp[b], out=psi[row])
                np.multiply(u[b], fp[a], out=t)
                np.add(psi[row], t, out=psi[row])

        if tau_field:
            # d is free again: it carries omega, then (1 - omega).
            np.divide(1.0, tau2[sl], out=d)
            np.multiply(x[:_N_PHI], d, out=x[:_N_PHI])
            if fp is not None:
                np.multiply(d, -0.5, out=t)
                np.add(t, 1.0, out=t)
                np.multiply(psi, t, out=psi)
            np.subtract(1.0, d, out=d)

        op = op_phi if fp is None else op_full
        x_rows = monomials[:op.shape[1]]
        if relax:
            # (1 - omega) f into ``out`` first, so that ``out`` may alias
            # ``f``; the GEMM overwrites the product rows, then is added.
            np.multiply(f2[:, sl], d if tau_field else keep, out=out2[:, sl])
            _matmul_panel(op, x_rows[:, :padded], product, None)
            np.add(out2[:, sl], product[:, :w], out=out2[:, sl])
        else:
            # the full blocks' GEMMs land in ``out`` directly
            full = w - w % GEMM_COLS
            _matmul_panel(op, x_rows[:, :full], out2[:, lo:lo + full], None)
            if full < w:
                _matmul_panel(op, x_rows[:, full:padded], product, None)
                out2[:, lo + full:hi] = product[:, :w - full]

    _by_panels(f2.shape[1], panel)

    if packed_out is not None:
        out[...] = packed_out
    return out
