"""Halo exchange correctness and accounting."""

import numpy as np

from repro.lbm.lattice import D3Q19
from repro.parallel import (
    PACKED_QS,
    BlockDecomposition,
    HaloAccountant,
    fill_rank_halo,
)


def _exchange(h, locals_, ranks=None):
    """Fill every rank's halo (in ``ranks`` order), folding the traffic
    into ``h`` — what the executors do rank-parallel each step."""
    transfers = []
    for rank in range(len(locals_)) if ranks is None else ranks:
        transfers.extend(fill_rank_halo(rank, locals_, h.decomp))
    h.record(transfers)


def _padded_locals(decomp):
    """Per-rank padded 19-channel arrays whose interiors hold rank + 1."""
    locals_ = []
    for r in range(decomp.n_tasks):
        lx, ly, lz = decomp.local_shape(r)
        arr = np.zeros((D3Q19.Q, lx + 2, ly + 2, lz + 2))
        arr[:, 1:-1, 1:-1, 1:-1] = float(r + 1)
        locals_.append(arr)
    return locals_


def _inbound(off):
    """Channels the fill ships into the halo slab at offset ``off``."""
    return list(PACKED_QS[off])


def test_face_halos_carry_neighbor_values():
    d = BlockDecomposition((8, 4, 4), 2)  # split along x
    h = HaloAccountant(d)
    locals_ = _padded_locals(d)
    _exchange(h, locals_)
    # Rank 0's high-x halo should hold rank 1's value and vice versa.
    hi, lo = _inbound((1, 0, 0)), _inbound((-1, 0, 0))
    assert np.all(locals_[0][hi, -1, 1:-1, 1:-1] == 2.0)
    assert np.all(locals_[1][hi, -1, 1:-1, 1:-1] == 1.0)  # periodic wrap
    assert np.all(locals_[0][lo, 0, 1:-1, 1:-1] == 2.0)


def test_self_wrap_on_unsplit_axis():
    d = BlockDecomposition((8, 4, 4), 2)
    h = HaloAccountant(d)
    locals_ = _padded_locals(d)
    _exchange(h, locals_)
    # y axis unsplit: halo wraps to the rank's own data.
    assert np.all(locals_[0][_inbound((0, -1, 0)), 1:-1, 0, 1:-1] == 1.0)
    assert np.all(locals_[0][_inbound((0, 1, 0)), 1:-1, -1, 1:-1] == 1.0)


def test_edge_halos_filled():
    d = BlockDecomposition((8, 8, 4), 4)  # 2x2 in x, y
    h = HaloAccountant(d)
    locals_ = _padded_locals(d)
    _exchange(h, locals_)
    # The (+x, +y) edge halo of rank 0 must hold the diagonal neighbor.
    diag = d.neighbor(0, (1, 1, 0))
    assert np.all(
        locals_[0][_inbound((1, 1, 0)), -1, -1, 1:-1] == float(diag + 1)
    )


def test_counters_exclude_self_wrap():
    d = BlockDecomposition((8, 4, 4), 2)
    h = HaloAccountant(d)
    _exchange(h, _padded_locals(d))
    # Only x-direction transfers count; pure y/z wraps are local copies.
    for rank, nbytes in h.counters.by_rank.items():
        assert nbytes > 0
    assert h.counters.messages > 0
    single = BlockDecomposition((8, 4, 4), 1)
    h1 = HaloAccountant(single)
    _exchange(h1, _padded_locals(single))
    assert h1.counters.bytes_sent == 0


def test_reset_counters():
    d = BlockDecomposition((8, 4, 4), 2)
    h = HaloAccountant(d)
    _exchange(h, _padded_locals(d))
    assert h.counters.bytes_sent > 0
    h.reset()
    assert h.counters.bytes_sent == 0
    assert h.counters.messages == 0


def test_reset_and_last_exchange_deltas():
    d = BlockDecomposition((8, 4, 4), 2)
    h = HaloAccountant(d)
    _exchange(h, _padded_locals(d))
    first_bytes = h.counters.bytes_sent
    assert h.last_exchange_bytes == first_bytes
    assert h.last_exchange_messages == h.counters.messages
    _exchange(h, _padded_locals(d))
    # Cumulative doubles; the per-exchange delta stays at one exchange.
    assert h.counters.bytes_sent == 2 * first_bytes
    assert h.last_exchange_bytes == first_bytes
    h.reset()
    assert h.counters.bytes_sent == 0
    assert h.last_exchange_bytes == 0
    assert h.last_exchange_messages == 0


def test_fill_rank_halo_matches_exchange():
    """The per-rank fill (run rank-parallel by the executors) does not
    depend on rank order: filling the ranks in reverse performs the same
    copies and reports the same traffic as filling them in order."""
    d = BlockDecomposition((8, 8, 4), 4)
    in_order = _padded_q_locals(d)
    ref = HaloAccountant(d)
    _exchange(ref, in_order)
    reversed_ = _padded_q_locals(d)
    h = HaloAccountant(d)
    _exchange(h, reversed_, ranks=reversed(range(d.n_tasks)))
    for a, b in zip(in_order, reversed_):
        assert np.array_equal(a, b)
    assert h.counters.bytes_sent == ref.counters.bytes_sent
    assert h.counters.messages == ref.counters.messages
    assert h.counters.by_rank == ref.counters.by_rank


def test_bytes_proportional_to_face_area():
    small = BlockDecomposition((8, 4, 4), 2)
    big = BlockDecomposition((8, 8, 8), 2)
    hs, hb = HaloAccountant(small), HaloAccountant(big)
    _exchange(hs, _padded_locals(small))
    _exchange(hb, _padded_locals(big))
    # Face payloads grow 4x (4x4 -> 8x8) while edge payloads grow 2x,
    # so the combined ratio sits between the two.
    ratio = hb.counters.bytes_sent / hs.counters.bytes_sent
    assert 2.5 <= ratio <= 4.0


# ----------------------------------------------------------------------
# Direction-aware packed exchange


def _padded_q_locals(decomp, Q=19, seed=3):
    """Per-rank padded 19-channel arrays with distinct random interiors."""
    rng = np.random.default_rng(seed)
    locals_ = []
    for r in range(decomp.n_tasks):
        lx, ly, lz = decomp.local_shape(r)
        arr = np.zeros((Q, lx + 2, ly + 2, lz + 2))
        arr[:, 1:-1, 1:-1, 1:-1] = rng.random((Q, lx, ly, lz))
        locals_.append(arr)
    return locals_


def test_packed_qs_cover_all_populations():
    covered = set()
    for qs in PACKED_QS.values():
        covered.update(qs)
    # every moving population rides exactly one face offset plus its edges
    assert covered == set(range(1, D3Q19.Q))
    face_qs = [
        qs for off, qs in PACKED_QS.items()
        if sum(1 for o in off if o) == 1
    ]
    assert sorted(len(qs) for qs in face_qs) == [5] * 6


def test_packed_exchange_fills_what_pull_stream_reads():
    """The fill only ships the populations whose velocity points into
    the receiver; on those channels the filled halo is bitwise the
    periodic wrap of the global lattice (a full rim)."""
    d = BlockDecomposition((8, 8, 4), 4)
    rng = np.random.default_rng(3)
    glob = rng.random((D3Q19.Q,) + d.shape)
    full = np.pad(glob, ((0, 0), (1, 1), (1, 1), (1, 1)), mode="wrap")
    packed = []
    for r in range(d.n_tasks):
        b = d.block(r)
        arr = np.zeros((D3Q19.Q,) + tuple(n + 2 for n in d.local_shape(r)))
        arr[:, 1:-1, 1:-1, 1:-1] = glob[
            :, b.lo[0]:b.hi[0], b.lo[1]:b.hi[1], b.lo[2]:b.hi[2]
        ]
        packed.append(arr)
    _exchange(HaloAccountant(d), packed)
    for r in range(d.n_tasks):
        b = d.block(r)
        full_r = full[:, b.lo[0]:b.hi[0] + 2, b.lo[1]:b.hi[1] + 2,
                      b.lo[2]:b.hi[2] + 2]
        lx, ly, lz = d.local_shape(r)
        for off, qs in PACKED_QS.items():
            sl = [slice(1, -1)] * 3
            for ax, n in zip(range(3), (lx, ly, lz)):
                if off[ax] == -1:
                    sl[ax] = slice(0, 1)
                elif off[ax] == 1:
                    sl[ax] = slice(n + 1, n + 2)
            idx = (list(qs),) + tuple(sl)
            assert np.array_equal(packed[r][idx], full_r[idx]), (r, off)


def test_packed_exchange_cuts_bytes_and_keeps_messages():
    d = BlockDecomposition((16, 16, 16), 8)
    h = HaloAccountant(d)
    _exchange(h, _padded_q_locals(d))
    # 19 channels -> 5 per face / 1 per edge: >3x fewer bytes than the
    # full rim of the 8^3 blocks (padded 10^3 shell minus its 8 corners).
    full_rim = d.n_tasks * 19 * 8 * (10**3 - 8**3 - 8)
    assert full_rim / h.counters.bytes_sent >= 3.0
    # Packing never changes the message or slab count: one message per
    # distinct neighbor, one slab per non-self offset.
    nbs = [d.neighbors(r) for r in range(d.n_tasks)]
    assert h.counters.messages == sum(len(set(n.values())) for n in nbs)
    assert h.counters.slabs == sum(len(n) for n in nbs)


def test_slabs_exceed_coalesced_messages():
    """The accountant reports both granularities: raw per-direction
    slabs (Fig. 8's pre-coalescing picture) and per-neighbor messages
    (what an MPI rank would actually post)."""
    d = BlockDecomposition((16, 16, 16), 8)
    h = HaloAccountant(d)
    _exchange(h, _padded_q_locals(d))
    assert h.counters.slabs > h.counters.messages > 0
    assert h.last_exchange_slabs == h.counters.slabs
    _exchange(h, _padded_q_locals(d))
    assert h.counters.slabs == 2 * h.last_exchange_slabs
