"""Packed halo exchange with byte/message accounting.

The distributed solver keeps each rank's lattice in a padded local array
(one-node halo).  :func:`fill_rank_halo` performs one rank's fill of
post-collision populations by direct array copies (the "network" is
memory — plain ndarrays for the serial backend, ``shared_memory`` views
for the processes backend) while reporting the bytes each transfer
would ship over a real interconnect.  :class:`HaloAccountant` folds
those records into cumulative counters that feed the scaling model
(Figs. 7-8).

The fill is direction-aware: the pull stream only ever reads the halo
populations whose lattice vector points *into* the receiving block —
5 of the 19 per face slab and 1 per edge slab for D3Q19
(:data:`PACKED_QS`) — so only those are shipped, ~4x less than the
full rim, without changing a single streamed value.

The fill is race-free under rank-parallel execution: rank ``r`` writes
only its *own* halo rim and reads only its neighbors' outermost
*interior* layers, so no two ranks touch the same memory with a write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lbm.lattice import D3Q19
from .decomposition import BlockDecomposition


def _build_packed_qs() -> dict:
    """Per-direction population subsets actually read from a halo slab.

    The padded pull stream sources direction ``i`` from the halo slab at
    offset ``off`` exactly when ``c_i[ax] == -off[ax]`` on every axis
    where ``off`` is nonzero (unsplit axes are unconstrained): the
    populations flying *into* the block from that neighbor.  For D3Q19
    that is 5 populations per face and 1 per edge (no direction has three
    nonzero components, so corner slabs are never read at all).
    """
    packed: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for q in range(1, D3Q19.Q):
        off = tuple(int(v) for v in D3Q19.c[q])
        qs = tuple(
            i
            for i in range(1, D3Q19.Q)
            if all(
                int(D3Q19.c[i][ax]) == -off[ax]
                for ax in range(3)
                if off[ax] != 0
            )
        )
        packed[off] = qs
    return packed


#: offset -> population indices the pull stream reads from that halo slab.
PACKED_QS = _build_packed_qs()


@dataclass
class CommCounters:
    """Cumulative communication totals.

    ``messages`` counts *coalesced* per-neighbor-pair messages — all the
    direction slabs two ranks exchange in one fill ride in one packed
    buffer, which is what an MPI implementation would post and what the
    Fig. 8 latency model should count.  ``slabs`` keeps the raw
    q-direction slab count for comparison (the pre-coalescing number).
    """

    bytes_sent: int = 0
    messages: int = 0
    slabs: int = 0
    by_rank: dict = field(default_factory=dict)

    def add(self, rank: int, nbytes: int, slabs: int = 1) -> None:
        self.bytes_sent += nbytes
        self.messages += 1
        self.slabs += int(slabs)
        self.by_rank[rank] = self.by_rank.get(rank, 0) + nbytes


def fill_rank_halo(
    rank: int,
    arrays: list[np.ndarray],
    decomp: BlockDecomposition,
) -> list[tuple[int, int, int]]:
    """Fill one rank's halo rim from its neighbors' interiors.

    ``arrays[r]`` has shape (19, lx+2, ly+2, lz+2) for rank r.  Only the
    :data:`PACKED_QS` populations of each slab are copied; the skipped
    entries are stale but the pull stream never reads them.  Returns the
    would-be network transfers as ``(dst_rank, src_rank, nbytes)``
    triples — one per direction slab, so the accountant can both count
    raw slabs and coalesce per neighbor pair; self-wrap copies on
    unsplit axes are performed but not reported.
    """
    arr = arrays[rank]
    transfers: list[tuple[int, int, int]] = []
    for q in range(1, D3Q19.Q):
        off = tuple(int(v) for v in D3Q19.c[q])
        nb = decomp.neighbor(rank, off)
        src = arrays[nb]
        # Source slab: neighbor's interior layer adjacent to us;
        # destination: our halo layer in direction `off`.
        src_sl: list[slice] = []
        dst_sl: list[slice] = []
        for ax in range(3):
            o = off[ax]
            if o == 0:
                src_sl.append(slice(1, src.shape[ax + 1] - 1))
                dst_sl.append(slice(1, arr.shape[ax + 1] - 1))
            elif o > 0:
                # Halo on our high face comes from the neighbor's
                # low interior layer.
                src_sl.append(slice(1, 2))
                dst_sl.append(slice(arr.shape[ax + 1] - 1, arr.shape[ax + 1]))
            else:
                src_sl.append(slice(src.shape[ax + 1] - 2, src.shape[ax + 1] - 1))
                dst_sl.append(slice(0, 1))
        src_sp = tuple(src_sl)
        dst_sp = tuple(dst_sl)
        # One plain slab copy per packed population: no fancy-index
        # temporaries, and the unpacked entries keep whatever they held
        # (never read by the stream).
        nbytes = 0
        for qi in PACKED_QS[off]:
            chunk = src[qi][src_sp]
            arr[qi][dst_sp] = chunk
            nbytes += chunk.nbytes
        if nb != rank:  # self-wrap copies are not network traffic
            transfers.append((rank, nb, nbytes))
    return transfers


class HaloAccountant:
    """Accounts the halo exchanges of a block decomposition.

    The executors fill halos rank-parallel with :func:`fill_rank_halo`
    and hand the per-slab transfer records to :meth:`record`.  Counters
    are cumulative; :meth:`reset` zeroes them so a solver reused across
    bench phases reports correct per-step averages.  The most recent
    exchange's totals are always available as ``last_exchange_bytes`` /
    ``last_exchange_messages`` / ``last_exchange_slabs``.
    """

    def __init__(self, decomp: BlockDecomposition):
        self.decomp = decomp
        self.counters = CommCounters()
        self.last_exchange_bytes = 0
        self.last_exchange_messages = 0
        self.last_exchange_slabs = 0

    def record(self, transfers: list[tuple[int, int, int]]) -> None:
        """Fold externally performed transfers into the counters.

        The records are :func:`fill_rank_halo`'s, gathered over all ranks
        (possibly from worker processes).  Slabs between the same
        ``(dst, src)`` pair coalesce into one message (they ship as one
        packed buffer); ``by_rank`` stays keyed by the source neighbor.
        """
        coalesced: dict[tuple[int, int], list[int]] = {}
        for dst, src, nbytes in transfers:
            entry = coalesced.get((dst, src))
            if entry is None:
                coalesced[(dst, src)] = [nbytes, 1]
            else:
                entry[0] += nbytes
                entry[1] += 1
        for (dst, src), (nbytes, slabs) in coalesced.items():
            self.counters.add(src, nbytes, slabs=slabs)
        self.last_exchange_bytes = sum(t[2] for t in transfers)
        self.last_exchange_messages = len(coalesced)
        self.last_exchange_slabs = len(transfers)

    def reset(self) -> None:
        """Zero the cumulative counters (start of a new bench phase)."""
        self.counters = CommCounters()
        self.last_exchange_bytes = 0
        self.last_exchange_messages = 0
        self.last_exchange_slabs = 0
