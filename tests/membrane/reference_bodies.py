"""The dict-of-half-edges bending-topology body, kept as a test oracle.

Until the half-edge twins were matched with one sort, ``bending_pairs``
walked the faces into a ``{(u, v): face}`` dict and, per edge, looked up
the twin and picked each face's third corner with ``np.isin``.  It works
from the face array alone, so it checks
:func:`repro.membrane.topology.bending_pairs` without going through it.
"""

import numpy as np


def dict_bending_pairs(faces):
    """Interior-edge quadruples (v1, v2, v3, v4), one per edge."""
    faces = np.asarray(faces, dtype=np.int64)
    half_edges: dict[tuple[int, int], int] = {}
    for f_idx, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in half_edges:
                raise ValueError("non-manifold or inconsistently oriented mesh")
            half_edges[(u, v)] = f_idx

    quads = []
    seen = set()
    for (u, v), f_idx in half_edges.items():
        if (v, u) in seen or (u, v) in seen:
            continue
        twin = half_edges.get((v, u))
        if twin is None:
            raise ValueError(f"boundary edge {(u, v)}: cell meshes must be closed")
        tri_a = faces[f_idx]
        tri_b = faces[twin]
        w_a = int(tri_a[~np.isin(tri_a, (u, v))][0])
        w_b = int(tri_b[~np.isin(tri_b, (u, v))][0])
        quads.append((u, v, w_a, w_b))
        seen.add((u, v))
    return np.array(quads, dtype=np.int64)
