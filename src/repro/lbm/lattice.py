"""D3Q19 lattice stencil: velocities, weights, opposites.

The stencil follows the standard ordering with the rest velocity first,
then the six axis-aligned directions, then the twelve edge diagonals.
Weights: w0 = 1/3, axis = 1/18, diagonal = 1/36; speed of sound
cs^2 = 1/3 in lattice units.
"""

from __future__ import annotations

import numpy as np


class _D3Q19:
    """Immutable container for the D3Q19 stencil constants."""

    #: Number of discrete velocities.
    Q = 19

    def __init__(self) -> None:
        c = [
            (0, 0, 0),
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
            (1, 1, 0), (-1, -1, 0),
            (1, -1, 0), (-1, 1, 0),
            (1, 0, 1), (-1, 0, -1),
            (1, 0, -1), (-1, 0, 1),
            (0, 1, 1), (0, -1, -1),
            (0, 1, -1), (0, -1, 1),
        ]
        self.c = np.array(c, dtype=np.int64)
        w = np.empty(self.Q, dtype=np.float64)
        speed2 = (self.c**2).sum(axis=1)
        w[speed2 == 0] = 1.0 / 3.0
        w[speed2 == 1] = 1.0 / 18.0
        w[speed2 == 2] = 1.0 / 36.0
        self.w = w

        # Opposite directions: c[opp[i]] == -c[i].
        opp = np.empty(self.Q, dtype=np.int64)
        for i in range(self.Q):
            matches = np.nonzero((self.c == -self.c[i]).all(axis=1))[0]
            opp[i] = matches[0]
        self.opp = opp

        self.cs2 = 1.0 / 3.0
        self.c.setflags(write=False)
        self.w.setflags(write=False)
        self.opp.setflags(write=False)


#: Module-level singleton; import this everywhere.
D3Q19 = _D3Q19()
