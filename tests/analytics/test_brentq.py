"""The Brent's-method port equals ``scipy.optimize.brentq`` bitwise.

``discharge_from_tube_hematocrit`` inverts Eq. 11 with
``repro.analytics.rheology._brentq`` instead of importing
``scipy.optimize`` for one scalar root; the port must return the very
same float and raise the same errors.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.analytics import discharge_from_tube_hematocrit, fahraeus_ratio
from repro.analytics import rheology
from repro.analytics.rheology import _brentq


def _scipy_inversion(D, ht):
    def resid(htd):
        return htd * float(fahraeus_ratio(D, htd)) - ht

    return float(brentq(resid, 1e-9, 1.0 - 1e-9))


def test_inversion_bit_equal_to_scipy_over_grid():
    diameters = np.linspace(4.0, 200.0, 99)
    hematocrits = np.linspace(0.0, 0.6, 121)[1:]
    differ = [
        (D, ht)
        for D in diameters
        for ht in hematocrits
        if discharge_from_tube_hematocrit(D, ht) != _scipy_inversion(D, ht)
    ]
    assert differ == []


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x**3 - 2.0, 0.0, 2.0),
    (np.sin, 3.0, 4.0),
    (lambda x: x - 0.3, -0.0, 1.0),
    (lambda x: x, 0.0, 1.0),        # root at a
    (lambda x: x - 1.0, 0.0, 1.0),  # root at b
    (lambda x: np.exp(x) - 1e-3, -20.0, 5.0),
])
def test_roots_bit_equal_to_scipy(f, a, b):
    assert _brentq(f, a, b) == brentq(f, a, b)


def test_errors_match_scipy(monkeypatch):
    def resid(x):
        return x * float(fahraeus_ratio(10.0, x)) - 0.3

    for maxiter in (1, 2, 3):
        monkeypatch.setattr(rheology, "_BRENTQ_MAXITER", maxiter)
        with pytest.raises(RuntimeError) as ours:
            _brentq(resid, 1e-9, 1.0 - 1e-9)
        with pytest.raises(RuntimeError) as theirs:
            brentq(resid, 1e-9, 1.0 - 1e-9, maxiter=maxiter)
        assert str(ours.value) == str(theirs.value)
    for f in (lambda x: x * x + 1.0,
              lambda x: float("nan") if x > 0.6 else x - 0.5):
        with pytest.raises(ValueError) as ours:
            _brentq(f, 0.0, 1.0)
        with pytest.raises(ValueError) as theirs:
            brentq(f, 0.0, 1.0)
        assert str(ours.value) == str(theirs.value)
