"""Bundled reference chains: a 5-state and an 8-state transition matrix.

``fix5`` is a five-state chain whose states are pre-sorted by descending
column sum; ``fix8`` is an eight-state compartment-flow chain with the same
ordering but a column-sum/stationary-order reversal between its first two
states.  Entries are stored exactly as published, in the CLI's CSV format.
"""
from __future__ import annotations

from importlib import resources

from .. import io
from ..chain import TransitionMatrix, validate


def _load(name: str) -> TransitionMatrix:
    text = resources.files(__package__).joinpath(name).read_text()
    p, labels = io.parse_csv(text)
    return validate(p, labels)


def fix5() -> TransitionMatrix:
    """Five-state reference chain (column sums descending)."""
    return _load("fix5.csv")


def fix8() -> TransitionMatrix:
    """Eight-state reference chain (column sums descending)."""
    return _load("fix8.csv")


#: Published reference values, as the text they were printed with: each is
#: judged to within half a unit of its last decimal.
FIX5_REFERENCE = {
    "stationary vector": ("0.3216", "0.2705", "0.1842", "0.1476", "0.0761"),
    "kemeny constant": ("16.042",),
}
FIX8_REFERENCE = {
    "stationary vector": (
        "0.2378", "0.4938", "0.0135", "0.0078", "0.1372", "0.0485", "0.0503", "0.0112"
    ),
    "kemeny constant": ("29.9194",),
}


def reference_values(tm: TransitionMatrix) -> dict | None:
    """Published values for `tm` if it is one of the bundled chains.

    Matching tolerates row-renormalization wobble (a few ulp) so that a
    round-trip through a matrix file still counts as the same chain.
    """
    import numpy as np

    if tm.n == 5 and np.allclose(tm.p, fix5().p, rtol=0.0, atol=1e-9):
        return FIX5_REFERENCE
    if tm.n == 8 and np.allclose(tm.p, fix8().p, rtol=0.0, atol=1e-9):
        return FIX8_REFERENCE
    return None
