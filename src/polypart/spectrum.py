"""Balance functionals of a cell-count table via the Walsh-Hadamard transform.

The value at frequency v is the signed sum over sign vectors w of the counts,
weighted by (-1)^(v.w); frequency 0 recovers the total and the table is
equidistributed exactly when every nonzero frequency vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import MAX_S, CellCounts, w_index


@dataclass
class Spectrum:
    s: int
    values: np.ndarray

    def __getitem__(self, v):
        return self.values[w_index(v)].item()


def _check_table(table: np.ndarray) -> int:
    size = table.shape[0]
    s = size.bit_length() - 1
    if size != 2**s or table.ndim != 1:
        raise ValueError(f"table length must be a power of two, got {table.shape}")
    if s > MAX_S:
        raise ValueError(f"s = {s} exceeds the supported maximum {MAX_S}")
    return s


def wht_table(table: np.ndarray) -> np.ndarray:
    """Fast transform by butterflies over all blocks at once; exact on integer inputs."""
    table = np.asarray(table)
    _check_table(table)
    out = table.astype(np.int64 if np.issubdtype(table.dtype, np.integer) else np.float64)
    h = 1
    while h < len(out):
        a, b = out.reshape(-1, 2, h).transpose(1, 0, 2)
        out = np.concatenate((a + b, a - b), axis=1).ravel()
        h *= 2
    return out


def wht(counts: CellCounts) -> Spectrum:
    """Spectrum of a cell-count table."""
    return Spectrum(counts.s, wht_table(counts.table))


def is_equidistributed(counts: CellCounts) -> bool:
    """True iff every nonzero-frequency balance functional is exactly zero."""
    vals = wht_table(counts.table)
    return bool(np.all(vals[1:] == 0))


def lemma_identity_check(counts: CellCounts, u) -> tuple:
    """Both sides of the counting identity behind the equidistribution lemma.

    lhs sums the spectrum over frequencies v with v.u = 1; rhs is
    2^(s-1) * (counts(0) - counts(u)). They agree for every table.
    """
    s = counts.s
    ui = w_index(u)
    if ui == 0:
        raise ValueError("u must be a nonzero sign vector")
    vals = wht_table(counts.table)
    vs = np.arange(2**s)
    dot = np.zeros(2**s, dtype=np.int64)
    for j in range(s):
        if (ui >> j) & 1:
            dot ^= (vs >> j) & 1
    lhs = vals[dot == 1].sum()
    rhs = 2 ** (s - 1) * (counts.table[0] - counts.table[ui])
    return lhs.item(), rhs.item() if hasattr(rhs, "item") else rhs


def spectral_power(table: np.ndarray) -> float:
    """Sum of squared balance functionals over nonzero frequencies.

    An integer table N takes Parseval's identity, 2^s * sum(N^2) - sum(N)^2,
    in exact integers (while sum(N^2) fits int64); it equals the transform's
    float sum bit for bit while that sum is below 2^53. A float table sums its
    squared transform."""
    table = np.asarray(table)
    if np.issubdtype(table.dtype, np.integer):
        N = table.astype(np.int64)
        return float(2 ** _check_table(N) * int(N @ N) - int(N.sum()) ** 2)
    vals = wht_table(table)
    return float(np.sum(vals[1:].astype(np.float64) ** 2))
