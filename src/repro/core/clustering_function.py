"""The clustering function (Section 4.2).

Given the signature of a database cluster, the clustering function produces
the signatures of its *candidate sub-clusters*.  The paper's instantiation
works one dimension at a time: both variation intervals of the selected
dimension are divided into ``f`` sub-intervals (``f`` is the *division
factor*), and every combination of a start sub-interval with an end
sub-interval yields one candidate signature (the other dimensions keep the
parent's constraints).

Combinations that cannot host any valid interval (``a ≤ b`` impossible,
i.e. the start sub-interval lies entirely above the end sub-interval) are
discarded; when the two variation intervals coincide this leaves the
``f (f + 1) / 2`` distinct combinations the paper notes, instead of ``f²``.
The number of candidates therefore stays **linear in the number of
dimensions** — at most ``Nd · f²``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.signature import ClusterSignature, VariationInterval


@dataclass(frozen=True)
class CandidateDescriptor:
    """One candidate sub-cluster produced by the clustering function.

    A candidate differs from its parent signature in exactly one dimension
    (``dimension``), whose variation intervals are replaced by
    ``[start_low, start_high]`` / ``[end_low, end_high]``.
    """

    dimension: int
    start_low: float
    start_high: float
    end_low: float
    end_high: float

    def variation(self) -> VariationInterval:
        """Return the candidate's constraint for its refined dimension."""
        return VariationInterval(self.start_low, self.start_high, self.end_low, self.end_high)

    def signature(self, parent: ClusterSignature) -> ClusterSignature:
        """Materialize the candidate's full signature from the parent's."""
        return parent.with_dimension(self.dimension, self.variation())


#: A candidate family as columns: ``(dimension, start_low, start_high,
#: end_low, end_high)``, one entry per candidate.
CandidateColumns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def interval_edges(low: np.ndarray, high: np.ndarray, parts: int) -> np.ndarray:
    """Edges splitting every interval ``[low, high]`` into *parts* consecutive pieces.

    Returns an array of shape ``low.shape + (parts + 1,)`` whose every row is
    bit-identical to ``np.linspace(low[k], high[k], parts + 1)``, including
    NumPy's zero-step branch ``(y / parts) * delta`` for (near-)zero widths.
    The branch is chosen per row: a single vectorised ``linspace`` call
    switches every row to it as soon as one row has zero width.
    """
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    delta = (high - low)[..., None]
    steps = np.arange(parts + 1, dtype=np.float64)
    step = delta / parts
    edges = np.where(step == 0, (steps / parts) * delta, steps * step)
    edges += low[..., None]
    edges[..., -1] = high
    return edges


def _parent_combinations(
    signature: ClusterSignature, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """``[d, i, j]``: start piece i with end piece j reproduces dimension d's constraint."""
    start_is_parent = (starts[:, :-1] == signature.start_low[:, None]) & (
        starts[:, 1:] == signature.start_high[:, None]
    )
    end_is_parent = (ends[:, :-1] == signature.end_low[:, None]) & (
        ends[:, 1:] == signature.end_high[:, None]
    )
    return start_is_parent[:, :, None] & end_is_parent[:, None, :]


def _repeated_combinations(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``[d, i, j]``: combination (i, j) of dimension d equals an earlier one.

    Combinations are ordered by start piece, then end piece.
    """
    dimensions, pieces = starts.shape[0], starts.shape[1] - 1
    same_start = (starts[:, :-1, None] == starts[:, None, :-1]) & (
        starts[:, 1:, None] == starts[:, None, 1:]
    )
    same_end = (ends[:, :-1, None] == ends[:, None, :-1]) & (ends[:, 1:, None] == ends[:, None, 1:])
    combos = pieces * pieces
    same = (same_start[:, :, None, :, None] & same_end[:, None, :, None, :]).reshape(
        dimensions, combos, combos
    )
    return np.tril(same, -1).any(axis=-1).reshape(dimensions, pieces, pieces)


class ClusteringFunction:
    """Generates candidate sub-cluster descriptors for a cluster signature.

    Parameters
    ----------
    division_factor:
        ``f`` — number of sub-intervals each variation interval is divided
        into (the paper uses 4).
    domain_low, domain_high:
        Bounds of the normalised data domain (``[0, 1]`` in the paper).
    """

    def __init__(
        self,
        division_factor: int = 4,
        domain_low: float = 0.0,
        domain_high: float = 1.0,
    ) -> None:
        if division_factor < 2:
            raise ValueError("division_factor must be at least 2")
        if domain_high <= domain_low:
            raise ValueError("domain_high must be greater than domain_low")
        self.division_factor = division_factor
        self.domain_low = domain_low
        self.domain_high = domain_high

    # ------------------------------------------------------------------
    def candidate_columns(self, signature: ClusterSignature) -> CandidateColumns:
        """Return the candidate family of *signature* as columns.

        Candidates are ordered by refined dimension, then start piece, then
        end piece.  The family excludes combinations that cannot host a
        valid interval, combinations identical to the parent's own
        constraint (which would produce a candidate equal to the cluster
        itself) and repeats of an earlier combination of the same
        dimension (coinciding pieces of a zero-width variation interval).
        """
        factor = self.division_factor
        starts = interval_edges(signature.start_low, signature.start_high, factor)
        ends = interval_edges(signature.end_low, signature.end_high, factor)
        # Every grid below is indexed [dimension, start piece i, end piece j].
        # A member interval [a, b] needs a <= b; impossible when the whole
        # start piece lies at or above the end piece (the paper treats
        # pieces as half-open, which is what the strict comparison
        # reproduces and what yields the f(f+1)/2 count of footnote 3).
        keep = starts[:, :-1, None] < ends[:, None, 1:]
        # A combination can only equal the parent's constraint or repeat an
        # earlier one when some interval has coinciding edges (zero-width
        # pieces), which strictly increasing edges rule out.
        if not (np.all(starts[:, 1:] > starts[:, :-1]) and np.all(ends[:, 1:] > ends[:, :-1])):
            keep &= ~_parent_combinations(signature, starts, ends)
            keep &= ~_repeated_combinations(starts, ends)
        dims, start_piece, end_piece = np.nonzero(keep)
        return (
            dims.astype(np.int64),
            starts[dims, start_piece],
            starts[dims, start_piece + 1],
            ends[dims, end_piece],
            ends[dims, end_piece + 1],
        )

    def candidates_for(self, signature: ClusterSignature) -> List[CandidateDescriptor]:
        """Return the candidate descriptors for *signature* (see :meth:`candidate_columns`)."""
        return [
            CandidateDescriptor(
                int(dimension), float(s_low), float(s_high), float(e_low), float(e_high)
            )
            for dimension, s_low, s_high, e_low, e_high in zip(*self.candidate_columns(signature))
        ]

    def candidate_signatures(self, signature: ClusterSignature) -> List[ClusterSignature]:
        """Full signatures of every candidate (convenience for tests/examples)."""
        return [descriptor.signature(signature) for descriptor in self.candidates_for(signature)]

    # ------------------------------------------------------------------
    def max_candidates_per_dimension(self) -> int:
        """Upper bound on candidates per dimension (``f²``)."""
        return self.division_factor * self.division_factor

    def symmetric_candidates_per_dimension(self) -> int:
        """Distinct combinations when both variation intervals coincide.

        Equals ``f (f + 1) / 2`` (the paper's footnote 3).
        """
        f = self.division_factor
        return f * (f + 1) // 2

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ClusteringFunction(division_factor={self.division_factor}, "
            f"domain=[{self.domain_low:g}, {self.domain_high:g}])"
        )
