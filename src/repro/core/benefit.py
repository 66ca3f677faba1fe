"""Materialization and merging benefit functions (Section 5).

Both functions compare the expected per-query execution time *before* and
*after* a reorganization action, using the cost model
``T = A + p (B + n C)``:

* **Materialization benefit** of candidate ``s`` of cluster ``c``
  (equation 3)::

      mu(s, c) = (p_c - p_s) * n_s * C  -  p_s * B  -  A

  Materializing pays one extra signature check per query (``A``), one extra
  exploration set-up whenever the new cluster is accessed (``p_s * B``), and
  in exchange removes ``n_s`` objects from the parent's scan for the
  fraction of queries that access the parent but not the candidate
  (``p_c - p_s``).

* **Merging benefit** of cluster ``c`` into its parent ``a`` (equation 5)::

      phi(c, a) = A + p_c * B - (p_a - p_c) * n_c * C

  Merging saves the signature check and the exploration set-up of ``c``,
  but its ``n_c`` members are now scanned whenever the parent is accessed
  even if ``c`` would not have been.

Each equation is written once, in its vectorised form: the reorganizer
screens every cluster of a pass with one array evaluation, and the scalar
functions used by the per-cluster decisions wrap the same code, so both
see bit-identical benefits.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import CostParameters


def materialization_benefit(
    candidate_access_probability: float,
    candidate_object_count: int,
    cluster_access_probability: float,
    cost: CostParameters,
) -> float:
    """Expected per-query gain of materializing one candidate sub-cluster.

    Parameters
    ----------
    candidate_access_probability:
        ``p_s`` — estimated access probability of the candidate.
    candidate_object_count:
        ``n_s`` — number of the cluster's members matching the candidate.
    cluster_access_probability:
        ``p_c`` — access probability of the (parent) cluster.
    cost:
        The cost-model parameters of the index's storage scenario.

    Returns
    -------
    float
        Positive when materialization is expected to improve the average
        query time (equation 3 of the paper).
    """
    _validate_probability(candidate_access_probability, "candidate_access_probability")
    if candidate_object_count < 0:
        raise ValueError("candidate_object_count must be non-negative")
    benefits = materialization_benefits(
        np.array([candidate_access_probability]),
        np.array([candidate_object_count]),
        cluster_access_probability,
        cost,
    )
    return float(benefits[0])


def materialization_benefits(
    candidate_access_probabilities: np.ndarray,
    candidate_object_counts: np.ndarray,
    cluster_access_probability: "float | np.ndarray",
    cost: CostParameters,
) -> np.ndarray:
    """Equation 3 over whole arrays of candidates.

    *cluster_access_probability* is one ``p_c`` for all candidates, or one
    per candidate (candidates of many clusters evaluated together).
    """
    _validate_probability(cluster_access_probability, "cluster_access_probability")
    probabilities = np.asarray(candidate_access_probabilities, dtype=np.float64)
    counts = np.asarray(candidate_object_counts, dtype=np.float64)
    if probabilities.shape != counts.shape:
        raise ValueError("probability and count arrays must have the same shape")
    saved = (cluster_access_probability - probabilities) * counts * cost.C
    added = probabilities * cost.B
    return saved - added - cost.A


def merging_benefit(
    cluster_access_probability: float,
    cluster_object_count: int,
    parent_access_probability: float,
    cost: CostParameters,
) -> float:
    """Expected per-query gain of merging a cluster back into its parent.

    Parameters
    ----------
    cluster_access_probability:
        ``p_c`` — access probability of the cluster considered for merging.
    cluster_object_count:
        ``n_c`` — its number of member objects.
    parent_access_probability:
        ``p_a`` — access probability of the parent cluster.
    cost:
        The cost-model parameters of the index's storage scenario.

    Returns
    -------
    float
        Positive when the merge is expected to improve the average query
        time (equation 5 of the paper).
    """
    if cluster_object_count < 0:
        raise ValueError("cluster_object_count must be non-negative")
    benefits = merging_benefits(
        np.array([cluster_access_probability]),
        np.array([cluster_object_count]),
        np.array([parent_access_probability]),
        cost,
    )
    return float(benefits[0])


def merging_benefits(
    cluster_access_probabilities: np.ndarray,
    cluster_object_counts: np.ndarray,
    parent_access_probabilities: np.ndarray,
    cost: CostParameters,
) -> np.ndarray:
    """Equation 5 over whole arrays of (cluster, parent) pairs."""
    _validate_probability(cluster_access_probabilities, "cluster_access_probability")
    _validate_probability(parent_access_probabilities, "parent_access_probability")
    probabilities = np.asarray(cluster_access_probabilities, dtype=np.float64)
    counts = np.asarray(cluster_object_counts, dtype=np.float64)
    saved_overhead = cost.A + probabilities * cost.B
    added_verification = (parent_access_probabilities - probabilities) * counts * cost.C
    return saved_overhead - added_verification


def _validate_probability(value: "float | np.ndarray", name: str) -> None:
    if not np.all((0.0 <= value) & (value <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
