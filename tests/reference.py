"""Per-node references that the engine's vectorised round loop is checked
against: one node and one round at a time, on a fresh `rng.stream`."""

import numpy as np


def sample_batch(indices: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson-style batch draw: each sample joins independently with
    probability ratio.  An empty draw is retried once; a second empty draw
    returns one uniformly chosen sample so no iteration ever silently skips.
    This is the batch rule that `models.BatchDraws` draws for every node of
    a chunk of rounds at once.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0,1], got {ratio}")
    indices = np.asarray(indices)
    if ratio == 1.0:
        return indices.copy()
    for _ in range(2):
        mask = rng.random(len(indices)) < ratio
        if mask.any():
            return indices[mask]
    return indices[[rng.integers(len(indices))]]
