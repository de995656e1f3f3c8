"""The FM head's test oracle: pairwise interactions summed term by term."""

import numpy as np


def fm_pairwise_reference(z, V, w, beta0):
    """Explicit i<j double loop over the pairwise interaction terms.

    Independent oracle for the low-rank evaluation; O(|z|^2 k), used only
    in tests and verification.
    """
    z = np.asarray(z, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    total = float(beta0)
    for i in range(len(z)):
        total += w[i] * z[i]
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            total += float(V[i] @ V[j]) * z[i] * z[j]
    return total
