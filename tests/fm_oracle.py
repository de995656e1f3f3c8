"""The FM head's test oracle: pairwise interactions summed term by term,
and the one check of the head's low-rank evaluation against it."""

import numpy as np

from deepconn.model import FmHead


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


def check_fm_head(head, z, V, w, beta0):
    """Give `head` the weights V, w and beta0; its low-rank prediction for
    the one input z must be within 1e-10 of the double loop's."""
    head.beta0.value[...] = beta0
    head.w.value[:] = w
    head.V.value[:] = V
    expected = fm_pairwise_reference(z, V, w, beta0)
    assert abs(head.predict_z(z[None])[0] - expected) < 1e-10


def check_random_fm_head(rng, half, k):
    """`check_fm_head` on an FmHead of 2*half inputs and rank k, drawing
    z, the head's initial weights, beta0, w and V from rng in that order."""
    z = rng.standard_normal(2 * half)
    head = FmHead(half, rank=k, rng=rng)
    beta0 = rng.standard_normal()
    w = rng.standard_normal(2 * half)
    V = rng.standard_normal((2 * half, k))
    check_fm_head(head, z, V, w, beta0)
