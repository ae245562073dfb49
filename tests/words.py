"""Independent oracle shared by the tests: the trace of a word in the
generators, multiplied out letter by letter."""

import numpy as np

from mobcert.mobius import GroupSpec, make_generators


def word_trace(p, q, rho, word) -> complex:
    """tr of the word in A, B of (p, q, rho); a lower-case letter is an inverse."""
    A, B = make_generators(GroupSpec(p, q, rho))
    mats = {"A": A, "B": B, "a": np.linalg.inv(A), "b": np.linalg.inv(B)}
    w = np.eye(2, dtype=complex)
    for letter in word:
        w = w @ mats[letter]
    return complex(np.trace(w))
