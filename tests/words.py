"""Independent oracle shared by the tests, and the one place where they
build matrices: the paper's generator pair of a marking, the Burau pair
of a specialization, and the trace of a word in a pair, multiplied out
letter by letter.  The package itself decides in closed form in rho and
never multiplies a matrix."""

import cmath
import math

import numpy as np


def generators(p, q, rho) -> tuple[np.ndarray, np.ndarray]:
    """The paper's A = [[alpha, 1], [0, 1/alpha]] and B = [[beta, 0],
    [rho, 1/beta]], alpha = exp(i pi/p), beta = exp(i pi/q).  An order of
    inf gives alpha or beta = 1, a parabolic generator.  Nothing is
    rejected: p = q = 2 and rho = 0 give their (degenerate) matrices."""
    a = cmath.exp(1j * (math.pi / p))
    b = cmath.exp(1j * (math.pi / q))
    A = np.array([[a, 1.0], [0.0, 1.0 / a]], dtype=complex)
    B = np.array([[b, 0.0], [rho, 1.0 / b]], dtype=complex)
    return A, B


def burau_pair(mu) -> tuple[np.ndarray, np.ndarray]:
    """The reduced Burau images of the braid generators at t = mu, divided
    by sqrt(-mu) to det 1; A B A = B A B holds projectively."""
    mu = complex(mu)
    s = cmath.sqrt(-mu)
    A = np.array([[-mu / s, 1.0 / s], [0.0, 1.0 / s]], dtype=complex)
    B = np.array([[1.0 / s, 0.0], [mu / s, -mu / s]], dtype=complex)
    return A, B


def trace_of(A, B, word) -> complex:
    """tr of the word in A, B; a lower-case letter is an inverse."""
    mats = {"A": A, "B": B, "a": np.linalg.inv(A), "b": np.linalg.inv(B)}
    w = np.eye(2, dtype=complex)
    for letter in word:
        w = w @ mats[letter]
    return complex(np.trace(w))


def word_trace(p, q, rho, word) -> complex:
    """tr of the word in A, B of (p, q, rho); a lower-case letter is an inverse."""
    return trace_of(*generators(p, q, rho), word)
