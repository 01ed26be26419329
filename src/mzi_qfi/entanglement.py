"""Mode-picture entanglement across the two interferometer arms.

The amplitude grid of a pure two-mode state, read as a matrix (mode-a index
by mode-b index), has singular values that are exactly the Schmidt
coefficients of the a|b split. The state is a product across the arms iff a
single coefficient carries all the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ParameterError
from .fock import FockState

#: Default tolerance on 1 - lambda_max for declaring a state separable.
SEPARABILITY_TOL = 1e-9


@dataclass(frozen=True)
class ModeEntanglementReport:
    """Schmidt spectrum and entropy of the arm-a | arm-b partition."""

    schmidt_values: Tuple[float, ...]
    entropy: float
    entropy_bits: float
    separable: bool
    tol: float

    def as_dict(self) -> dict:
        return {
            "schmidt_values": list(self.schmidt_values),
            "entropy_nats": self.entropy,
            "entropy_bits": self.entropy_bits,
            "separable": self.separable,
            "separability_tol": self.tol,
        }


def schmidt(state: FockState, tol: float = SEPARABILITY_TOL) -> ModeEntanglementReport:
    """Schmidt decomposition of a normalized state across the mode partition.

    The returned coefficients are descending and their squares sum to one;
    the entropy is the von Neumann entropy of the squared spectrum in nats
    (with the usual 0 log 0 = 0 convention).
    """
    if tol <= 0:
        raise ParameterError("separability tolerance must be positive")
    values = np.linalg.svd(state.amplitudes, compute_uv=False)
    squared = values**2
    logs = np.log(squared, out=np.zeros_like(squared), where=squared > 0)  # 0 log 0 = 0
    entropy = max(0.0, float(-np.sum(squared * logs)))  # clip round-off
    kept = tuple(float(v) for v in values if v > 1e-12)
    return ModeEntanglementReport(
        schmidt_values=kept,
        entropy=entropy,
        entropy_bits=entropy / math.log(2),
        separable=(1.0 - float(values[0])) < tol,
        tol=tol,
    )
