"""Correctness gate and the arithmetic behind the benchmark's derived numbers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

# Certificate outcomes of one solve.
PASSED, VIOLATED, REFUSED, NOT_RUN = "passed", "violated", "refused", "not_run"


def solve_failed(termination: str | None, final_rse: float | None, rse_tol: float,
                 certificate: str, refusable: bool = False) -> bool:
    """A solve fails unless it stopped on ``rse_tol`` with ``final_rse <= rse_tol``
    and, when its trace was certified, the certificate held.  A refusal to certify
    fails too unless the method is ``refusable``, so that a trace broken on its way
    to the certifier cannot pass as not certifiable.  A solve that raised is passed
    as ``termination=None``."""
    if termination != "rse_tol" or final_rse is None or not final_rse <= rse_tol:
        return True
    return certificate == VIOLATED or (certificate == REFUSED and not refusable)


@dataclass
class Tally:
    """Solve outcomes of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    certified: int = 0
    not_certifiable: int = 0
    errors: list = field(default_factory=list)

    def add(self, solve: str, termination, final_rse, rse_tol, certificate,
            refusable: bool = False) -> None:
        self.attempted += 1
        self.certified += certificate == PASSED
        self.not_certifiable += certificate == REFUSED
        if solve_failed(termination, final_rse, rse_tol, certificate, refusable):
            self.failed += 1
            self.errors.append(f"{solve}: termination={termination} final_rse={final_rse} "
                               f"certificate={certificate}")

    def add_raised(self, solves: int, message: str) -> None:
        self.attempted += solves
        self.failed += solves
        self.errors.append(message)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def certified_frac(self) -> float:
        return self.certified / self.attempted if self.attempted else 0.0


def hit_ratio(row_image_calls: int, iterations: int) -> float:
    """Image-cache hit ratio: every iteration needs A a_i, and each miss calls row_image."""
    if iterations <= 0:
        raise ValueError("hit ratio needs at least one iteration")
    return 1.0 - row_image_calls / iterations


def selection_digest(indices) -> str:
    """Short, stable digest of a solve's row-selection sequence."""
    data = np.asarray(indices, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]

