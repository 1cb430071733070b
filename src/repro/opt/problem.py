"""The plan-optimization problem: spot weights -> dose -> objective.

Ties together the deposition matrices of a multi-beam plan (dose adds
linearly across beams: ``d = sum_b A_b w_b``), the composite objective,
and — the point of the paper — a pluggable SpMV kernel, so the same
optimization can run against the reference matvec or any simulated GPU
kernel, and the harness can count how much SpMV time an optimization
spends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.dose.deposition import DoseDepositionMatrix
from repro.kernels.base import SpMVKernel
from repro.opt.objectives import CompositeObjective
from repro.util.errors import ShapeError


@dataclass
class SpMVAccounting:
    """Tally of dose calculations performed during an optimization."""

    n_forward: int = 0
    n_transpose: int = 0
    modelled_spmv_seconds: float = 0.0


class PlanOptimizationProblem:
    """Multi-beam spot-weight optimization over quadratic dose objectives.

    Parameters
    ----------
    beams:
        deposition matrices, one per beam.
    objective:
        composite dose objective.
    kernel:
        optional simulated kernel used for the *forward* dose calculation;
        when given, each forward product also accrues modelled GPU time in
        :attr:`accounting` (the quantity the paper's speedups translate
        into at the application level).  Gradients always use the exact
        transpose product numerically; with ``model_gradients=True`` the
        transpose product's modelled GPU time (the same kernel run on the
        explicitly transposed matrix) is accrued as well, so the
        accounting covers the optimizer's full SpMV load.
    """

    def __init__(
        self,
        beams: List[DoseDepositionMatrix],
        objective: CompositeObjective,
        kernel: Optional[SpMVKernel] = None,
        model_gradients: bool = False,
    ) -> None:
        if not beams:
            raise ValueError("need at least one beam")
        n_voxels = beams[0].n_voxels
        for b in beams:
            if b.n_voxels != n_voxels:
                raise ShapeError("all beams must share the dose grid")
        self.beams = list(beams)
        self.objective = objective
        self.kernel = kernel
        self.model_gradients = model_gradients
        self.accounting = SpMVAccounting()
        self._offsets = np.cumsum([0] + [b.n_spots for b in beams])
        # Half-stored copies for the simulated kernel (built lazily).
        self._half_matrices = None
        self._half_transposes = None

    @property
    def n_weights(self) -> int:
        """Total spot count across beams (the optimization dimension)."""
        return int(self._offsets[-1])

    @property
    def n_voxels(self) -> int:
        return self.beams[0].n_voxels

    def split_weights(self, w: np.ndarray) -> List[np.ndarray]:
        """Per-beam views of the concatenated weight vector."""
        w = np.asarray(w)
        if w.shape != (self.n_weights,):
            raise ShapeError(f"w has shape {w.shape}, expected ({self.n_weights},)")
        return [
            w[self._offsets[b] : self._offsets[b + 1]]
            for b in range(len(self.beams))
        ]

    def dose(self, w: np.ndarray) -> np.ndarray:
        """Total dose ``sum_b A_b w_b``, through the configured kernel."""
        parts = self.split_weights(w)
        total = np.zeros(self.n_voxels, dtype=np.float64)
        if self.kernel is None:
            for beam, wb in zip(self.beams, parts):
                total += beam.matrix.matvec(wb.astype(np.float64))
        else:
            if self._half_matrices is None:
                self._half_matrices = [b.as_half() for b in self.beams]
            for mat, wb in zip(self._half_matrices, parts):
                result = self.kernel.run(mat, wb.astype(np.float64))
                total += result.y
                self.accounting.modelled_spmv_seconds += result.timing.time_s
        self.accounting.n_forward += len(self.beams)
        return total

    def value_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        """Objective value and gradient w.r.t. the spot weights.

        ``grad_w = A^T grad_d`` per beam (the optimizer's backward pass).
        """
        dose = self.dose(w)
        value, grad_d = self.objective.value_and_gradient(dose)
        grads = []
        for beam in self.beams:
            grads.append(beam.matrix.transpose_matvec(grad_d))
            self.accounting.n_transpose += 1
        if self.kernel is not None and self.model_gradients:
            if self._half_transposes is None:
                self._half_transposes = [
                    b.as_half().transposed() for b in self.beams
                ]
            for t_mat in self._half_transposes:
                result = self.kernel.run(t_mat, grad_d)
                self.accounting.modelled_spmv_seconds += result.timing.time_s
        return value, np.concatenate(grads)
