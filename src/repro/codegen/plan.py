"""Executable kernel plans.

A :class:`KernelPlan` is what the OpenCL simulator (:mod:`repro.clsim`)
executes for an emitted kernel: its parameters, plus the precomputed
work-item ownership maps (which C elements each work-item accumulates,
under unit or non-unit stride) and their inverses.  The emitter embeds
the parameters in the kernel source so the simulator's "compiler" can
reconstruct the plan.

Building a plan verifies that both ownership maps are exact bijections
onto the C tile.  The local-memory staging grids need no plan-level
check: :class:`~repro.codegen.params.KernelParams` already rejects any
reshape that does not tile the A/B tiles, and :mod:`repro.spec` models
the staging itself from the source text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.codegen.params import KernelParams
from repro.errors import LaunchError, ParameterError

__all__ = ["KernelPlan", "build_plan", "ownership_map"]


def ownership_map(dim: int, wi: int, vw: int, nonunit: bool) -> np.ndarray:
    """Map work-item lane ``i`` and element index ``a`` to a tile index.

    Returns an ``(dim, wi)`` integer array ``owner`` with
    ``owner[i, a]`` = the tile-local index (row or column) of the ``a``-th
    element owned by work-item lane ``i``.

    Unit stride (paper Fig. 2a): lane ``i`` owns the adjacent span
    ``[i*wi, (i+1)*wi)``.

    Non-unit stride (Fig. 2b): elements are interleaved across lanes with
    stride ``dim``; with vector variables (``vw >= 2``) the interleaving
    granularity is ``vw`` consecutive elements, so the stride becomes
    ``vw * dim``.
    """
    i = np.arange(dim)[:, None]
    a = np.arange(wi)[None, :]
    if not nonunit:
        return (i * wi + a).astype(np.int64)
    return ((a // vw) * (vw * dim) + i * vw + (a % vw)).astype(np.int64)


def _verify_bijection(owner: np.ndarray, extent: int, what: str) -> None:
    flat = np.sort(owner.reshape(-1))
    if flat.size != extent or not np.array_equal(flat, np.arange(extent)):
        raise ParameterError(
            f"{what} ownership map is not a bijection onto [0, {extent}): "
            f"covered {np.unique(owner).size} of {extent} indices"
        )


@dataclass(frozen=True)
class KernelPlan:
    """Executable description of one generated GEMM kernel."""

    params: KernelParams
    #: (mdimc, mwi) map: C-tile row owned by lane i, element a.
    row_owner: np.ndarray
    #: (ndimc, nwi) map: C-tile column owned by lane j, element b.
    col_owner: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.params.precision == "s" else np.float64)

    # ------------------------------------------------------------------
    def workgroup_grid(self, M: int, N: int) -> Tuple[int, int]:
        """Number of work-groups in (M, N).

        Guarded kernels cover partial edge tiles (ceil); unguarded ones
        require padded multiples (enforced by :meth:`check_problem`).
        """
        p = self.params
        if p.guard_edges:
            return -(-M // p.mwg), -(-N // p.nwg)
        return M // p.mwg, N // p.nwg

    def global_size(self, M: int, N: int) -> Tuple[int, int]:
        """OpenCL NDRange global size for a padded ``M x N`` output."""
        gm, gn = self.workgroup_grid(M, N)
        return gm * self.params.mdimc, gn * self.params.ndimc

    def local_size(self) -> Tuple[int, int]:
        return self.params.mdimc, self.params.ndimc

    def check_problem(self, M: int, N: int, K: int) -> None:
        """Validate that a (padded) problem is launchable with this plan.

        The generated kernels require each dimension to be a multiple of
        its work-group blocking factor (the GEMM routine layer zero-pads
        arbitrary sizes; Section IV-B), and the pipelined algorithms need
        at least two k-iterations for their prologue/epilogue.
        """
        p = self.params
        if not p.guard_edges and (M % p.mwg or N % p.nwg or K % p.kwg):
            raise LaunchError(
                f"problem {M}x{N}x{K} not divisible by blocking "
                f"{p.mwg}x{p.nwg}x{p.kwg}; pad inputs first "
                f"(or generate with guard_edges)"
            )
        # Guarded kernels degrade gracefully to a single k-iteration:
        # the pipelined loop body is empty and the epilogue consumes the
        # prologue's tile.  Unguarded PL/DB kernels are generated for
        # padded problems with at least two iterations (the paper's
        # Figs. 5-6 loop structure), which the padding layer guarantees.
        min_iters = 1 if p.guard_edges else p.algorithm.min_k_iterations
        k_iters = -(-K // p.kwg) if p.guard_edges else K // p.kwg
        if k_iters < min_iters:
            raise LaunchError(
                f"{p.algorithm.value} kernel needs K >= {min_iters}*Kwg "
                f"({min_iters * p.kwg}), got K={K}"
            )

    def row_permutation(self) -> np.ndarray:
        """C-tile rows in (lane, element) ownership order — a permutation."""
        return self.row_owner.reshape(-1)

    def col_permutation(self) -> np.ndarray:
        return self.col_owner.reshape(-1)

    @cached_property
    def row_inverse(self) -> np.ndarray:
        """Ownership-order position of each C-tile row (inverse of
        :meth:`row_permutation`), computed once per plan."""
        return np.argsort(self.row_permutation(), kind="stable")

    @cached_property
    def col_inverse(self) -> np.ndarray:
        """Ownership-order position of each C-tile column."""
        return np.argsort(self.col_permutation(), kind="stable")


def build_plan(params: KernelParams) -> KernelPlan:
    """Construct and verify the executable plan for a parameter vector."""
    row_owner = ownership_map(params.mdimc, params.mwi, params.vw, params.stride.m)
    col_owner = ownership_map(params.ndimc, params.nwi, params.vw, params.stride.n)
    _verify_bijection(row_owner, params.mwg, "row (M)")
    _verify_bijection(col_owner, params.nwg, "column (N)")
    return KernelPlan(params=params, row_owner=row_owner, col_owner=col_owner)
