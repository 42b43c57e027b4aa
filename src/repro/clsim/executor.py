"""Functional execution of kernel plans.

Two execution paths produce the same GEMM (the test suite checks them
against each other and against numpy):

* ``workgroup`` — per work-group: gathers each A and B tile once per
  launch through the layout address functions, its columns permuted
  into work-item ownership order, and shares it among the work-groups
  that read it.  Each work-group sums one matmul per k-step in k order
  — a whole ``Kwg`` tile under BA and PL, each half of the tile under
  DB — into an accumulator kept in ownership order (the private ``cpm``
  blocks of the emitted kernel, concatenated over the work-group), then
  merges with alpha/beta after un-permuting once through the plan's
  inverse ownership maps.  This summation order is what served results
  depend on, bit for bit; a wrong ownership map or tile address
  produces numerically wrong output.
* ``fast`` — whole-matrix: unpacks the operands from their layouts and
  issues one BLAS-3 call.  Used for large benchmark problems where the
  per-work-group loop would dominate.

How tiles move through local memory and where the barriers fall (the
difference between the paper's BA, PL and DB algorithms, Figs. 4-6)
does not change the values a race-free kernel computes, so this module
does not model it.  :mod:`repro.spec` does: it interprets the emitted
source text work-item by work-item, with local memory and barriers,
and is differentially tested against this executor and numpy.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import tile_view, unpack_matrix
from repro.codegen.plan import KernelPlan
from repro.errors import LaunchError

__all__ = ["execute_plan", "ExecutionArrays"]


def _clipped_tile(
    flat: np.ndarray, K: int, X: int, kb: int, xb: int, bk: int, bx: int,
    dtype,
) -> np.ndarray:
    """A full ``bk x bx`` tile from an unpadded row-major operand.

    Edge tiles are zero-filled beyond the matrix — exactly what the
    guarded kernel's bounds-checked reads produce (out-of-range loads
    are skipped and the corresponding products never contribute).
    """
    mat = flat.reshape(K, X)
    k0, x0 = kb * bk, xb * bx
    piece = mat[k0:k0 + bk, x0:x0 + bx]
    if piece.shape == (bk, bx):
        return piece
    out = np.zeros((bk, bx), dtype=dtype)
    out[: piece.shape[0], : piece.shape[1]] = piece
    return out


class ExecutionArrays:
    """Validated, shaped views of the kernel's buffer arguments."""

    def __init__(
        self,
        plan: KernelPlan,
        a_flat: np.ndarray,
        b_flat: np.ndarray,
        c_flat: np.ndarray,
        M: int,
        N: int,
        K: int,
    ):
        dtype = plan.dtype
        for name, arr, n in (("A", a_flat, K * M), ("B", b_flat, K * N), ("C", c_flat, M * N)):
            if arr.dtype != dtype:
                raise LaunchError(
                    f"{name} buffer dtype {arr.dtype} does not match kernel "
                    f"precision {dtype}"
                )
            if arr.size != n:
                raise LaunchError(
                    f"{name} buffer has {arr.size} elements; kernel expects {n}"
                )
        self.a = a_flat
        self.b = b_flat
        self.c = c_flat.reshape(M, N)
        self.M, self.N, self.K = M, N, K


def execute_plan(
    plan: KernelPlan,
    arrays: ExecutionArrays,
    alpha: float,
    beta: float,
    mode: str = "workgroup",
    injector=None,
    device: str = "",
    fault_key: str = "",
) -> None:
    """Run the kernel over the buffers in-place.

    With a fault ``injector``, a firing ``result`` rule silently
    overwrites part of the output with NaNs after the (correct)
    computation — the simulated analogue of a device writing garbage
    without reporting an error, detectable only by functional
    verification downstream.
    """
    plan.check_problem(arrays.M, arrays.N, arrays.K)
    if mode == "fast":
        _execute_fast(plan, arrays, alpha, beta)
    elif mode == "workgroup":
        _execute_workgroups(plan, arrays, alpha, beta)
    else:
        raise LaunchError(f"unknown execution mode {mode!r}")
    if injector is not None and injector.corrupts_result(
        device, fault_key, params=plan.params
    ):
        _corrupt_result(plan, arrays)


def _corrupt_result(plan: KernelPlan, arrays: ExecutionArrays) -> None:
    """Silently poison one output tile (no exception, no log)."""
    p = plan.params
    arrays.c[: min(p.mwg, arrays.M), : min(p.nwg, arrays.N)] = np.nan


def _execute_fast(plan: KernelPlan, ar: ExecutionArrays, alpha, beta) -> None:
    p = plan.params
    at = unpack_matrix(ar.a, p.layout_a, ar.K, ar.M, p.kwg, p.mwg)
    b = unpack_matrix(ar.b, p.layout_b, ar.K, ar.N, p.kwg, p.nwg)
    ar.c *= plan.dtype.type(beta)
    ar.c += plan.dtype.type(alpha) * (at.T @ b)


def _gather_a(plan: KernelPlan, ar: ExecutionArrays, kb: int, mb: int) -> np.ndarray:
    p = plan.params
    if p.guard_edges:
        return _clipped_tile(ar.a, ar.K, ar.M, kb, mb, p.kwg, p.mwg, plan.dtype)
    return tile_view(ar.a, p.layout_a, kb, mb, ar.K, ar.M, p.kwg, p.mwg)


def _gather_b(plan: KernelPlan, ar: ExecutionArrays, kb: int, nb: int) -> np.ndarray:
    p = plan.params
    if p.guard_edges:
        return _clipped_tile(ar.b, ar.K, ar.N, kb, nb, p.kwg, p.nwg, plan.dtype)
    return tile_view(ar.b, p.layout_b, kb, nb, ar.K, ar.N, p.kwg, p.nwg)


def _execute_workgroups(plan: KernelPlan, ar: ExecutionArrays, alpha, beta) -> None:
    """Per-work-group accumulation in k order, in ownership order.

    Every tile is gathered once per launch, its columns permuted into
    ownership order, and shared by all work-groups that read it: B tiles
    for the whole launch, A tiles for one row of work-groups at a time.
    Each work-group then sums one matmul per k-step; a k-step is a whole
    ``Kwg`` tile, except under DB, where it is each of the tile's halves.
    """
    p = plan.params
    grid_m, grid_n = plan.workgroup_grid(ar.M, ar.N)
    k_blocks = range(_k_blocks(plan, ar.K))
    rows = plan.row_permutation()
    cols = plan.col_permutation()
    b_steps = [
        _k_steps(plan, [_gather_b(plan, ar, kb, nb)[:, cols] for kb in k_blocks])
        for nb in range(grid_n)
    ]
    for mb in range(grid_m):
        a_steps = _k_steps(
            plan, [_gather_a(plan, ar, kb, mb)[:, rows] for kb in k_blocks]
        )
        for nb in range(grid_n):
            acc = np.zeros((p.mwg, p.nwg), dtype=plan.dtype)
            for a_step, b_step in zip(a_steps, b_steps[nb]):
                acc += a_step.T @ b_step
            _merge(plan, ar, mb, nb, acc, alpha, beta)


def _k_blocks(plan: KernelPlan, K: int) -> int:
    p = plan.params
    return -(-K // p.kwg) if p.guard_edges else K // p.kwg


def _k_steps(plan: KernelPlan, tiles: list[np.ndarray]) -> list[np.ndarray]:
    """The k-steps of one operand's tiles, in k order.

    BA and PL accumulate one whole tile per step.  DB (paper Fig. 6)
    computes on each tile as two half-height pieces, one per local
    buffer, so its steps are the halves.
    """
    if plan.params.algorithm is not Algorithm.DB:
        return tiles
    half = plan.params.kwg // 2
    return [piece for tile in tiles for piece in (tile[:half], tile[half:])]


def _merge(
    plan: KernelPlan, ar: ExecutionArrays, mb: int, nb: int, acc: np.ndarray,
    alpha, beta,
) -> None:
    """C = alpha * acc + beta * C on work-group (mb, nb)'s C tile.

    The plan's inverse ownership maps un-permute the accumulator, so a
    wrong ownership map corrupts the output.  Slicing clips the tile at
    the matrix edge: for a guarded kernel that is the bounds-checked
    store (out-of-range lanes write nothing); an unguarded kernel's
    tiles are always whole.
    """
    p = plan.params
    r0, c0 = mb * p.mwg, nb * p.nwg
    block = ar.c[r0 : r0 + p.mwg, c0 : c0 + p.nwg]
    rows, cols = block.shape
    acc = acc[plan.row_inverse[:rows]][:, plan.col_inverse[:cols]]
    block[...] = alpha * acc + beta * block
