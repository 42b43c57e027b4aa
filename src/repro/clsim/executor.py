"""Functional execution of kernel plans.

Two execution paths produce bit-identical results (the test suite checks
this property-style):

* ``workgroup`` — faithful: gathers each A and B tile once per launch
  through the layout address functions, its columns permuted into
  work-item ownership order, and shares it among the work-groups that
  read it.  It then iterates the work-group grid; each work-group walks
  the algorithm's k-loop structure (BA's single loop, PL's
  prologue/body/epilogue, DB's alternating half-buffers), stages tiles
  through simulated local-memory arrays when the plan says so,
  accumulates one matmul per k-step in ownership order, and merges with
  alpha/beta after un-permuting once through the plan's inverse
  ownership maps.  Index-arithmetic mistakes anywhere in the stack
  produce numerically wrong output.
* ``fast`` — whole-matrix: unpacks the operands from their layouts and
  issues one BLAS-3 call.  Used for large benchmark problems where the
  faithful path's Python-level loops would dominate.

A third path, ``scalar``, interprets every work-item individually —
lane loops in pure Python, each work-item loading through the ownership
maps and accumulating its own private ``cpm`` block.  It is far too slow
for anything but tiny problems and exists as the gold standard the other
two paths are differentially tested against.

Within a work-group the work-items are vectorised as numpy axes — the
idiomatic way to simulate a data-parallel device on a CPU (everything in
a work-group is, by OpenCL semantics, observationally equivalent to any
interleaving that respects barriers; the plan verified barrier-free
ownership/staging disjointness at build time).
"""

from __future__ import annotations

import numpy as np

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import tile_view
from repro.codegen.plan import KernelPlan
from repro.codegen.layouts import unpack_matrix
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
    elif mode == "scalar":
        _execute_scalar(plan, arrays, alpha, beta)
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


class _WorkGroup:
    """State of one simulated work-group: its tiles, local memory and
    accumulator.

    The accumulator is kept in *ownership order*: axis 0 runs over
    (M-lane, owned-element) pairs, axis 1 over (N-lane, owned-element)
    pairs, exactly the private `cpm` register blocks of the emitted
    kernel concatenated over the work-group.  The operand tiles arrive
    in the same order — gathered once per launch through the ownership
    maps and shared by every work-group that reads them — so each k-step
    is one plain matmul, and :meth:`merge` un-permutes the accumulator
    once through the plan's inverse maps.
    """

    def __init__(
        self,
        plan: KernelPlan,
        mb: int,
        nb: int,
        a_tiles: list[np.ndarray],
        b_tiles: list[np.ndarray],
    ):
        self.plan = plan
        self.mb = mb
        self.nb = nb
        #: Per k-block (Kwg x Mwg) A and (Kwg x Nwg) B tiles, columns in
        #: ownership order (the per-work-item private loads).
        self.a_tiles = a_tiles
        self.b_tiles = b_tiles
        p = plan.params
        self.acc = np.zeros((p.mwg, p.nwg), dtype=plan.dtype)
        # Simulated local memory (contents only; capacity was checked at
        # build time).  DB keeps two half-height buffers per matrix.
        self.alm: list[np.ndarray] = []
        self.blm: list[np.ndarray] = []

    def tiles(self, kb: int) -> tuple[np.ndarray, np.ndarray]:
        """The A and B tiles of k-block ``kb``."""
        return self.a_tiles[kb], self.b_tiles[kb]

    def stage(self, which: str, tile: np.ndarray, slot: int = 0) -> None:
        """Cooperative copy of a (half-)tile into a local buffer slot.

        The launch's tiles are private copies that nothing writes, so
        the slot holds the tile itself rather than another copy.
        """
        target = self.alm if which == "a" else self.blm
        while len(target) <= slot:
            target.append(np.empty((0, 0), dtype=self.plan.dtype))
        target[slot] = tile

    def local(self, which: str, slot: int = 0) -> np.ndarray:
        return (self.alm if which == "a" else self.blm)[slot]

    def multiply_add(self, a_tile: np.ndarray, b_tile: np.ndarray) -> None:
        """acc += a_tile^T @ b_tile, all three in ownership order.

        ``a_tile`` is (k x Mwg), ``b_tile`` is (k x Nwg), their columns
        already permuted by the ownership maps.
        """
        self.acc += a_tile.T @ b_tile

    def merge(self, ar: ExecutionArrays, alpha, beta) -> None:
        """C = alpha * acc + beta * C on this work-group's C tile.

        The plan's inverse ownership maps un-permute the accumulator, so
        a wrong ownership map corrupts the output.  Slicing clips the
        tile at the matrix edge: for a guarded kernel that is the
        bounds-checked store (out-of-range lanes write nothing); an
        unguarded kernel's tiles are always whole.
        """
        plan = self.plan
        p = plan.params
        r0, c0 = self.mb * p.mwg, self.nb * p.nwg
        block = ar.c[r0 : r0 + p.mwg, c0 : c0 + p.nwg]
        rows, cols = block.shape
        acc = self.acc[plan.row_inverse[:rows]][:, plan.col_inverse[:cols]]
        block[...] = alpha * acc + beta * block


def _execute_scalar(plan: KernelPlan, ar: ExecutionArrays, alpha, beta) -> None:
    """Interpret every work-item individually (gold-standard path).

    Mirrors the emitted kernel line by line: each lane ``(i0, j0)`` of
    each work-group accumulates its private ``cpm[mwi][nwi]`` block by
    walking the k dimension in ``kwi`` steps through its ownership maps,
    then merges with alpha/beta.  O(lanes) Python loops — use only for
    tiny problems.
    """
    p = plan.params
    dtype = plan.dtype
    grid_m, grid_n = plan.workgroup_grid(ar.M, ar.N)
    row_owner = plan.row_owner  # (mdimc, mwi)
    col_owner = plan.col_owner  # (ndimc, nwi)
    for mb in range(grid_m):
        for nb in range(grid_n):
            # Local memory contents are tile copies; staging geometry was
            # verified at plan build, so gather the tiles once per group.
            tiles = [
                (_gather_a(plan, ar, kb, mb), _gather_b(plan, ar, kb, nb))
                for kb in range(_k_blocks(plan, ar.K))
            ]
            for i0 in range(p.mdimc):
                rows = row_owner[i0]
                for j0 in range(p.ndimc):
                    cols = col_owner[j0]
                    cpm = np.zeros((p.mwi, p.nwi), dtype=dtype)
                    for a_tile, b_tile in tiles:
                        for pwi in range(0, p.kwg, p.kwi):
                            # apm / bpm: the work-item's private fragments.
                            apm = a_tile[pwi:pwi + p.kwi][:, rows]
                            bpm = b_tile[pwi:pwi + p.kwi][:, cols]
                            cpm += apm.T @ bpm
                    gi = mb * p.mwg + rows
                    gj = nb * p.nwg + cols
                    rsel = gi < ar.M
                    csel = gj < ar.N
                    if not rsel.any() or not csel.any():
                        continue
                    cidx = np.ix_(gi[rsel], gj[csel])
                    ar.c[cidx] = (alpha * cpm[np.ix_(np.flatnonzero(rsel),
                                                     np.flatnonzero(csel))]
                                  + beta * ar.c[cidx])


def _execute_workgroups(plan: KernelPlan, ar: ExecutionArrays, alpha, beta) -> None:
    p = plan.params
    grid_m, grid_n = plan.workgroup_grid(ar.M, ar.N)
    k_blocks = range(_k_blocks(plan, ar.K))
    runner = {
        Algorithm.BA: _run_ba,
        Algorithm.PL: _run_pl,
        Algorithm.DB: _run_db,
    }[p.algorithm]
    rows = plan.row_permutation()
    cols = plan.col_permutation()
    # Every tile is gathered once per launch, in ownership order, and
    # shared by all work-groups that read it: B tiles for the whole
    # launch, A tiles for one row of work-groups at a time.
    b_tiles = [
        [_gather_b(plan, ar, kb, nb)[:, cols] for kb in k_blocks]
        for nb in range(grid_n)
    ]
    for mb in range(grid_m):
        a_tiles = [_gather_a(plan, ar, kb, mb)[:, rows] for kb in k_blocks]
        for nb in range(grid_n):
            wg = _WorkGroup(plan, mb, nb, a_tiles, b_tiles[nb])
            runner(plan, wg)
            wg.merge(ar, alpha, beta)


def _k_blocks(plan: KernelPlan, K: int) -> int:
    p = plan.params
    return -(-K // p.kwg) if p.guard_edges else K // p.kwg


def _run_ba(plan: KernelPlan, wg: _WorkGroup) -> None:
    """Basic algorithm (paper Fig. 4): stage, barrier, compute, barrier."""
    p = plan.params
    for kb in range(len(wg.a_tiles)):
        a_tile, b_tile = wg.tiles(kb)
        if p.shared_a:
            wg.stage("a", a_tile)
            a_src = wg.local("a")
        else:
            a_src = a_tile
        if p.shared_b:
            wg.stage("b", b_tile)
            b_src = wg.local("b")
        else:
            b_src = b_tile
        # barrier; inner pwi loop (fully unrolled in Kwi steps); barrier.
        wg.multiply_add(a_src, b_src)


def _run_pl(plan: KernelPlan, wg: _WorkGroup) -> None:
    """Software pipelining (paper Fig. 5).

    The body computes on the tiles staged in local memory while the
    *next* tiles travel global -> private; they are committed to local
    memory after a barrier.  Functionally: compute always uses the tiles
    staged in the previous step, and the epilogue consumes the last ones.
    """
    p = plan.params
    if not (p.shared_a or p.shared_b):
        _run_ba(plan, wg)  # degenerate PL (no local memory): same order
        return
    n_iter = len(wg.a_tiles)
    # Prologue: stage tiles of k-block 0.
    a_tile, b_tile = wg.tiles(0)
    if p.shared_a:
        wg.stage("a", a_tile)
    if p.shared_b:
        wg.stage("b", b_tile)
    for kb in range(n_iter - 1):
        # Prefetch next tiles into private staging...
        prefetch_a, prefetch_b = wg.tiles(kb + 1)
        # ...compute on the currently staged tiles...
        cur_a = wg.local("a") if p.shared_a else wg.a_tiles[kb]
        cur_b = wg.local("b") if p.shared_b else wg.b_tiles[kb]
        wg.multiply_add(cur_a, cur_b)
        # ...barrier; commit the prefetch; barrier.
        if p.shared_a:
            wg.stage("a", prefetch_a)
        if p.shared_b:
            wg.stage("b", prefetch_b)
    # Epilogue: the last staged tiles.
    last = n_iter - 1
    cur_a = wg.local("a") if p.shared_a else wg.a_tiles[last]
    cur_b = wg.local("b") if p.shared_b else wg.b_tiles[last]
    wg.multiply_add(cur_a, cur_b)


def _run_db(plan: KernelPlan, wg: _WorkGroup) -> None:
    """Double buffering (paper Fig. 6).

    Each ``Kwg`` tile is processed as two half-height pieces; while one
    half-buffer is computed on, the other is being filled.  Buffer 0
    holds even halves, buffer 1 odd halves.
    """
    p = plan.params
    half = p.kwg // 2

    def halves(kb: int):
        a_tile, b_tile = wg.tiles(kb)
        return (
            (a_tile[:half], a_tile[half:]),
            (b_tile[:half], b_tile[half:]),
        )

    def compute(a_half, b_half, slot):
        a_src = wg.local("a", slot) if p.shared_a else a_half
        b_src = wg.local("b", slot) if p.shared_b else b_half
        wg.multiply_add(a_src, b_src)

    n_iter = len(wg.a_tiles)
    # Prologue: fill slot 0 with the first half of k-block 0.
    (a0, a1), (b0, b1) = halves(0)
    if p.shared_a:
        wg.stage("a", a0, slot=0)
    if p.shared_b:
        wg.stage("b", b0, slot=0)
    for kb in range(n_iter):
        (a0, a1), (b0, b1) = halves(kb)
        # Load odd half into slot 1 while computing on slot 0.
        if p.shared_a:
            wg.stage("a", a1, slot=1)
        if p.shared_b:
            wg.stage("b", b1, slot=1)
        compute(a0, b0, slot=0)
        # Load the *next* block's even half into slot 0 while computing
        # on slot 1 (the epilogue has no next block).
        if kb + 1 < n_iter:
            (na0, _), (nb0, _) = halves(kb + 1)
            if p.shared_a:
                wg.stage("a", na0, slot=0)
            if p.shared_b:
                wg.stage("b", nb0, slot=0)
        compute(a1, b1, slot=1)
