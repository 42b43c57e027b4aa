"""Functional correctness of the plan executor.

The central correctness property of the whole stack: for every
combination of algorithm, layouts, stride modes, vector widths and
local-memory staging in the parameter matrix, the executed kernel must
reproduce ``alpha * A^T B + beta * C`` exactly — through the real index
structure (ownership permutations, tile gathers, DB's half-tile steps).
"""

import dataclasses

import numpy as np
import pytest

from repro.clsim.executor import ExecutionArrays, execute_plan
from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import pack_matrix
from repro.codegen.params import StrideMode
from repro.codegen.plan import build_plan
from repro.errors import LaunchError
from repro.spec.differential import classify_program
from repro.spec.enumerate import SpecProgram

from tests.conftest import PARAM_MATRIX, make_params, param_id


def _operands(params, M, N, K, seed=0):
    """Unpadded row-major ``at`` (K x M), ``b`` (K x N) and ``c``."""
    rng = np.random.default_rng(seed)
    dtype = np.float64 if params.precision == "d" else np.float32
    at = rng.standard_normal((K, M)).astype(dtype)
    b = rng.standard_normal((K, N)).astype(dtype)
    c = rng.standard_normal((M, N)).astype(dtype)
    return at, b, c


def _run_plan(plan, at, b, c, alpha, beta, mode="workgroup"):
    """Run ``plan`` on the operands, packed into the plan's layouts."""
    p = plan.params
    (K, M), N = at.shape, b.shape[1]
    if p.guard_edges:  # guarded kernels read the unpadded operands
        a_flat, b_flat = at.reshape(-1).copy(), b.reshape(-1).copy()
    else:
        a_flat = pack_matrix(at, p.layout_a, p.kwg, p.mwg)
        b_flat = pack_matrix(b, p.layout_b, p.kwg, p.nwg)
    c_flat = c.reshape(-1).copy()
    arrays = ExecutionArrays(plan, a_flat, b_flat, c_flat, M, N, K)
    execute_plan(plan, arrays, alpha, beta, mode=mode)
    return c_flat.reshape(M, N)


def _run(params, M, N, K, alpha=1.5, beta=-0.5, mode="workgroup", seed=0):
    at, b, c = _operands(params, M, N, K, seed=seed)
    got = _run_plan(build_plan(params), at, b, c, alpha, beta, mode=mode)
    return got, alpha * (at.T @ b) + beta * c


@pytest.mark.parametrize("params", PARAM_MATRIX, ids=lambda p: p.summary()[:48])
class TestCorrectnessMatrix:
    def _sizes(self, params):
        # Smallest launchable problem plus one with several tiles per dim.
        m0 = params.mwg
        n0 = params.nwg
        k0 = params.algorithm.min_k_iterations * params.kwg
        return [(m0, n0, k0), (3 * m0, 2 * n0, k0 + 2 * params.kwg)]

    def test_workgroup_mode_matches_reference(self, params):
        tol = 1e-12 if params.precision == "d" else 1e-4
        for M, N, K in self._sizes(params):
            got, expected = _run(params, M, N, K)
            np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)

    def test_fast_mode_matches_workgroup_mode(self, params):
        # The two paths accumulate in different orders (per-Kwg blocks vs
        # one whole-K product), so they agree to rounding, not bit-for-bit.
        tol = 1e-12 if params.precision == "d" else 5e-4
        M, N, K = self._sizes(params)[1]
        got_wg, _ = _run(params, M, N, K, mode="workgroup")
        got_fast, _ = _run(params, M, N, K, mode="fast")
        np.testing.assert_allclose(got_wg, got_fast, rtol=tol, atol=tol)


class TestScalars:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 1.0), (2.5, 1.0),
                                            (-1.0, -2.0), (0.0, 0.0)])
    def test_alpha_beta_combinations(self, alpha, beta):
        params = make_params()
        got, expected = _run(params, 32, 32, 16, alpha=alpha, beta=beta)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_beta_zero_overwrites_garbage(self):
        # With beta=0 the previous C contents must not leak through.
        params = make_params()
        got, expected = _run(params, 16, 16, 8, alpha=1.0, beta=0.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestNonSquare:
    def test_rectangular_problem(self):
        params = make_params()
        got, expected = _run(params, 48, 16, 24)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_deep_k(self):
        params = make_params(kwg=8)
        got, expected = _run(params, 16, 16, 96)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestValidation:
    def test_rejects_wrong_dtype(self):
        params = make_params(precision="d")
        plan = build_plan(params)
        bad = np.zeros(16 * 16, dtype=np.float32)
        good = np.zeros(16 * 16, dtype=np.float64)
        with pytest.raises(LaunchError, match="dtype"):
            ExecutionArrays(plan, bad, good, good, 16, 16, 16)

    def test_rejects_wrong_buffer_size(self):
        params = make_params()
        plan = build_plan(params)
        good = np.zeros(16 * 16, dtype=np.float64)
        short = np.zeros(100, dtype=np.float64)
        with pytest.raises(LaunchError, match="elements"):
            ExecutionArrays(plan, short, good, good, 16, 16, 16)

    def test_rejects_indivisible_problem(self):
        params = make_params()  # kwg=8; K=20 is not a multiple
        plan = build_plan(params)
        a = np.zeros(20 * 16, dtype=np.float64)
        b = np.zeros(20 * 16, dtype=np.float64)
        c = np.zeros(16 * 16, dtype=np.float64)
        arrays = ExecutionArrays(plan, a, b, c, 16, 16, 20)
        with pytest.raises(LaunchError, match="divisible"):
            execute_plan(plan, arrays, 1.0, 0.0)

    def test_rejects_unknown_mode(self):
        params = make_params()
        plan = build_plan(params)
        z = np.zeros(16 * 16, dtype=np.float64)
        arrays = ExecutionArrays(plan, z.copy(), z.copy(), z.copy(), 16, 16, 16)
        with pytest.raises(LaunchError, match="mode"):
            execute_plan(plan, arrays, 1.0, 0.0, mode="warp")


class TestSpecAgreement:
    """Differential testing against the executable spec: the emitted
    source, interpreted work-item by work-item with local memory and
    barriers, agrees with this executor and numpy across the whole
    parameter matrix."""

    @staticmethod
    def _assert_agrees(params, shape):
        program = SpecProgram(index=0, params=params, shape=shape,
                              alpha=1.5, beta=-0.5)
        record = classify_program(program)
        assert record.classification == "agree", \
            f"{record.description}: {record.classification} {record.detail}"

    @pytest.mark.parametrize("params", PARAM_MATRIX,
                             ids=lambda p: p.summary()[:48])
    def test_spec_agrees_at_minimal_launch(self, params):
        K = params.algorithm.min_k_iterations * params.kwg
        self._assert_agrees(params, (params.mwg, params.nwg, K))

    def test_spec_agrees_multi_tile(self):
        params = make_params(stride=StrideMode(m=True, n=True),
                             vw=2, mwg=32, nwg=32)
        self._assert_agrees(params, (64, 32, 16))


def _serve_sizes(params):
    """Serve-sized problems; guarded kernels also get ragged edges."""
    p = params
    k0 = p.algorithm.min_k_iterations * p.kwg
    sizes = [(p.mwg, p.nwg, k0), (2 * p.mwg, 3 * p.nwg, k0 + 2 * p.kwg)]
    if p.guard_edges:
        sizes += [(p.mwg + 3, 2 * p.nwg - 5, p.kwg + 1), (5, 7, 3), (100, 37, 77)]
    return sizes


def _reference_workgroups(params, at, b, c, alpha, beta):
    """Per-work-group accumulation in k order, one matmul per k-tile.

    Each work-group sums ``at[k-tile, tile].T @ b[k-tile, tile]`` over its
    k-tiles in order (DB: each tile as its two halves), over zero-padded
    operands, then merges with alpha/beta on its in-range part.
    """
    p = params
    (K, M), N = at.shape, b.shape[1]
    gm, gn, gk = -(-M // p.mwg), -(-N // p.nwg), -(-K // p.kwg)
    atp = np.zeros((gk * p.kwg, gm * p.mwg), dtype=at.dtype)
    atp[:K, :M] = at
    bp = np.zeros((gk * p.kwg, gn * p.nwg), dtype=b.dtype)
    bp[:K, :N] = b
    step = p.kwg // 2 if p.algorithm is Algorithm.DB else p.kwg
    out = c.copy()
    for mb in range(gm):
        ms = slice(mb * p.mwg, (mb + 1) * p.mwg)
        for nb in range(gn):
            ns = slice(nb * p.nwg, (nb + 1) * p.nwg)
            acc = np.zeros((p.mwg, p.nwg), dtype=at.dtype)
            for k0 in range(0, gk * p.kwg, step):
                ks = slice(k0, k0 + step)
                acc += atp[ks, ms].T @ bp[ks, ns]
            block = out[ms, ns]
            rows, cols = block.shape
            block[...] = alpha * acc[:rows, :cols] + beta * block
    return out


class TestBitwiseSummationOrder:
    """The workgroup path's summation order is pinned bit for bit: served
    results (and so ``BENCH_serving.json``) depend on it."""

    @pytest.mark.parametrize("params", PARAM_MATRIX,
                             ids=lambda p: p.summary()[:48])
    def test_workgroup_matches_per_tile_reference_bitwise(self, params):
        plan = build_plan(params)
        for seed, (M, N, K) in enumerate(_serve_sizes(params)):
            at, b, c = _operands(params, M, N, K, seed=seed)
            got = _run_plan(plan, at, b, c, 1.5, -0.5)
            want = _reference_workgroups(params, at, b, c, 1.5, -0.5)
            assert np.array_equal(got, want), (M, N, K)


_TAMPER_PARAMS = [
    make_params(guard_edges=guard, **extra)
    for guard in (False, True)
    for extra in (
        {},
        dict(algorithm=Algorithm.PL, shared_a=True, shared_b=True),
        dict(algorithm=Algorithm.DB, shared_a=True, shared_b=True),
    )
]


class TestOwnershipTamper:
    """A wrong ownership map corrupts the output: the accumulator stays in
    ownership order and is un-permuted only at the merge."""

    @pytest.mark.parametrize("axis", ["row_owner", "col_owner"])
    @pytest.mark.parametrize("params", _TAMPER_PARAMS, ids=param_id)
    def test_duplicated_lane_gives_wrong_output(self, params, axis):
        plan = build_plan(params)
        owner = getattr(plan, axis).copy()
        owner[1] = owner[0]  # lane 1 claims lane 0's elements
        tampered = dataclasses.replace(plan, **{axis: owner})
        M, N = 2 * params.mwg, params.nwg
        K = params.algorithm.min_k_iterations * params.kwg
        if params.guard_edges:
            M, N, K = M + 3, N + 5, K - 1  # ragged edges past the first tile
        at, b, c = _operands(params, M, N, K)
        good = _run_plan(plan, at, b, c, 1.5, -0.5)
        np.testing.assert_allclose(good, 1.5 * (at.T @ b) - 0.5 * c,
                                   rtol=1e-12, atol=1e-12)
        bad = _run_plan(tampered, at, b, c, 1.5, -0.5)
        assert not np.allclose(bad, good)
