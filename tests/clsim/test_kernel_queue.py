"""Kernel argument binding, ND-range validation, queue and events."""

import numpy as np
import pytest

import repro.clsim as cl
import repro.clsim.queue as queue_mod
from repro.clsim.faults import FaultInjector, FaultPlan
from repro.clsim.queue import ExecutionMode
from repro.codegen.emitter import emit_kernel_source
from repro.codegen.layouts import pack_matrix
from repro.errors import CLError, LaunchError

from tests.conftest import make_params


def _setup(params=None, device="tahiti", n=16, **queue_kwargs):
    params = params or make_params()
    dev = cl.get_device(device)
    ctx = cl.Context([dev])
    queue = cl.CommandQueue(ctx, dev, **queue_kwargs)
    rng = np.random.default_rng(0)
    dtype = np.float64 if params.precision == "d" else np.float32
    at = rng.standard_normal((n, n)).astype(dtype)  # K x M
    b = rng.standard_normal((n, n)).astype(dtype)
    c = rng.standard_normal((n, n)).astype(dtype)
    abuf = cl.Buffer(ctx, hostbuf=pack_matrix(at, params.layout_a, params.kwg, params.mwg))
    bbuf = cl.Buffer(ctx, hostbuf=pack_matrix(b, params.layout_b, params.kwg, params.nwg))
    cbuf = cl.Buffer(ctx, hostbuf=c.copy())
    prog = cl.Program(ctx, emit_kernel_source(params)).build()
    kern = prog.gemm_atb
    return queue, kern, (at, b, c), (abuf, bbuf, cbuf), ctx


class TestKernelArgs:
    def test_args_must_be_set_before_launch(self):
        queue, kern, _, _, _ = _setup()
        with pytest.raises(LaunchError, match="no arguments"):
            queue.launch(kern, (4, 4), (4, 4))

    def test_size_args_must_be_positive_ints(self):
        _, kern, _, (a, b, c), _ = _setup()
        with pytest.raises(LaunchError, match="positive int"):
            kern.set_args(0, 16, 16, 1.0, 0.0, a, b, c)
        with pytest.raises(LaunchError, match="positive int"):
            kern.set_args(16.5, 16, 16, 1.0, 0.0, a, b, c)

    def test_buffer_args_must_be_buffers(self):
        _, kern, (at, b, c), (abuf, bbuf, _), _ = _setup()
        with pytest.raises(LaunchError, match="Buffer"):
            kern.set_args(16, 16, 16, 1.0, 0.0, abuf, bbuf, c)

    def test_expected_global_size(self):
        _, kern, _, (a, b, c), _ = _setup()
        kern.set_args(16, 16, 16, 1.0, 0.0, a, b, c)
        assert kern.expected_global_size() == (4, 4)


class TestNDRangeValidation:
    def _bound_kernel(self):
        queue, kern, _, (a, b, c), _ = _setup()
        kern.set_args(16, 16, 16, 1.0, 0.0, a, b, c)
        return queue, kern

    def test_wrong_local_size(self):
        queue, kern = self._bound_kernel()
        with pytest.raises(LaunchError, match="reqd_work_group_size"):
            queue.launch(kern, (4, 4), (8, 2))

    def test_wrong_global_size(self):
        queue, kern = self._bound_kernel()
        with pytest.raises(LaunchError, match="cover"):
            queue.launch(kern, (8, 8), (4, 4))

    def test_correct_launch_succeeds(self):
        queue, kern = self._bound_kernel()
        event = queue.launch(kern, (4, 4), (4, 4))
        assert event.is_complete


class TestExecutionAndProfiling:
    def test_launch_computes_gemm(self):
        queue, kern, (at, b, c), (abuf, bbuf, cbuf), _ = _setup()
        kern.set_args(16, 16, 16, 2.0, -1.0, abuf, bbuf, cbuf)
        queue.launch(kern, (4, 4), (4, 4))
        expected = 2.0 * (at.T @ b) - 1.0 * c
        np.testing.assert_allclose(cbuf.read().reshape(16, 16), expected, rtol=1e-12)

    def test_event_profile_duration_positive_and_monotonic(self):
        queue, kern, _, (a, b, c), _ = _setup()
        kern.set_args(16, 16, 16, 1.0, 0.0, a, b, c)
        e1 = queue.launch(kern, (4, 4), (4, 4))
        e2 = queue.launch(kern, (4, 4), (4, 4))
        assert e1.profile.duration > 0
        assert e2.profile.start >= e1.profile.end  # in-order queue clock
        assert queue.simulated_clock_ns >= e2.profile.end

    def test_breakdown_attached_to_kernel_events(self):
        queue, kern, _, (a, b, c), _ = _setup()
        kern.set_args(16, 16, 16, 1.0, 0.0, a, b, c)
        event = queue.launch(kern, (4, 4), (4, 4))
        assert event.breakdown is not None
        assert event.breakdown.gflops > 0

    def test_workgroup_and_fast_modes_agree(self):
        results = {}
        for mode in (ExecutionMode.WORKGROUP, ExecutionMode.FAST):
            queue, kern, (at, b, c), (abuf, bbuf, cbuf), _ = _setup(
                execution_mode=mode
            )
            kern.set_args(16, 16, 16, 1.5, 0.5, abuf, bbuf, cbuf)
            queue.launch(kern, (4, 4), (4, 4))
            results[mode] = cbuf.read()
        np.testing.assert_allclose(
            results[ExecutionMode.WORKGROUP], results[ExecutionMode.FAST],
            rtol=1e-12,
        )

    def test_noise_free_queue_is_deterministic(self):
        durations = []
        for _ in range(2):
            queue, kern, _, (a, b, c), _ = _setup(measurement_noise=False)
            kern.set_args(16, 16, 16, 1.0, 0.0, a, b, c)
            durations.append(queue.launch(kern, (4, 4), (4, 4)).profile.duration)
        assert durations[0] == durations[1]


class TestEstimateMemo:
    """The bound kernel memoizes its modelled launch cost; events must not
    tell whether an estimate came from the memo."""

    SHAPES = [(16, 16, 16), (32, 16, 16), (16, 16, 16), (32, 32, 48),
              (32, 16, 16), (16, 16, 16), (32, 32, 48), (16, 16, 16)]

    @staticmethod
    def _bind(kern, ctx, M, N, K):
        """Bind an ``M x N x K`` launch to zeroed buffers of its size."""
        dtype = np.float64 if kern.params.precision == "d" else np.float32
        a, b, c = (cl.Buffer(ctx, hostbuf=np.zeros(n, dtype=dtype))
                   for n in (K * M, K * N, M * N))
        kern.set_args(M, N, K, 1.0, 0.0, a, b, c)

    def _events(self, noise, memo):
        queue, kern, _, _, ctx = _setup(measurement_noise=noise)
        ctx.fault_injector = FaultInjector(FaultPlan.parse("timing:0.5", seed=3))
        events = []
        for M, N, K in self.SHAPES:
            self._bind(kern, ctx, M, N, K)
            if not memo:
                kern.estimates.clear()
            events.append(queue.launch(kern, kern.expected_global_size(), (4, 4)))
        assert len(kern.estimates) == (3 if memo else 1)
        return events

    @pytest.mark.parametrize("noise", [True, False])
    def test_same_profiles_and_breakdowns_with_and_without_memo(self, noise):
        with_memo = self._events(noise, memo=True)
        without = self._events(noise, memo=False)
        assert [e.profile for e in with_memo] == [e.profile for e in without]
        assert [e.breakdown for e in with_memo] == [e.breakdown for e in without]
        # The timing fault scales some launches, after the lookup.
        spiked = [e for e in with_memo
                  if e.profile.duration != round(e.breakdown.total_seconds * 1e9)]
        assert 0 < len(spiked) < len(with_memo)

    def test_noise_setting_is_part_of_the_key(self):
        queue, kern, _, (a, b, c), _ = _setup()
        kern.set_args(16, 16, 16, 1.0, 0.0, a, b, c)
        noisy = queue.launch(kern, (4, 4), (4, 4)).breakdown
        queue.measurement_noise = False
        clean = queue.launch(kern, (4, 4), (4, 4)).breakdown
        assert noisy.total_seconds != clean.total_seconds
        assert len(kern.estimates) == 2

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(queue_mod, "_ESTIMATE_MEMO_SIZE", 2)
        queue, kern, _, _, ctx = _setup()
        for n in (16, 32, 48, 64, 16):
            self._bind(kern, ctx, n, n, n)
            event = queue.launch(kern, kern.expected_global_size(), (4, 4))
            assert event.breakdown == queue_mod.estimate_kernel_time(
                queue.device.spec, kern.params, n, n, n
            )
            assert len(kern.estimates) <= 2


class TestQuirks:
    def test_bulldozer_pl_dgemm_fails_to_execute(self):
        from repro.codegen.algorithms import Algorithm

        params = make_params(algorithm=Algorithm.PL, shared_b=True)
        queue, kern, _, (a, b, c), _ = _setup(params, device="bulldozer")
        kern.set_args(16, 16, 16, 1.0, 0.0, a, b, c)
        with pytest.raises(LaunchError, match="failed to execute"):
            queue.launch(kern, (4, 4), (4, 4))

    def test_bulldozer_pl_sgemm_runs(self):
        from repro.codegen.algorithms import Algorithm

        params = make_params(precision="s", algorithm=Algorithm.PL, shared_b=True)
        queue, kern, (at, b, c), (abuf, bbuf, cbuf), _ = _setup(
            params, device="bulldozer"
        )
        kern.set_args(16, 16, 16, 1.0, 0.0, abuf, bbuf, cbuf)
        queue.launch(kern, (4, 4), (4, 4))
        np.testing.assert_allclose(
            cbuf.read().reshape(16, 16), at.T @ b, rtol=1e-4
        )


class TestCopy:
    def test_host_device_round_trip(self):
        dev = cl.get_device("tahiti")
        ctx = cl.Context([dev])
        queue = cl.CommandQueue(ctx, dev)
        data = np.arange(32, dtype=np.float32)
        buf = cl.Buffer(ctx, size=data.nbytes, dtype=np.float32)
        event = cl.enqueue_copy(queue, buf, data)
        assert event.profile.duration > 0
        out = np.empty_like(data)
        cl.enqueue_copy(queue, out, buf)
        np.testing.assert_array_equal(out, data)

    def test_device_to_device(self):
        dev = cl.get_device("tahiti")
        ctx = cl.Context([dev])
        queue = cl.CommandQueue(ctx, dev)
        src = cl.Buffer(ctx, hostbuf=np.ones(8))
        dst = cl.Buffer(ctx, size=src.size, dtype=np.float64)
        cl.enqueue_copy(queue, dst, src)
        np.testing.assert_array_equal(dst.array, src.array)

    def test_size_mismatch(self):
        dev = cl.get_device("tahiti")
        ctx = cl.Context([dev])
        queue = cl.CommandQueue(ctx, dev)
        buf = cl.Buffer(ctx, hostbuf=np.ones(8))
        with pytest.raises(CLError):
            cl.enqueue_copy(queue, np.empty(4), buf)

    def test_queue_device_must_belong_to_context(self):
        ctx = cl.Context([cl.get_device("tahiti")])
        with pytest.raises(CLError, match="not part"):
            cl.CommandQueue(ctx, cl.get_device("fermi"))
