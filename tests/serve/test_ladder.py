"""Degradation-ladder rungs: memoized service-time predictions."""

from __future__ import annotations

import repro.serve.ladder as ladder_mod
from repro.devices.catalog import get_device_spec
from repro.gemm.routine import predict_implementation
from repro.serve.ladder import DegradationLadder

from tests.conftest import make_params

SHAPES = [(64, 64, 64), (17, 33, 9), (64, 64, 64), (128, 8, 96), (64, 64, 32),
          (17, 33, 9)]


def _model_s(spec, params, M, N, K):
    return predict_implementation(spec, params, M, N, K, noise=False).total_s


class TestRungPredictions:
    def test_predict_s_is_the_noise_free_model(self):
        ladder = DegradationLadder(["tahiti"], "d")
        spec = get_device_spec("tahiti")
        for rung in ladder.device_rungs("tahiti"):
            for M, N, K in SHAPES:
                assert rung.predict_s(M, N, K) == _model_s(spec, rung.params, M, N, K)

    def test_reference_rung_uses_host_rate(self):
        ladder = DegradationLadder(["tahiti"], "d", host_gflops=4.0)
        host = ladder.rungs[-1]
        assert host.is_reference
        assert host.predict_s(10, 20, 30) == 2.0 * 10 * 20 * 30 / 4e9

    def test_hot_swapped_rung_predicts_for_its_new_params(self):
        ladder = DegradationLadder(["tahiti"], "d")
        spec = get_device_spec("tahiti")
        old = ladder.primary_rung("tahiti")
        before = {s: old.predict_s(*s) for s in SHAPES}
        params = make_params()
        assert params != old.params
        new = ladder.replace_primary("tahiti", params)
        assert new is not old and ladder.primary_rung("tahiti") is new
        for shape in SHAPES:
            got = new.predict_s(*shape)
            assert got == _model_s(spec, params, *shape)
            assert got != before[shape]
            assert old.predict_s(*shape) == before[shape]  # old rung untouched

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(ladder_mod, "_PREDICT_MEMO_SIZE", 2)
        rung = DegradationLadder(["tahiti"], "d").primary_rung("tahiti")
        spec = get_device_spec("tahiti")
        for M in range(8, 16):
            assert rung.predict_s(M, 32, 32) == _model_s(spec, rung.params, M, 32, 32)
            assert len(rung._predicted) <= 2
