"""Program building: the simulator's compiler front-end."""

import numpy as np
import pytest

import repro.clsim as cl
from repro.codegen.emitter import emit_kernel_source
from repro.codegen.plan import build_plan
from repro.errors import BuildError, ResourceError

from tests.conftest import make_params


def _ctx(device="tahiti"):
    return cl.Context([cl.get_device(device)])


class TestBuildSuccess:
    def test_build_returns_self_and_sets_log(self):
        prog = cl.Program(_ctx(), emit_kernel_source(make_params()))
        assert prog.build() is prog
        assert "tahiti: ok" in prog.build_log

    def test_kernel_access_after_build(self):
        prog = cl.Program(_ctx(), emit_kernel_source(make_params())).build()
        assert prog.get_kernel("gemm_atb").name == "gemm_atb"
        assert prog.gemm_atb is prog.get_kernel("gemm_atb")

    def test_params_and_plan_exposed(self):
        p = make_params(shared_b=True)
        prog = cl.Program(_ctx(), emit_kernel_source(p)).build()
        assert prog.params == p
        assert prog.plan.params == p
        plan = build_plan(p)
        np.testing.assert_array_equal(prog.plan.row_owner, plan.row_owner)
        np.testing.assert_array_equal(prog.plan.col_owner, plan.col_owner)

    def test_build_log_reports_residency(self):
        prog = cl.Program(_ctx(), emit_kernel_source(make_params())).build()
        assert "work-group(s)/CU" in prog.build_log


class TestBuildFailures:
    def test_unbuilt_program_has_no_kernels(self):
        prog = cl.Program(_ctx(), emit_kernel_source(make_params()))
        with pytest.raises(BuildError, match="built"):
            prog.get_kernel("gemm_atb")
        with pytest.raises(BuildError):
            _ = prog.params

    def test_foreign_source_rejected(self):
        prog = cl.Program(_ctx(), "__kernel void foo() {}")
        with pytest.raises(BuildError, match="GEMMGEN"):
            prog.build()
        assert prog.build_log

    def test_workgroup_too_large_for_device(self):
        # 32x32 = 1024 work-items exceeds Tahiti's 256 limit.
        p = make_params(mwg=32, nwg=32, mdimc=32, ndimc=32)
        prog = cl.Program(_ctx("tahiti"), emit_kernel_source(p))
        with pytest.raises(ResourceError, match="work-group size"):
            prog.build()
        assert "work-group size" in prog.build_log
        # The same kernel builds on Fermi (limit 1024).
        cl.Program(_ctx("fermi"), emit_kernel_source(p)).build()

    def test_local_memory_over_capacity(self):
        # Two 96x48 double tiles need 72 kB of local memory > Tahiti's 64 kB.
        p = make_params(mwg=96, nwg=96, kwg=48, mdimc=8, ndimc=8,
                        shared_a=True, shared_b=True, kwi=2)
        prog = cl.Program(_ctx("tahiti"), emit_kernel_source(p))
        with pytest.raises(ResourceError, match="local memory"):
            prog.build()

    def test_register_cap_on_fermi(self):
        # A big private tile spills far beyond Fermi's 63-register cap.
        p = make_params(precision="d", mwg=128, nwg=64, mdimc=8, ndimc=8)
        assert p.mwi * p.nwi == 128  # 1 kB of accumulators alone
        prog = cl.Program(_ctx("fermi"), emit_kernel_source(p))
        with pytest.raises(ResourceError, match="register"):
            prog.build()
        # Tahiti's 1 kB/work-item budget tolerates it.
        cl.Program(_ctx("tahiti"), emit_kernel_source(p)).build()

    def test_unknown_kernel_name(self):
        prog = cl.Program(_ctx(), emit_kernel_source(make_params())).build()
        with pytest.raises(BuildError, match="no kernel"):
            prog.get_kernel("nonexistent")
