"""Kernel objects: argument binding and launch validation."""

from __future__ import annotations

import numbers
from typing import Optional, Tuple

from repro.clsim.memory import Buffer, Image2D
from repro.errors import LaunchError

__all__ = ["Kernel", "PackKernel"]

#: Argument signature of every generated GEMM kernel:
#: (M, N, K, alpha, beta, agm, bgm, cgm).
_N_ARGS = 8


class Kernel:
    """A kernel object (``cl_kernel`` analogue) bound to a built program."""

    def __init__(self, program, name: str):
        self.program = program
        self.name = name
        self._args: Optional[tuple] = None
        #: Modelled launch costs by (device, M, N, K, noise), filled by
        #: :meth:`CommandQueue.launch`: the kernel's params never change,
        #: so each launch shape is modelled once.
        self.estimates: dict = {}

    @property
    def plan(self):
        return self.program.plan

    @property
    def params(self):
        return self.program.params

    def set_args(
        self,
        M: int,
        N: int,
        K: int,
        alpha: float,
        beta: float,
        agm: Buffer,
        bgm: Buffer,
        cgm: Buffer,
    ) -> None:
        """Bind the kernel arguments (``clSetKernelArg`` analogue)."""
        for label, v in (("M", M), ("N", N), ("K", K)):
            if not isinstance(v, numbers.Integral) or v <= 0:
                raise LaunchError(f"kernel size argument {label} must be a positive int")
        for label, v in (("alpha", alpha), ("beta", beta)):
            if not isinstance(v, numbers.Real):
                raise LaunchError(f"kernel scalar argument {label} must be a real number")
        operand_type = Image2D if self.params.use_images else Buffer
        for label, buf in (("agm", agm), ("bgm", bgm)):
            if not isinstance(buf, operand_type):
                raise LaunchError(
                    f"kernel argument {label} must be a clsim "
                    f"{operand_type.__name__} (the kernel was generated with "
                    f"use_images={self.params.use_images})"
                )
        if not isinstance(cgm, Buffer):
            raise LaunchError("kernel argument cgm must be a clsim Buffer")
        self._args = (int(M), int(N), int(K), float(alpha), float(beta), agm, bgm, cgm)

    @property
    def args(self) -> tuple:
        if self._args is None:
            raise LaunchError(f"kernel {self.name!r} has no arguments set")
        return self._args

    def expected_global_size(self) -> Tuple[int, int]:
        """The ND-range global size implied by the bound M, N arguments."""
        M, N = self.args[0], self.args[1]
        return self.plan.global_size(M, N)

    def validate_nd_range(
        self, global_size: Tuple[int, int], local_size: Tuple[int, int]
    ) -> None:
        """Check launch geometry against the plan (``clEnqueueNDRangeKernel``
        failure modes: bad work-group shape, non-divisible global size).

        Also the injection point for simulated enqueue failures: a fault
        plan with ``launch`` rules makes this raise exactly where a real
        runtime returns ``CL_OUT_OF_RESOURCES`` from the enqueue call.
        """
        injector = self.program.context.fault_injector
        if injector is not None:
            M, N, K = self.args[:3]
            injector.check_launch(
                self.program.context.device.codename,
                f"{self.name}|{M}x{N}x{K}|{tuple(global_size)}",
                params=self.params,
            )
        p = self.params
        if tuple(local_size) != (p.mdimc, p.ndimc):
            raise LaunchError(
                f"local size {tuple(local_size)} does not match the kernel's "
                f"reqd_work_group_size ({p.mdimc}, {p.ndimc})"
            )
        gs = tuple(global_size)
        if len(gs) != 2 or any(g <= 0 for g in gs):
            raise LaunchError(f"global size must be 2-D positive, got {gs}")
        if gs[0] % p.mdimc or gs[1] % p.ndimc:
            raise LaunchError(
                f"global size {gs} not divisible by local size ({p.mdimc}, {p.ndimc})"
            )
        if gs != self.expected_global_size():
            raise LaunchError(
                f"global size {gs} does not cover the bound problem "
                f"(expected {self.expected_global_size()})"
            )
        M, N, K = self.args[:3]
        self.plan.check_problem(M, N, K)

    def __repr__(self) -> str:
        return f"<Kernel {self.name!r} ({self.params.summary()})>"


class PackKernel:
    """A generated pack/transpose kernel (see :mod:`repro.codegen.packers`).

    Arguments: ``(srcRows, srcCols, kPadded, xPadded, src, dst)``.
    """

    N_ARGS = 6

    def __init__(self, program, name: str):
        self.program = program
        self.name = name
        self._args: Optional[tuple] = None

    @property
    def pack_plan(self):
        return self.program.pack_plan

    def set_args(
        self,
        src_rows: int,
        src_cols: int,
        k_padded: int,
        x_padded: int,
        src: Buffer,
        dst: Buffer,
    ) -> None:
        for label, v in (("srcRows", src_rows), ("srcCols", src_cols),
                         ("kPadded", k_padded), ("xPadded", x_padded)):
            if not isinstance(v, numbers.Integral) or v <= 0:
                raise LaunchError(f"pack argument {label} must be a positive int")
        for label, buf in (("src", src), ("dst", dst)):
            if not isinstance(buf, Buffer):
                raise LaunchError(f"pack argument {label} must be a clsim Buffer")
        plan = self.pack_plan
        esize = plan.dtype.itemsize
        if src.size < src_rows * src_cols * esize:
            raise LaunchError(
                f"src buffer ({src.size} B) smaller than srcRows*srcCols "
                f"({src_rows * src_cols * esize} B)"
            )
        if dst.size != k_padded * x_padded * esize:
            raise LaunchError(
                f"dst buffer ({dst.size} B) does not match packed extent "
                f"({k_padded * x_padded * esize} B)"
            )
        plan.check_destination(k_padded, x_padded)
        self._args = (int(src_rows), int(src_cols), int(k_padded),
                      int(x_padded), src, dst)

    @property
    def args(self) -> tuple:
        if self._args is None:
            raise LaunchError(f"pack kernel {self.name!r} has no arguments set")
        return self._args

    def expected_global_size(self):
        _, _, kp, xp, _, _ = self.args
        return self.pack_plan.global_size(kp, xp)

    def validate_nd_range(self, global_size, local_size) -> None:
        if tuple(local_size) != self.pack_plan.local_size():
            raise LaunchError(
                f"local size {tuple(local_size)} does not match the pack "
                f"kernel's reqd_work_group_size {self.pack_plan.local_size()}"
            )
        if tuple(global_size) != self.expected_global_size():
            raise LaunchError(
                f"global size {tuple(global_size)} does not cover the bound "
                f"destination (expected {self.expected_global_size()})"
            )

    def __repr__(self) -> str:
        p = self.pack_plan
        return (
            f"<PackKernel {p.layout.value} transpose={p.transpose} "
            f"blocks=({p.block_k},{p.block_x})>"
        )
