"""The graceful-degradation ladder.

"A Few Fit Most" (Hochgraf & Pai, 2025) observes that production GEMM
serving keeps several kernel versions per device and a safe fallback;
this module arranges them as an ordered ladder of :class:`Rung`\\ s:

1. ``tuned``      — the service's primary kernel (explicit params, a
                    tuning result's winner, or the shipped pretuned set);
2. ``pretuned``   — the shipped pretuned parameters, when distinct from
                    the primary (a known-good configuration to fall back
                    to when the primary is quarantined);
3. ``direct``     — the copy-free bounds-checked routine: fewer moving
                    parts (no pack kernels), so it survives fault classes
                    that break the packed path;
4. ``reference``  — the host numpy GEMM: cannot fault, cannot corrupt,
                    and is the reason every admitted request returns a
                    numerically correct answer even with the whole
                    simulated fleet faulted out.

With a multi-device fleet, rungs 1-3 repeat per device (in the given
device order) before the single host rung.  Routines are built lazily:
a rung whose kernel fails to *build* (injected build faults) reports the
failure to the caller, which degrades past it and retries construction
on a later request.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.codegen.params import KernelParams
from repro.devices.catalog import get_device_spec
from repro.devices.specs import DeviceSpec
from repro.gemm.direct import DirectGemmRoutine, direct_params
from repro.gemm.reference import reference_gemm
from repro.gemm.routine import GemmRoutine, predict_implementation

__all__ = ["Rung", "DegradationLadder"]

#: Shapes one rung remembers predictions for; past this many the memo
#: starts over, so a stream of distinct shapes cannot grow it unbounded.
_PREDICT_MEMO_SIZE = 4096


class Rung:
    """One ladder step: a named way to compute a GEMM.

    ``call`` returns ``(c, simulated_seconds)``.  Device rungs build
    their :class:`GemmRoutine` on first use and re-raise construction
    failures (the caller treats them like launch failures); the host
    ``reference`` rung has no routine and cannot fail.
    """

    def __init__(
        self,
        name: str,
        device: str,
        precision: str,
        params: Optional[KernelParams],
        factory: Optional[Callable[[object], GemmRoutine]],
        spec: Optional[DeviceSpec] = None,
        host_gflops: float = 8.0,
    ) -> None:
        self.name = name
        self.device = device  # "" for the host reference rung
        self.precision = precision
        self.params = params
        self._factory = factory
        self._routine: Optional[GemmRoutine] = None
        self.spec = spec
        self.host_gflops = host_gflops
        #: ``predict_s`` results by (M, N, K): spec and params are fixed
        #: for the rung's lifetime, so each shape is modelled once.
        self._predicted: Dict[tuple, float] = {}

    @property
    def key(self) -> str:
        """Identity for quarantine bookkeeping."""
        return f"{self.device or 'host'}:{self.name}"

    @property
    def is_reference(self) -> bool:
        return self._factory is None

    def routine(self, injector=None) -> Optional[GemmRoutine]:
        """The underlying routine, built on first use (may raise).

        ``injector`` is the per-request (re-salted) fault injector: a
        construction attempt runs under it, so an injected *build* fault
        can clear on a later request's retry, and an already-built
        routine's context is re-pointed at it so launch/result decisions
        re-roll per request instead of freezing at construction time.
        """
        if self._factory is None:
            return None
        if self._routine is None:
            self._routine = self._factory(injector)
        else:
            self._routine.context.fault_injector = injector
        return self._routine

    def predict_s(self, M: int, N: int, K: int) -> float:
        """Modelled service time of this rung for one problem."""
        if self.is_reference:
            return 2.0 * M * N * K / (self.host_gflops * 1e9)
        key = (M, N, K)
        seconds = self._predicted.get(key)
        if seconds is None:
            if len(self._predicted) >= _PREDICT_MEMO_SIZE:
                self._predicted.clear()
            seconds = self._predicted[key] = predict_implementation(
                self.spec, self.params, M, N, K, noise=False
            ).total_s
        return seconds

    def call(self, a, b, c, alpha, beta, transa, transb, injector=None):
        """Compute the GEMM through this rung; returns (c, seconds)."""
        if self.is_reference:
            out = reference_gemm(transa, transb, alpha, np.asarray(a),
                                 np.asarray(b), beta, c)
            M = out.shape[0]
            N = out.shape[1]
            K = a.shape[1] if transa.upper() == "N" else a.shape[0]
            return out, 2.0 * M * N * K / (self.host_gflops * 1e9)
        result = self.routine(injector)(
            a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb
        )
        return result.c, result.timings.total_s

    def __repr__(self) -> str:
        return f"<Rung {self.key}>"


class DegradationLadder:
    """Builds the ordered rung list for a fleet of devices."""

    def __init__(
        self,
        devices: Sequence[Union[str, DeviceSpec]],
        precision: str = "d",
        params: Optional[Dict[str, KernelParams]] = None,
        host_gflops: float = 8.0,
        **routine_kwargs,
    ) -> None:
        from repro.tuner.pretuned import pretuned_params

        self.precision = precision
        self.host_gflops = host_gflops
        #: Kept for rung rebuilds (hot swaps construct replacement
        #: routines with the same build options the ladder started with).
        self._routine_kwargs = dict(routine_kwargs)
        self.rungs: List[Rung] = []
        specs = [
            d if isinstance(d, DeviceSpec) else get_device_spec(d)
            for d in devices
        ]
        for spec in specs:
            self.rungs.extend(
                self._build_device_rungs(spec, (params or {}).get(spec.codename))
            )
        # The unconditional last resort: the host cannot fault or corrupt.
        self.rungs.append(Rung(
            "reference", "", precision, None, None, host_gflops=host_gflops,
        ))

    def _build_device_rungs(
        self, spec: DeviceSpec, explicit: Optional[KernelParams] = None
    ) -> List[Rung]:
        """The tuned/pretuned/direct rung group for one device.

        Empty when the device has nothing tuned at this precision — such
        a device cannot serve and the fleet manager must not admit it.
        """
        from repro.tuner.pretuned import pretuned_params

        precision = self.precision
        host_gflops = self.host_gflops
        routine_kwargs = self._routine_kwargs
        try:
            shipped = pretuned_params(spec.codename, precision)
        except KeyError:
            shipped = None
        primary = explicit or shipped
        if primary is None:
            return []  # nothing tuned for this device at this precision

        def make_factory(spec=spec, p=primary, cls=GemmRoutine):
            return lambda injector: cls(
                spec, p, fault_injector=injector, **routine_kwargs
            )

        rungs = [Rung(
            "tuned", spec.codename, precision, primary,
            make_factory(), spec=spec, host_gflops=host_gflops,
        )]
        if shipped is not None and shipped != primary:
            rungs.append(Rung(
                "pretuned", spec.codename, precision, shipped,
                make_factory(p=shipped), spec=spec,
                host_gflops=host_gflops,
            ))
        rungs.append(Rung(
            "direct", spec.codename, precision, direct_params(primary),
            make_factory(cls=DirectGemmRoutine), spec=spec,
            host_gflops=host_gflops,
        ))
        return rungs

    def device_rungs(self, device: str) -> List[Rung]:
        """All rungs serving ``device``, in ladder order."""
        return [r for r in self.rungs if r.device == device]

    def add_device(
        self,
        device: Union[str, DeviceSpec],
        params: Optional[KernelParams] = None,
    ) -> List[Rung]:
        """Build and append a device's rung group (before the host rung).

        Newly admitted devices rank *after* the incumbents — the ladder
        prefers devices that have been serving longest — but always
        before the host reference.  Returns the new rungs (empty if the
        device has nothing tuned, in which case nothing is added).
        Raises ``ValueError`` if the device already has rungs.
        """
        spec = device if isinstance(device, DeviceSpec) else get_device_spec(device)
        if self.device_rungs(spec.codename):
            raise ValueError(f"device {spec.codename!r} already on the ladder")
        rungs = self._build_device_rungs(spec, params)
        self.insert_device(rungs)
        return rungs

    def insert_device(self, rungs: Sequence[Rung]) -> None:
        """Re-insert a previously removed rung group before the host rung.

        Used on device resume: the parked :class:`Rung` objects keep
        their built routines, so recovery does not pay construction
        again.
        """
        index = len(self.rungs) - 1  # the host reference rung is last
        self.rungs[index:index] = list(rungs)

    def remove_device(self, device: str) -> List[Rung]:
        """Splice out and return all rungs serving ``device``.

        The returned group can be parked (suspected/draining devices)
        and later restored with :meth:`insert_device`.  Removing a
        device with no rungs returns ``[]``; the host reference rung is
        never removable.
        """
        removed = self.device_rungs(device)
        if removed:
            self.rungs = [r for r in self.rungs if r.device != device]
        return removed

    def primary_rung(self, device: str) -> Rung:
        """The ``tuned`` rung serving ``device`` (KeyError if absent)."""
        for rung in self.rungs:
            if rung.name == "tuned" and rung.device == device:
                return rung
        raise KeyError(f"no tuned rung for device {device!r}")

    def replace_primary(self, device: str, params: KernelParams) -> Rung:
        """Swap the ``tuned`` rung's kernel for ``device`` in place.

        Builds a fresh :class:`Rung` around ``params`` (same position,
        same build options, lazily constructed routine) and returns it.
        The old rung object — and any in-flight request already holding
        it — is untouched; only *future* dispatches see the new kernel.
        """
        old = self.primary_rung(device)
        index = self.rungs.index(old)
        spec = old.spec
        kwargs = self._routine_kwargs
        new = Rung(
            "tuned", device, self.precision, params,
            lambda injector: GemmRoutine(
                spec, params, fault_injector=injector, **kwargs
            ),
            spec=spec, host_gflops=self.host_gflops,
        )
        self.rungs[index] = new
        return new

    def describe(self) -> str:
        lines = ["degradation ladder:"]
        for i, rung in enumerate(self.rungs):
            where = rung.device or "host"
            lines.append(f"  {i}: {rung.name:9s} on {where}")
        return "\n".join(lines)
