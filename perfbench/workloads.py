"""The three benchmark workloads.

Each workload builds its objects in ``__init__`` (the part ``setup_s``
times) and then runs *rounds*.  A round is a fixed set of ops in an
order drawn from the benchmark seed, so every run measures the same
work whatever its seed, and whole rounds keep the mix of cheap and
expensive ops identical between runs.  Only the program's work sits
inside the :class:`Clock`; input generation and the correctness checks
run outside it.

Every op's output is compared with ``expected.json`` (written by
``freeze.py``), and every served GEMM result is also compared with a
numpy product computed here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tarfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CORPUS_PATH = os.path.join(HERE, "lint_corpus.tar.gz")


def load_expected() -> Dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Clock:
    """Accumulates host wall and process CPU seconds over ``with`` blocks."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "Clock":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall += time.perf_counter() - self._wall0
        self.cpu += time.process_time() - self._cpu0
        return False


@dataclass
class RoundResult:
    ops: int = 0
    failed: int = 0
    #: Host seconds of each unit call.
    calls: List[float] = field(default_factory=list)
    #: One fingerprint per op group (compared traced vs untraced).
    outputs: List[str] = field(default_factory=list)
    #: Human-readable reasons for failed ops.
    problems: List[str] = field(default_factory=list)


def _digest(lines: List[str]) -> str:
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


# -- serve_chaos -------------------------------------------------------------

#: Requests per lap.  Each lap drives a fresh service, so a lap's outcome
#: depends only on its stream and can be frozen.  At 100 requests the
#: 2.5e-5 s inter-arrival still coalesces small GEMMs (about 1.7
#: requests per dispatch) without overflowing a tenant queue; longer
#: laps shed by design, and a shed costs almost no host work.
LAP_REQUESTS = 100
#: Stream seeds of the laps in one round.  Seeds 15 and 17 are left out:
#: under the fault plan each ends with one deadline cancellation (a
#: quarantine leaves only slow rungs), and the benchmark counts every
#: request not served as a failed op, so its workloads serve them all.
LAPS = tuple(s for s in range(26) if s not in (15, 17))
INTERARRIVAL_S = 2.5e-5
#: How far ahead of simulated time arrivals are submitted (as the soak).
LOOKAHEAD_S = 5e-4
#: ``repro soak --async`` settings.
MAX_BATCH = 24
TRACE_LIMIT = 256
CANARY_INTERVAL = 3
CANARY_PASSES = 1
FAULT_PLAN = "serve-chaos"
TOLERANCE = 1e-10


def _split(total: int, shares: List[float]) -> List[int]:
    """Split ``total`` by ``shares``; remainders go to the largest shares."""
    whole = sum(shares)
    counts = [int(total * s / whole) for s in shares]
    order = sorted(range(len(shares)), key=lambda i: (-shares[i], i))
    for i in range(total - sum(counts)):
        counts[order[i % len(order)]] += 1
    return counts


def lap_stream(lap: int, tenants) -> List[Tuple[float, str, tuple]]:
    """The seeded arrival stream of one lap: (arrival_s, tenant, problem)."""
    horizon = LAP_REQUESTS * INTERARRIVAL_S
    counts = _split(LAP_REQUESTS, [t.load_share for t in tenants])
    arrivals = []
    for index, (load, count) in enumerate(zip(tenants, counts)):
        rng = np.random.default_rng([lap, index])
        gap = horizon / count
        t = gap * float(rng.uniform(0.0, 1.0))
        for _ in range(count):
            if load.square:
                m = n = k = int(rng.choice(load.sizes))
            else:
                m, n, k = (int(rng.choice(load.sizes)) for _ in range(3))
            transa = "T" if rng.random() < load.trans_rate else "N"
            transb = "T" if rng.random() < load.trans_rate else "N"
            alpha = float(rng.uniform(-2.0, 2.0))
            beta = float(rng.uniform(-1.0, 1.0)) if rng.random() < load.beta_rate else 0.0
            a = rng.standard_normal((m, k) if transa == "N" else (k, m))
            b = rng.standard_normal((k, n) if transb == "N" else (n, k))
            c = rng.standard_normal((m, n)) if beta != 0.0 else None
            arrivals.append((t, index, load.name, (a, b, c, alpha, beta, transa, transb)))
            t += gap * float(rng.uniform(0.2, 1.8))
    arrivals.sort(key=lambda item: (item[0], item[1]))
    return [(t, name, problem) for t, _, name, problem in arrivals]


def numpy_gemm(problem: tuple) -> np.ndarray:
    a, b, c, alpha, beta, transa, transb = problem
    opa = a.T if transa == "T" else a
    opb = b.T if transb == "T" else b
    out = alpha * (opa @ opb)
    return out + beta * c if c is not None else out


def lap_outcome(tickets) -> Dict:
    """Counts and digest of one lap's serving decisions."""
    lines, counts = [], {"served": 0, "shed": 0, "cancelled": 0, "degraded": 0}
    for t in tickets:
        result = t.result
        rung = result.rung if result is not None else "-"
        degraded = bool(result is not None and result.degraded)
        counts[t.status] = counts.get(t.status, 0) + 1
        counts["degraded"] += degraded
        lines.append(f"{t.rid}:{t.tenant}:{t.status}:{rung}:{int(degraded)}:"
                     f"{t.sheds}:{t.batch_size}")
    counts["digest"] = _digest(lines)
    return counts


class ServeChaos:
    """Seeded multi-tenant arrivals through ``AsyncScheduler`` under chaos."""

    name = "serve_chaos"

    def __init__(self, seed: int, expected: Dict = None) -> None:
        import repro.clsim.faults as faults
        import repro.obs as obs
        import repro.serve as serve
        import repro.serve.sched as sched

        self._faults, self._obs, self._serve, self._sched = faults, obs, serve, sched
        self.tenants = serve.DEFAULT_TENANT_LOADS
        self.order = random.Random(seed).sample(LAPS, len(LAPS))
        self.expected = load_expected()[self.name] if expected is None else expected
        self._build(self.order[0])

    def _build(self, lap: int):
        serve, sched = self._serve, self._sched
        service = serve.GemmService(
            "tahiti", "d",
            config=serve.ServiceConfig(
                seed=lap, default_deadline_s=None,
                canary_interval=CANARY_INTERVAL, canary_passes=CANARY_PASSES,
            ),
            fault_injector=self._faults.FaultInjector(
                self._faults.FaultPlan.parse(FAULT_PLAN, seed=lap)),
            obs=self._obs.Observability(seed=lap, trace_limit=TRACE_LIMIT),
        )
        return sched.AsyncScheduler(
            service, [t.tenant_config() for t in self.tenants],
            sched.SchedulerConfig(max_batch=MAX_BATCH), obs=service.obs,
        )

    def run_lap(self, lap: int, stream, clock: Clock, calls: List[float]):
        """Drive one lap inside ``clock``; returns the tickets.  The lap's
        service is built before the clock starts: building it is set-up,
        which ``setup_s`` times once in each cold start."""
        perf = time.perf_counter
        scheduler = self._build(lap)
        with clock:
            tickets, i, n = [], 0, len(stream)
            while True:
                while i < n and stream[i][0] <= scheduler.now + LOOKAHEAD_S:
                    arrival, tenant, (a, b, c, alpha, beta, ta, tb) = stream[i]
                    tickets.append(scheduler.submit(
                        tenant, a, b, c, alpha, beta, ta, tb, arrival_s=arrival))
                    i += 1
                start = perf()
                progressed = scheduler.step()
                calls.append(perf() - start)
                if not progressed:
                    if i == n:
                        break
                    scheduler.now = max(scheduler.now, stream[i][0])
            scheduler.drain()
        return tickets

    def check_lap(self, lap: int, stream, tickets, result: RoundResult) -> None:
        failed = 0
        for (_, _, problem), ticket in zip(stream, tickets):
            if ticket.status != "served":
                failed += 1
                continue
            want = numpy_gemm(problem)
            err = np.linalg.norm(ticket.result.c - want) / max(np.linalg.norm(want), 1e-300)
            if not err <= TOLERANCE:
                failed += 1
                result.problems.append(f"lap {lap} request {ticket.rid}: relative error {err:.3e}")
        outcome = lap_outcome(tickets)
        if outcome != self.expected[str(lap)]:
            result.problems.append(f"lap {lap}: outcome {outcome} != expected "
                                   f"{self.expected[str(lap)]}")
            failed = len(stream)
        result.failed += failed
        result.outputs.append(f"{lap}:{outcome['digest']}:{failed}")

    def run_ops(self, laps, clock: Clock, result: RoundResult) -> None:
        for lap in laps:
            self._one_lap(lap, clock, result)

    def _one_lap(self, lap: int, clock: Clock, result: RoundResult) -> None:
        # A function of its own, so one lap's operands and results are
        # released before the next lap's are generated.
        stream = lap_stream(lap, self.tenants)
        result.ops += len(stream)
        try:
            tickets = self.run_lap(lap, stream, clock, result.calls)
        except Exception as exc:  # a raised op is a failed op, not a crash
            result.failed += len(stream)
            result.problems.append(f"lap {lap} raised {exc!r}")
            result.outputs.append(f"{lap}:raised")
            return
        self.check_lap(lap, stream, tickets, result)

    def round_items(self):
        return self.order

    def warmup_items(self):
        return self.order[:2]


# -- tune_catalog ------------------------------------------------------------

BUDGET = 400
TUNE_SEED = 0


def tune_key(device: str, precision: str, strategy: str) -> str:
    return f"{device}/{precision}/{strategy}"


def winner_of(result) -> Dict:
    return {"params": result.best.params.to_dict(), "gflops": repr(result.best.gflops)}


class TuneCatalog:
    """Budgeted ``tune()`` calls over the device catalog."""

    name = "tune_catalog"

    def __init__(self, seed: int) -> None:
        import repro.tuner.search as search

        self._search = search
        self.expected = load_expected()["tune_catalog"]
        keys = sorted(self.expected)
        self.order = random.Random(seed).sample(keys, len(keys))
        self.configs = {
            key: search.TuningConfig(budget=BUDGET, seed=TUNE_SEED,
                                     strategy=key.split("/")[2])
            for key in keys
        }

    def warmup_items(self):
        """One tune of each strategy."""
        first = {}
        for key in self.order:
            first.setdefault(key.split("/")[2], key)
        return list(first.values())

    def run_ops(self, keys, clock: Clock, result: RoundResult) -> None:
        perf = time.perf_counter
        for key in keys:
            device, precision, _ = key.split("/")
            result.ops += 1
            try:
                with clock:
                    start = perf()
                    tuned = self._search.tune(device, precision, self.configs[key], workers=1)
                    result.calls.append(perf() - start)
            except Exception as exc:  # a raised op is a failed op, not a crash
                result.failed += 1
                result.problems.append(f"{key} raised {exc!r}")
                result.outputs.append(f"{key}:raised")
                continue
            winner = winner_of(tuned)
            if winner != self.expected[key]:
                result.failed += 1
                result.problems.append(f"{key}: winner {winner} != expected {self.expected[key]}")
            result.outputs.append(f"{key}:{json.dumps(winner, sort_keys=True)}")

    def round_items(self):
        return self.order


# -- lint_files --------------------------------------------------------------

def load_corpus() -> List[Tuple[str, str]]:
    """The frozen ``src/repro`` tree as (``repro/...`` relpath, text)."""
    files = []
    with tarfile.open(CORPUS_PATH, "r:gz") as tar:
        for member in tar.getmembers():
            if member.isfile() and member.name.endswith(".py"):
                rel = member.name.split("src/", 1)[1]
                text = tar.extractfile(member).read().decode("utf-8")
                files.append((rel, text))
    return sorted(files)


def findings_of(result) -> List[List]:
    rows = [[f.rule, f.line, "finding"] for f in result.findings]
    rows += [[f.rule, f.line, "pragma"] for f in result.suppressed_pragma]
    rows += [[f.rule, f.line, "baseline"] for f in result.suppressed_baseline]
    return sorted(rows)


class LintFiles:
    """``repro lint <file>`` over each file of a frozen corpus."""

    name = "lint_files"

    def __init__(self, seed: int) -> None:
        import repro.analyze.host as host

        self._host = host
        self.expected = load_expected()["lint_files"]
        #: The corpus is the benchmark's input, not the program's set-up,
        #: so it is read on first use rather than in the cold start.
        self.texts: Dict[str, str] = {}
        paths = sorted(self.expected)
        self.order = random.Random(seed).sample(paths, len(paths))

    def run_ops(self, paths, clock: Clock, result: RoundResult) -> None:
        host, perf = self._host, time.perf_counter
        if not self.texts:
            self.texts = dict(load_corpus())
        for path in paths:
            result.ops += 1
            try:
                with clock:
                    source = host.parse_source(self.texts[path], path)
                    start = perf()
                    linted = host.lint_sources([source])
                    result.calls.append(perf() - start)
            except Exception as exc:  # a raised op is a failed op, not a crash
                result.failed += 1
                result.problems.append(f"{path} raised {exc!r}")
                result.outputs.append(f"{path}:raised")
                continue
            rows = findings_of(linted)
            if rows != self.expected[path]:
                result.failed += 1
                result.problems.append(f"{path}: findings {rows} != expected {self.expected[path]}")
            result.outputs.append(f"{path}:{json.dumps(rows)}")

    def round_items(self):
        return self.order

    def warmup_items(self):
        return self.order[:4]


WORKLOADS = {w.name: w for w in (ServeChaos, TuneCatalog, LintFiles)}
