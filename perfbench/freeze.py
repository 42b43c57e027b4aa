"""Regenerate ``expected.json``, the outputs every benchmark op must match.

    python3 perfbench/freeze.py

Run it only on a commit whose outputs are known good: the benchmark
treats any later difference as a failed op.  Every served GEMM result
must also match numpy, and no request may be shed or cancelled, or
freezing refuses.
"""

from __future__ import annotations

import json
import os
import sys

from run import W  # pins the BLAS pools before numpy loads

#: (device, precision) pairs tuned with the surrogate strategy as well.
SURROGATE = (("tahiti", "d"), ("kepler", "s"), ("sandybridge", "d"))


def freeze_serve() -> dict:
    serve = W.ServeChaos(0, expected={})
    for lap in W.LAPS:
        stream = W.lap_stream(lap, serve.tenants)
        tickets = serve.run_lap(lap, stream, W.Clock(), [])
        serve.expected[str(lap)] = W.lap_outcome(tickets)
        result = W.RoundResult()
        serve.check_lap(lap, stream, tickets, result)
        if result.failed:
            raise SystemExit(f"lap {lap}: {result.failed} requests not served "
                             f"correctly: {result.problems}")
    return serve.expected


def freeze_tune() -> dict:
    from repro.devices.catalog import list_device_names
    from repro.tuner.search import TuningConfig, tune

    keys = [(d, p, "exhaustive") for d in list_device_names() for p in "sd"]
    keys += [(d, p, "surrogate") for d, p in SURROGATE]
    return {
        W.tune_key(d, p, s): W.winner_of(tune(
            d, p, TuningConfig(budget=W.BUDGET, seed=W.TUNE_SEED, strategy=s),
            workers=1))
        for d, p, s in keys
    }


def freeze_lint() -> dict:
    from repro.analyze.host import lint_sources, parse_source

    return {
        rel: W.findings_of(lint_sources([parse_source(text, rel)]))
        for rel, text in W.load_corpus()
    }


def main() -> int:
    expected = {
        "serve_chaos": freeze_serve(),
        "tune_catalog": freeze_tune(),
        "lint_files": freeze_lint(),
    }
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(W.EXPECTED_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
