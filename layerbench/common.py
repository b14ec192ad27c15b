"""Shared pieces of the layered benchmark: workload specs, paths, stats.

Every workload is fixed in *shape* — record count, stream span (and so
the number of 10-second samples), burst schedule and the structured
skeleton of faults, periodic beats and rare events — and only the
*content* depends on ``--seed``: which chatter records appear, and
where the bursts land and what they say.  Detector cost follows the
sample clock, parse cost the record count and classify cost where
never-trained messages first appear, so holding all three fixed is what
makes two seeds measure the same amount of work.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: the benchmark's own directory and the checkout it runs in
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space (inputs, checkpoints, spans); listed in .gitignore
WORK = ROOT / ".layerbench"

#: the fixed-seed BlueGene training window every workload's model is
#: fitted on (the quiet 0.25 msg/s scenario, first 40% of 1.5 days)
TRAIN = {
    "seed": 42,
    "duration_days": 1.5,
    "train_fraction": 0.4,
    "fault_rate_scale": 1.5,
    "base_rate_per_sec": 0.25,
}

#: seed of every workload's structured background (faults, periodic
#: beats, rare events); arbitrary, the same for all workloads
SKELETON_SEED = 1

#: sampling period of the signal layer (PipelineConfig default)
SAMPLE_SECONDS = 10.0

#: per-workload input shape.  ``bursts`` are (offset s, length s) pairs
#: at ``burst_rate`` msg/s with exactly ``length * burst_rate`` records
#: each; the remaining ``records`` come from the background generator
#: (faults, periodic/rare emitters, ~``rate`` msg/s chatter).
WORKLOADS = {
    "stream-5hz": {
        "records": 150_000,
        "span_s": 28_800.0,
        "rate": 5.0,
        "bursts": [(2_400.0, 20.0), (7_200.0, 20.0), (12_000.0, 20.0),
                   (16_800.0, 20.0), (21_600.0, 20.0), (26_400.0, 20.0)],
        "burst_rate": 100.0,
        "chunk": 1024,
        "checkpoint_every": 4096,
    },
    "fleet-quiet-8t": {
        "records": 30_000,
        "span_s": 77_760.0,
        "rate": 0.25,
        "bursts": [(25_000.0, 20.0), (60_000.0, 20.0)],
        "burst_rate": 100.0,
        "tenants": 8,
    },
    "ingest-5hz-8t": {
        "records": 60_000,
        "span_s": 11_520.0,
        "rate": 5.0,
        "bursts": [(3_000.0, 20.0), (8_000.0, 20.0)],
        "burst_rate": 100.0,
        "tenants": 8,
        "batch": 256,
    },
}


def add_src_path() -> None:
    """Make the checkout's ``repro`` package importable, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


def reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark at its current RSS.

    Linux resets ``VmHWM`` when "5" is written to the process's own
    ``clear_refs``; returns False where that is not possible, and the
    peak then also covers what ran before.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """This process's peak resident set in MB since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe(rounds: int = 5) -> float:
    """Host speed in M simple Python ops/s (median of short rounds).

    Taken before and after a run so a reader can tell a slow machine
    from a slow program; it is recorded, never divided into a metric.
    """
    rates = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i & 7
        rates.append(0.2 / (time.perf_counter() - t0))
    return round(median(rates), 3)


def fingerprint() -> dict:
    """CPU model, core count and library versions of this machine."""
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
