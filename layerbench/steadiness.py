"""Steadiness evidence: two interleaved sets of runs on the same code.

Usage (from the root of a checkout)::

    python3 layerbench/steadiness.py --runs 10 --out layerbench/STEADINESS.md

Runs ``run.py --trace 0`` ``--runs`` times per workload and set, for
every workload at ``run_seconds`` from ``BENCHMARK.json``, with set A
on seeds 1..N and set B on seeds 101..100+N.  The order alternates
workloads and sets (A-w1, B-w1, A-w2, B-w2, ...) so slow drift of the
host spreads evenly over both.  For every end-to-end metric the report
gives each set's median and IQR as a share of the median, the relative
difference of the medians (positive = B worse), and whether both stay
within the metric's bound in ``BENCHMARK.json``.  ``setup_s`` is gated
on the difference of the medians only, as the benchmark's acceptance
rule has it: a set-up is a few one-second fits at the start of a run,
so its spread follows the host's speed over those seconds; the spread
is still reported.  It also checks that
records and samples per pass are identical across all seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

#: the metrics an earlier version of this benchmark was too noisy on
WATCHED = (
    ("fleet-quiet-8t", "records_per_s"),
    ("ingest-5hz-8t", "request_latency_p50_ms"),
    ("ingest-5hz-8t", "setup_s"),
)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"details": details, "result": result,
            "wall_s": time.perf_counter() - t0}


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def report(runs: dict, bench: dict) -> tuple:
    """Markdown report and whether every metric stayed in bounds."""
    ok = True
    lines = []
    fp = None
    probes = []
    for workload in sorted({w for w, _ in runs}):
        lines.append(f"### {workload}\n")
        a, b = runs[(workload, 0)], runs[(workload, 1)]
        shapes = {(r["details"]["input"]["records"],
                   r["details"]["input"]["samples"]) for r in a + b}
        lines.append(
            f"Input shape over all {len(a) + len(b)} seeds: "
            + ", ".join(f"{n} records / {s} samples" for n, s in shapes)
            + (" (identical)." if len(shapes) == 1 else " (DIFFERS).")
            + "\n"
        )
        ok &= len(shapes) == 1
        lines.append("| metric | bound | A median | A IQR/med | "
                     "B median | B IQR/med | B vs A | within |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            ma, sa = spread(va)
            mb, sb = spread(vb)
            worse = (mb - ma) / ma
            if m["better"] == "higher":
                worse = -worse
            good = worse <= bound and (
                name == "setup_s" or (sa <= bound and sb <= bound))
            ok &= good
            mark = " (watched)" if (workload, name) in WATCHED else ""
            lines.append(
                f"| {name}{mark} | {bound:g} | {ma:.4g} | {sa:.3f} | "
                f"{mb:.4g} | {sb:.3f} | {worse:+.3f} | "
                f"{'yes' if good else 'NO'} |"
            )
        walls = sorted(r["wall_s"] for r in a + b)
        lines.append(f"\nOne run took {statistics.median(walls):.0f} s "
                     f"(median), {walls[-1]:.0f} s at most.\n")
        for r in a + b:
            fp = r["details"]["fingerprint"]
            probes.extend(r["details"]["host_probe_mops"].values())
    head = [
        "# Steadiness of the layered benchmark\n",
        "Two interleaved sets of `run.py --trace 0` runs on the same "
        "code (set A seeds 1..N, set B seeds 101..100+N).  *IQR/med* is "
        "the interquartile range over the median "
        "(`statistics.quantiles(n=4)`); *B vs A* is how much worse set "
        "B's median is than set A's (negative = better).  A metric is "
        "within its bound when both spreads and the difference stay at "
        "or under the bound in `BENCHMARK.json`; `setup_s` is gated on "
        "the difference alone (the benchmark's acceptance rule), because "
        "its few one-second fits at the start of a run sample the host's "
        "speed over seconds only.  Its spread is shown all the same.\n",
        "Watched metrics — the ones an earlier version of this benchmark "
        "could not hold steady — are "
        + ", ".join(f"`{w}/{m}`" for w, m in WATCHED) + ".\n",
        f"Machine: {fp['cpu']}, {fp['nproc']} cores, Python "
        f"{fp['python']}, numpy {fp['numpy']}; host-speed probe "
        f"{min(probes):.1f}–{max(probes):.1f} M ops/s over the runs.\n",
    ]
    return "\n".join(head + lines), ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = sorted(common.WORKLOADS)
    runs = {(w, s): [] for w in workloads for s in (0, 1)}
    for i in range(args.runs):
        for w in workloads:
            for s in (0, 1):
                seed = 1 + i + 100 * s
                runs[(w, s)].append(one_run(w, seed, seconds))
                print(f"{w} set {'AB'[s]} seed {seed} done",
                      file=sys.stderr, flush=True)
    text, ok = report(runs, bench)
    if args.out:
        Path(args.out).write_text(text + "\n")
        raw = common.WORK / "steadiness-runs.json"
        raw.parent.mkdir(parents=True, exist_ok=True)
        raw.write_text(json.dumps(
            {f"{w}/{'AB'[s]}": r for (w, s), r in runs.items()}))
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
