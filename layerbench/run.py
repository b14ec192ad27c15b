"""Layered benchmark of the ELSA reproduction: one workload per call.

Usage (from the root of a checkout)::

    python3 layerbench/run.py --workload stream-5hz --seed 1 \
        --seconds 20 --trace 0

A run synthesizes its input in a separate process (:mod:`synth`), times
several set-ups from a collected heap, loads the input, makes one
warm-up pass and then timed passes for ``--seconds`` (and at least
:data:`MIN_REQUESTS` requests), and checks outside the timed region that
every pass emitted the same predictions and that the last pass equals an
independent reference.  The last line of stdout is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (self
time, share of the pass, calls, µs per record and per 10-s sample, plus
layer counters), the tracing overhead and, on ``fleet-quiet-8t``, the
fleet's throughput against a single predictor over the same records.
The line before the result carries the details: machine fingerprint,
host-speed probe before and after, input properties, failure
breakdown.  Spans of a traced run land in ``.layerbench/``.

``peak_rss_mb`` is the high-water mark over the passes alone: it is
reset after set-up and input loading and read before the input
properties and the reference are computed.

Exit status: 0 when the result is correct, 1 when predictions diverge,
a traced in-process pass leaves more than 10% of its time outside the
named layers, or the time limit allowed too few passes or requests, 2
when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 5
#: a run holds at least this many requests, so the p99 has >= 10
#: samples beyond it
MIN_REQUESTS = 1000
MIN_PASSES = 3
#: timed passes stop here whatever --seconds says (the 180 s budget)
PASS_DEADLINE_S = 120.0
#: traced in-process passes must attribute this much of their wall time
MIN_COVERAGE = 0.90

#: layers timed inside a pass, in pipeline order
PASS_LAYERS = (
    "helo.parse", "resilience.sanitize", "helo.classify", "signals.tick",
    "prediction.feed", "mining.price", "resilience.feed_chunk",
    "resilience.checkpoint", "fleet.route", "fleet.step", "fleet.pump",
    "fleet.codec", "fleet.ingest",
)
IN_PROCESS = ("stream-5hz", "fleet-quiet-8t")


def install_pass_layers(tracer) -> None:
    """Wrap the public entry point behind every pass layer."""
    from repro.fleet import ingest as ingest_mod
    from repro.fleet.ingest import IngestAPI
    from repro.fleet.runner import Fleet
    from repro.fleet.shard import Shard
    from repro.helo import batch as helo_batch
    from repro.helo.online import OnlineHELO
    from repro.mining.prefix import ChainPrefixIndex
    from repro.prediction.streaming import StreamingHybridPredictor
    from repro.resilience import checkpoint as ckpt_mod
    from repro.resilience import stream as stream_mod
    from repro.resilience.checkpoint import ResumableRun
    from repro.signals.bank import VectorizedDetectorBank

    def checkpoint_bytes(stats, args, kwargs, result):
        stats.extra["bytes"] += os.path.getsize(args[0])

    def decoded(stats, args, kwargs, result):
        stats.extra["bytes"] += len(args[0])
        stats.extra["records"] += len(result)

    def refused(stats, args, kwargs, result):
        if result is not None and args[2].startswith("/ingest") and (
            result[0] != 200
        ):
            stats.extra["refused"] += 1

    def samples(stats, args, kwargs, result):
        stats.extra["samples"] += args[1].shape[1]

    def triggers(stats, args, kwargs, result):
        stats.extra["triggers"] += len(args[1])

    def chains_tried(stats, args, kwargs, result):
        by_anchor = args[0].prefix.by_anchor
        stats.extra["triggers"] += sum(
            len(by_anchor.get(a, ())) for a in args[2])

    def stepped(stats, args, kwargs, result):
        stats.extra["records"] += result

    wrap = tracer.wrap
    wrap(helo_batch, "parse_lines_batch", "helo.parse")
    wrap(stream_mod, "sanitize_batch", "resilience.sanitize")
    wrap(OnlineHELO, "observe_tokens_batch", "helo.classify")
    wrap(VectorizedDetectorBank, "tick_many", "signals.tick", samples)
    wrap(StreamingHybridPredictor, "feed", "prediction.feed")
    # the batch engine prices through ChainPrefixIndex; the streaming
    # engine every pass runs prices each flagged sample in
    # _trigger_chains, so both count as the pricing layer
    wrap(ChainPrefixIndex, "price_triggers", "mining.price", triggers)
    wrap(StreamingHybridPredictor, "_trigger_chains", "mining.price",
         chains_tried)
    wrap(ResumableRun, "feed_chunk", "resilience.feed_chunk")
    wrap(ckpt_mod, "save_checkpoint", "resilience.checkpoint",
         checkpoint_bytes)
    wrap(Fleet, "route_batch", "fleet.route")
    wrap(Shard, "step", "fleet.step", stepped)
    wrap(Fleet, "pump", "fleet.pump")
    wrap(ingest_mod, "decode_batch", "fleet.codec", decoded)
    wrap(IngestAPI, "handle_request", "fleet.ingest", refused)


def install_setup_layers(tracer) -> None:
    """Wrap the set-up layers: the fit and the fleet build."""
    from repro.core.elsa import ELSA
    from repro.fleet.runner import Fleet

    tracer.wrap(ELSA, "fit", "core.fit")
    tracer.wrap(Fleet, "build", "fleet.build")


class LatencyProbe:
    """Times every ``ResumableRun.feed_chunk`` call (fleet requests)."""

    def __init__(self, latencies: list) -> None:
        from repro.resilience.checkpoint import ResumableRun

        self.cls = ResumableRun
        self.orig = ResumableRun.__dict__["feed_chunk"]
        orig = self.orig

        def feed_chunk(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - t0)

        ResumableRun.feed_chunk = feed_chunk

    def close(self) -> None:
        self.cls.feed_chunk = self.orig


def layer_values(layers: dict, wall: float, records: int,
                 samples: int) -> dict:
    """Per-layer metrics of one pass (or one set-up)."""
    out = {}
    for name, st in layers.items():
        out[f"{name}.busy_s"] = st.self_s
        out[f"{name}.share"] = st.self_s / wall
        out[f"{name}.calls"] = st.calls
        out[f"{name}.us_per_record"] = st.self_s * 1e6 / records
        out[f"{name}.us_per_sample"] = st.self_s * 1e6 / samples
    ex = {k: st.extra for k, st in layers.items()}
    calls = {k: st.calls for k, st in layers.items()}
    if "signals.tick" in ex:
        out["signals.tick.samples_per_call"] = (
            ex["signals.tick"]["samples"] / calls["signals.tick"])
    if "mining.price" in ex:
        out["mining.price.triggers"] = ex["mining.price"]["triggers"]
    if "resilience.checkpoint" in ex:
        out["resilience.checkpoint.bytes_per_call"] = (
            ex["resilience.checkpoint"]["bytes"]
            / calls["resilience.checkpoint"])
    if "fleet.step" in ex:
        out["fleet.step.records_per_call"] = (
            ex["fleet.step"]["records"] / calls["fleet.step"])
    if ex.get("fleet.codec", {}).get("records"):
        out["fleet.codec.bytes_per_record"] = (
            ex["fleet.codec"]["bytes"] / ex["fleet.codec"]["records"])
    if "fleet.ingest" in ex:
        out["fleet.ingest.lock_wait_s"] = ex["fleet.ingest"]["lock_wait_s"]
        out["fleet.ingest.refused"] = ex["fleet.ingest"]["refused"]
    return out


def per_layer_units() -> dict:
    """Name → unit of every per-layer metric, in BENCHMARK.json order."""
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def measure(args, wl, tracer, started: float) -> dict:
    """Warm-up, then timed passes; returns the raw observations."""
    raw = {"walls": [], "traced_walls": [], "single_walls": [],
           "latencies": [], "docs": [], "failures": {}, "requests": 0,
           "attempts": 0, "layers": []}
    n = wl.n_records

    def one_pass(traced: bool, latencies: list):
        if traced:
            install_pass_layers(tracer)
        probe = None
        if wl.name == "fleet-quiet-8t" and not traced:
            probe = LatencyProbe(latencies)
        try:
            if wl.name == "ingest-5hz-8t":
                wall, doc = wl.run_pass(latencies,
                                        tracer if traced else None)
            else:
                wall, doc = wl.run_pass(latencies)
        finally:
            if probe is not None:
                probe.close()
            tracer.unwrap_all()
        return wall, doc

    one_pass(False, [])                      # warm-up: caches, lazy set-up
    tracer.take_layers()
    t_begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_begin
        enough = (
            elapsed >= args.seconds
            and len(raw["walls"]) >= MIN_PASSES
            and (args.trace or raw["requests"] >= MIN_REQUESTS)
        )
        if enough or time.perf_counter() - started > PASS_DEADLINE_S:
            break
        latencies = []
        wall, doc = one_pass(False, latencies)
        raw["walls"].append(wall)
        raw["docs"].append(doc)
        raw["latencies"].append(latencies)
        raw["requests"] += len(latencies)
        raw["attempts"] += getattr(wl, "attempts", len(latencies))
        for k, v in wl.failures.items():
            raw["failures"][k] = raw["failures"].get(k, 0) + v
        if not args.trace:
            continue
        t0 = time.perf_counter()
        wall, doc = one_pass(True, [])
        tracer.mark("pass", t0, time.perf_counter())
        layers = tracer.take_layers()
        if wl.name == "ingest-5hz-8t":
            codec = wl.client_result["codec"]
            st = layers["fleet.codec"]
            st.self_s += codec["self_s"]
            st.calls += codec["calls"]
            st.extra["bytes"] += codec["bytes"]
            st.extra["records"] += wl.n_records
            base = len(tracer.spans)
            for span in wl.client_result["spans"]:
                parent = span[3] + base if span[3] >= 0 else -1
                tracer.spans.append([span[0], span[1], span[2], parent])
        raw["traced_walls"].append(wall)
        raw["docs"].append(doc)
        raw["layers"].append(layers)
        if wl.name == "fleet-quiet-8t":
            raw["single_walls"].append(wl.run_single())
    raw["n_records"] = n
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--break-reference", action="store_true",
        help="perturb the reference predictions (proves the gate fires)",
    )
    args = parser.parse_args(argv)
    common.add_src_path()
    started = time.perf_counter()
    probe_before = common.host_probe()
    workdir = common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # nothing the run starts may write outside the checkout
    tempfile.tempdir = str(workdir)
    input_path = workdir / "input.pkl"
    wl = None
    try:
        # synthesis overlaps the imports below; set-up starts after it
        synth = subprocess.Popen(
            [sys.executable, str(common.HERE / "synth.py"), args.workload,
             str(args.seed), str(input_path)],
            env={**os.environ, "TMPDIR": str(workdir)},
        )
        try:
            import workloads
            from tracer import Tracer
            rc = synth.wait(timeout=60)
        finally:
            if synth.poll() is None:
                synth.kill()
                synth.wait()
        if rc != 0:
            raise SystemExit(f"input synthesis failed ({rc})")
        phases = {"synth": time.perf_counter() - started}
        wl = workloads.load(args.workload, input_path, workdir)
        tracer = Tracer()
        if args.trace:
            install_setup_layers(tracer)
        try:
            setups = [wl.setup_once() for _ in range(SETUP_REPS)]
        finally:
            tracer.unwrap_all()
        setup_layers = tracer.take_layers()
        phases["setup"] = time.perf_counter() - started
        wl.load_input()
        phases["input"] = time.perf_counter() - started
        # the peak covers the passes: set-up transients and the
        # whole-stream work of the properties and the reference below
        # stay out of it
        peak_reset = common.reset_peak_rss()
        raw = measure(args, wl, tracer, started)
        peak_rss = common.peak_rss_mb()
        phases["passes"] = time.perf_counter() - started
        props = wl.input_properties()
        reference = wl.reference()
        phases["reference"] = time.perf_counter() - started
        if args.break_reference:
            reference = _broken(reference)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    walls = raw["traced_walls"] if args.trace else raw["walls"]
    if not walls or (not args.trace and raw["requests"] < MIN_REQUESTS):
        print(f"error: {len(walls)} timed passes and {raw['requests']} "
              f"requests in {PASS_DEADLINE_S:g} s; need at least one pass "
              f"and {MIN_REQUESTS} requests", file=sys.stderr)
        return 1
    identical = all(doc == raw["docs"][0] for doc in raw["docs"])
    matches = raw["docs"][-1] == reference
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": common.fingerprint(),
        "host_probe_mops": {"before": probe_before,
                            "after": common.host_probe()},
        "input": props,
        "phase_end_s": phases,
        "setup_s": setups,
        "peak_rss_reset": peak_reset,
        "passes": len(raw["walls"]) + len(raw["traced_walls"]),
        "requests": raw["requests"],
        "failures": raw["failures"],
        "passes_identical": identical,
        "matches_reference": matches,
    }
    n, samples = raw["n_records"], props["samples"]
    metrics = {}
    correct = identical and matches
    if not args.trace:
        lat = [s * 1000.0 for pass_lat in raw["latencies"] for s in pass_lat]
        values = {
            "records_per_s": common.median([n / w for w in raw["walls"]]),
            "request_latency_p50_ms": common.quantile(lat, 0.50),
            "request_latency_p99_ms": common.quantile(lat, 0.99),
            "setup_s": common.median(setups),
            "peak_rss_mb": peak_rss,
        }
        units = {"records_per_s": "records/s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        for name, value in values.items():
            metrics[name] = {"value": value,
                             "unit": units.get(name, "ms")}
    else:
        values = _traced_values(args, raw, setups, setup_layers, props, wl)
        coverage = values["trace.coverage"]
        details["coverage"] = coverage
        if args.workload in IN_PROCESS and coverage < MIN_COVERAGE:
            correct = False
        for name, unit in per_layer_units().items():
            metrics[name] = {"value": values.get(name, 0), "unit": unit}
        spans_path = common.WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        details["spans"] = str(spans_path.relative_to(common.ROOT))
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempts"],
        "failed": sum(raw["failures"].values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _broken(reference):
    """A reference that differs from any real output by one prediction."""
    if isinstance(reference, dict):
        tenant = sorted(reference)[0]
        return {**reference, tenant: _broken(reference[tenant])}
    preds = json.loads(reference)
    return json.dumps(preds[:-1] if preds else [{"broken": True}],
                      sort_keys=True)


def _traced_values(args, raw, setups, setup_layers, props, wl) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    n, samples = raw["n_records"], props["samples"]
    walls = raw["traced_walls"]
    per_pass = [
        layer_values(layers, wall, n, samples)
        for layers, wall in zip(raw["layers"], walls)
    ]
    values = {}
    for key in sorted({k for p in per_pass for k in p}):
        values[key] = common.median([p.get(key, 0) for p in per_pass])
    values["trace.coverage"] = common.median([
        sum(layers[name].self_s for name in PASS_LAYERS if name in layers)
        / wall
        for layers, wall in zip(raw["layers"], walls)
    ])

    def rate(ws):
        return common.median([n / w for w in ws])

    values["trace.overhead_ratio"] = rate(raw["walls"]) / rate(walls)
    if raw["single_walls"]:
        # fleet records/s over single-predictor records/s, both untraced
        values["fleet.ratio_vs_single"] = (
            rate(raw["walls"]) / rate(raw["single_walls"]))
    # set-up layers: per set-up, against the training window
    train_n = len(wl.train)
    train_samples = int(wl.train_end / common.SAMPLE_SECONDS)
    reps = len(setups)
    for name, st in setup_layers.items():
        busy = st.self_s / reps
        values[f"{name}.busy_s"] = busy
        values[f"{name}.share"] = st.self_s / sum(setups)
        values[f"{name}.calls"] = st.calls / reps
        values[f"{name}.us_per_record"] = busy * 1e6 / train_n
        values[f"{name}.us_per_sample"] = busy * 1e6 / train_samples
    for key, value in props.items():
        values[f"input.{key}"] = value
    return values


if __name__ == "__main__":
    sys.exit(main())
