"""The three workloads: set-up, one timed pass, and the reference.

Each workload drives the program only through its public entry points
and the same objects the CLI builds:

* ``stream-5hz`` — the ``predict --lenient --checkpoint`` route over raw
  text: ``parse_lines_batch`` → ``sanitize_batch`` →
  ``ResumableRun.feed_chunk`` (1,024-record chunks, a checkpoint every
  4,096 records) → ``finish``.  A request is one chunk through all of
  it.  Reference: the batch engine over object-parsed lines.
* ``fleet-quiet-8t`` — ``Fleet.run`` over one ``RecordBatch`` on 8
  hashed tenants with the ``FleetPolicy`` defaults.  A request is one
  ``feed_chunk`` call.  Reference: a standalone run per tenant.
* ``ingest-5hz-8t`` — an ``IngestServer`` built the way ``serve`` builds
  it and pumped on the serve loop's 20 ms timer, fed by one closed-loop
  ``IngestClient`` in another process (:mod:`client`).  A request is one
  ``POST /ingest`` as the client sees it.  Reference: an in-process
  fleet over the same records.

Every pass starts from the fitted model's pristine online state and a
fresh observability registry; set-up and reference work stay outside
the timed region.
"""

from __future__ import annotations

import copy
import gc
import json
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import common

common.add_src_path()

from repro import obs  # noqa: E402
from repro.columnar import RecordBatch  # noqa: E402
from repro.core.elsa import ELSA  # noqa: E402
from repro.fleet import Fleet, FleetPolicy, hashed_tenant_key  # noqa: E402
from repro.fleet import ingest as ingest_mod  # noqa: E402
from repro.helo import batch as helo_batch  # noqa: E402
from repro.resilience import checkpoint as ckpt_mod  # noqa: E402
from repro.resilience import stream as stream_mod  # noqa: E402
from repro.resilience.config import ResilienceConfig  # noqa: E402
from repro.simulation.topology import build_bluegene_machine  # noqa: E402
from repro.simulation.trace import (  # noqa: E402
    LogRecord,
    Severity,
    parse_log_line,
)

#: the serve loop's default sleep between pump passes
PUMP_INTERVAL = 0.02


def _records(cols: dict):
    return [
        LogRecord(float(t), loc, Severity(sev), msg)
        for t, loc, sev, msg in zip(
            cols["timestamps"], cols["locations"], cols["severities"],
            cols["messages"],
        )
    ]


def _tenancy(machine, spec: dict):
    """The hashed tenant key and every tenant it maps the machine to."""
    key = hashed_tenant_key(spec["tenants"])
    return key, sorted({key(loc) for loc in machine.nodes})


def predictions_doc(predictions) -> str:
    """Canonical text of a prediction list (for equality checks)."""
    return json.dumps([p.to_dict() for p in predictions], sort_keys=True)


def tenant_docs(out: dict) -> dict:
    return {t: predictions_doc(p) for t, p in sorted(out.items())}


class Workload:
    """Shared plumbing; subclasses implement the pass and the reference."""

    name = ""

    def __init__(self, doc: dict, workdir: Path, spec: dict) -> None:
        self.spec = spec
        self.workdir = workdir
        self.machine = build_bluegene_machine()
        train = doc["train"]
        self.train_end = float(train["train_end"])
        self.train = _records(train)
        self.test = doc["test"]
        self.t_start = float(self.test["t_start"])
        self.t_end = float(self.test["t_end"])
        self.elsa = None
        self.helo_state = None
        self.failures = {}

    # -- set-up --------------------------------------------------------------

    def fit(self) -> ELSA:
        elsa = ELSA(self.machine)
        elsa.fit(self.train, t_train_end=self.train_end)
        return elsa

    def setup_once(self) -> float:
        """One timed set-up from a collected heap; keeps the model."""
        gc.collect()
        t0 = perf_counter()
        elsa = self.fit()
        extra = self.build_serving(elsa)
        seconds = perf_counter() - t0
        self.teardown_serving(extra)
        self.elsa = elsa
        self.helo_state = elsa.online_state_dict()
        return seconds

    def build_serving(self, elsa):
        """Serving objects a deployment builds after the fit (timed)."""
        return None

    def teardown_serving(self, extra) -> None:
        pass

    def pristine(self) -> None:
        """Back to the fitted model's online state, fresh obs slate."""
        obs.reset()
        self.elsa.restore_online_state(self.helo_state)

    def load_input(self) -> None:
        """Materialize the test input (after set-up, outside timing)."""

    def close(self) -> None:
        pass

    # -- input properties ----------------------------------------------------

    def input_batch(self) -> RecordBatch:
        raise NotImplementedError

    def input_properties(self) -> dict:
        """Records, samples, anchor/burst/unique shares of the input."""
        batch = self.input_batch()
        n = len(batch)
        samples = int(round((self.t_end - self.t_start)
                            / common.SAMPLE_SECONDS))
        self.pristine()
        ids = np.asarray(self.elsa._classify(batch, online=True))
        anchors = sorted({c.anchor for c in self.elsa.model.predictive_chains})
        hit = np.isin(ids, np.asarray(anchors, dtype=np.int64))
        cols = ((batch.timestamps[hit] - self.t_start)
                // common.SAMPLE_SECONDS).astype(np.int64)
        self.pristine()
        return {
            "records": n,
            "samples": samples,
            "records_per_sample": n / samples,
            "anchor_sample_share": len(np.unique(cols)) / samples,
            "burst_share": self.test["burst_records"] / n,
            "unique_message_share": len(set(batch.messages)) / n,
        }


class StreamWorkload(Workload):
    name = "stream-5hz"

    def load_input(self) -> None:
        self.lines = self.test["lines"]
        self.n_records = len(self.lines)
        self.config = ResilienceConfig()
        self.ckpt = self.workdir / "stream.ckpt.json"

    def input_batch(self) -> RecordBatch:
        return helo_batch.parse_lines_batch(self.lines)

    def run_pass(self, latencies: list):
        """One pass; appends per-request seconds; returns (wall, preds)."""
        self.pristine()
        self.elsa.config.resilience = self.config
        chunk = self.spec["chunk"]
        lines = self.lines
        dead = []
        gc.collect()
        t0 = perf_counter()
        run = ckpt_mod.ResumableRun(
            self.elsa, self.t_start, self.t_end,
            checkpoint_path=self.ckpt,
            checkpoint_every=self.spec["checkpoint_every"],
            batch_size=chunk,
        )
        with obs.LocalCounters() as local:
            for i in range(0, len(lines), chunk):
                r0 = perf_counter()
                batch = helo_batch.parse_lines_batch(
                    lines[i:i + chunk], lenient=True
                )
                clean, stats = stream_mod.sanitize_batch(
                    batch, self.config, dead_letters=dead
                )
                run.feed_chunk(clean, local=local)
                latencies.append(perf_counter() - r0)
        predictions = run.finish()
        wall = perf_counter() - t0
        self.failures = {"dead_lettered": len(dead)}
        return wall, predictions_doc(predictions)

    def reference(self) -> str:
        """The batch engine over object-parsed lines, whole stream."""
        self.pristine()
        self.elsa.config.resilience = self.config
        records = [parse_log_line(line) for line in self.lines]
        stream = self.elsa.make_stream(records, self.t_start, self.t_end)
        predictions = self.elsa.hybrid_predictor().run(stream)
        self.pristine()
        return predictions_doc(predictions)


class FleetWorkload(Workload):
    name = "fleet-quiet-8t"

    def __init__(self, doc, workdir, spec) -> None:
        super().__init__(doc, workdir, spec)
        self.key, self.tenants = _tenancy(self.machine, spec)
        self.ckpt_dir = workdir / "fleet"

    def load_input(self) -> None:
        self.batch = RecordBatch.from_records(_records(self.test))
        self.n_records = len(self.batch)

    def input_batch(self) -> RecordBatch:
        return self.batch

    def build_serving(self, elsa):
        return Fleet.build(
            elsa, self.tenants, self.t_start, self.t_end, self.key,
            self.ckpt_dir, policy=FleetPolicy(),
        )

    def teardown_serving(self, fleet) -> None:
        fleet.close()

    def run_pass(self, latencies: list):
        self.pristine()
        fleet = Fleet.build(
            self.elsa, self.tenants, self.t_start, self.t_end, self.key,
            self.ckpt_dir, policy=FleetPolicy(),
        )
        gc.collect()
        t0 = perf_counter()
        out = fleet.run(self.batch)
        wall = perf_counter() - t0
        stats = fleet.router.stats
        self.failures = {
            "shed": int(stats.get("shed", 0)),
            "dead_lettered": int(stats.get("dead_lettered", 0)),
            "crashes": sum(s.crashes for s in fleet.shards.values()),
        }
        fleet.close()
        return wall, tenant_docs(out)

    def run_single(self) -> float:
        """One predictor over the same records: the fleet's yardstick."""
        self.pristine()
        run = ckpt_mod.ResumableRun(
            self.elsa, self.t_start, self.t_end, batch_size=4096,
            history=None, slo_engine=None,
        )
        run.history = run.slo = None
        gc.collect()
        t0 = perf_counter()
        run.run(self.batch)
        return perf_counter() - t0

    def reference(self) -> dict:
        """Each tenant standalone on its own slice of the stream."""
        out = {}
        keys = np.array([self.key(loc) for loc in self.batch.loc_pool])
        tenant_of = keys[self.batch.loc_ids]
        for tenant in self.tenants:
            self.pristine()
            run = ckpt_mod.ResumableRun(
                copy.deepcopy(self.elsa), self.t_start, self.t_end
            )
            run.history = run.slo = None
            sub = self.batch.take(tenant_of == tenant)
            for a in range(0, len(sub), 4096):
                run.feed_chunk(sub[a:a + 4096])
            out[tenant] = run.finish()
        self.pristine()
        return tenant_docs(out)


class IngestWorkload(Workload):
    name = "ingest-5hz-8t"

    def __init__(self, doc, workdir, spec, input_path: Path) -> None:
        super().__init__(doc, workdir, spec)
        self.input_path = input_path
        self.client = None
        self.key, self.tenants = _tenancy(self.machine, spec)

    def _serving(self, elsa, tag: str):
        policy = FleetPolicy()
        fleet = Fleet.build(
            elsa, self.tenants, self.t_start, self.t_end, self.key,
            self.workdir / f"ingest-{tag}", policy=policy,
        )
        api = ingest_mod.IngestAPI(
            fleet,
            config=ingest_mod.IngestConfig(
                max_batch_records=8192,
                admission_rate=50000.0,
                admission_capacity=max(50000.0, 2.0 * 8192),
            ),
            ledger_path=self.workdir / f"ingest-{tag}" / "ingest-ledger.json",
        )
        server = ingest_mod.IngestServer(
            api, host="127.0.0.1", port=0, request_timeout_seconds=30.0,
        ).start()
        return fleet, api, server

    def build_serving(self, elsa):
        return self._serving(elsa, "setup")

    def teardown_serving(self, extra) -> None:
        fleet, _, server = extra
        server.stop()
        fleet.close()

    def load_input(self) -> None:
        self.batch = RecordBatch.from_records(_records(self.test))
        self.n_records = len(self.batch)
        self.client = subprocess.Popen(
            [sys.executable, str(common.HERE / "client.py"),
             str(self.input_path), str(self.spec["tenants"]),
             str(self.spec["batch"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()                         # {"batches": N}: ready

    def _read(self) -> dict:
        line = self.client.stdout.readline()
        if not line:
            raise RuntimeError("ingest client exited early")
        return json.loads(line)

    def _send(self, msg: dict) -> None:
        self.client.stdin.write(json.dumps(msg) + "\n")
        self.client.stdin.flush()

    def input_batch(self) -> RecordBatch:
        return self.batch

    def run_pass(self, latencies: list, tracer=None):
        self.pristine()
        fleet, api, server = self._serving(self.elsa, "pass")
        if tracer is not None:
            from tracer import TimedLock

            api.lock = TimedLock(api.lock, tracer, "fleet.ingest")
        stop = threading.Event()

        def serve_loop():
            # the serve command's main loop: pump, then sleep the timer
            while not stop.is_set():
                api.pump_once()
                stop.wait(PUMP_INTERVAL)

        pump = threading.Thread(target=serve_loop, daemon=True)
        gc.collect()
        pump.start()
        self._send({"port": server.port, "trace": tracer is not None})
        result = self._read()
        stop.set()
        pump.join()
        server.stop()
        if "error" in result:
            fleet.close()
            raise RuntimeError(f"ingest client: {result['error']}")
        latencies.extend(result["latencies"])
        stats = fleet.router.stats
        client_stats = result["stats"]
        self.failures = {
            "throttled": int(client_stats["throttled"]),
            "retries": int(client_stats["retries"]),
            "shed": int(stats.get("shed", 0)),
            "dead_lettered": int(stats.get("dead_lettered", 0)),
        }
        self.attempts = int(client_stats["batches"]) + self.failures[
            "throttled"] + self.failures["retries"]
        self.client_result = result
        out = {t: s.predictions for t, s in fleet.shards.items()}
        fleet.close()
        if any(p is None for p in out.values()):
            raise RuntimeError("a tenant was not sealed by the client")
        return result["wall"], tenant_docs(out)

    def reference(self) -> dict:
        """An in-process fleet over the same records."""
        self.pristine()
        fleet = Fleet.build(
            self.elsa, self.tenants, self.t_start, self.t_end, self.key,
            self.workdir / "ingest-ref", policy=FleetPolicy(),
        )
        out = fleet.run(self.batch)
        fleet.close()
        self.pristine()
        return tenant_docs(out)

    def close(self) -> None:
        if self.client is None:
            return
        try:
            self._send({"quit": True})
            self.client.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.client.kill()
            self.client.wait()
        self.client = None


def load(name: str, input_path: Path, workdir: Path) -> Workload:
    with input_path.open("rb") as fh:
        doc = pickle.load(fh)
    spec = common.WORKLOADS[name]
    if name == "stream-5hz":
        return StreamWorkload(doc, workdir, spec)
    if name == "fleet-quiet-8t":
        return FleetWorkload(doc, workdir, spec)
    return IngestWorkload(doc, workdir, spec, input_path)
