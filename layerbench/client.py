"""The ingest workload's load generator, run as its own process.

``client.py INPUT TENANTS BATCH`` loads the synthesized test stream,
partitions it per tenant into BATCH-record batches exactly like
``IngestClient.feed`` (per-tenant arrival order, full batches as they
fill, then each tenant's tail in tenant order), prints
``{"batches": N}`` and waits for commands on stdin, one JSON per line:

* ``{"port": P, "trace": false}`` — one closed-loop pass against
  ``127.0.0.1:P``: every batch is encoded with ``encode_batch`` and
  POSTed through a retrying ``IngestClient``, then every tenant is
  sealed.  Replies with the pass wall time, the latency of each POST as
  the client saw it (retries included), the client's retry/throttle
  counters and, when traced, the encode spans;
* ``{"quit": true}`` — exit.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

common.add_src_path()

from repro.columnar import RecordBatch  # noqa: E402
from repro.fleet import hashed_tenant_key  # noqa: E402
from repro.fleet import ingest as ingest_mod  # noqa: E402
from repro.fleet.client import (  # noqa: E402
    ClientError,
    HTTPTransport,
    IngestClient,
)
from repro.simulation.trace import LogRecord, Severity  # noqa: E402
from tracer import Tracer  # noqa: E402


class BatchIngestClient(IngestClient):
    """``IngestClient`` whose batches travel as ``RecordBatch`` columns.

    ``send_batch`` keeps the parent's sequencing and ack handling but
    encodes with ``encode_batch`` (byte-identical wire format, no record
    objects), and times each POST including its retries.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.latencies = []

    def send_batch(self, tenant: str, batch) -> dict:
        seq = self._seq.get(tenant, 0)
        body = ingest_mod.encode_batch(batch)
        headers = {
            "Content-Type": "application/x-ndjson",
            "X-Stream-Id": self.stream_id,
            "X-Batch-Seq": str(seq),
        }
        t0 = perf_counter()
        resp = self._request("POST", f"/ingest/{tenant}", body, headers)
        self.latencies.append(perf_counter() - t0)
        payload = resp.json()
        if resp.status != 200:
            raise ClientError(resp.status, payload)
        self._seq[tenant] = seq + 1
        self.stats["batches"] += 1
        self.stats["records"] += len(batch)
        if payload.get("duplicate"):
            self.stats["duplicates"] += 1
        return payload


def plan(batch: RecordBatch, key, size: int):
    """(tenant, RecordBatch) sends in ``IngestClient.feed`` order."""
    tenant_of = np.array([key(loc) for loc in batch.loc_pool])[batch.loc_ids]
    buffers, sends = {}, []
    for i, tenant in enumerate(tenant_of.tolist()):
        buf = buffers.setdefault(tenant, [])
        buf.append(i)
        if len(buf) >= size:
            sends.append((tenant, buf[:]))
            buf.clear()
    for tenant in sorted(buffers):
        if buffers[tenant]:
            sends.append((tenant, buffers[tenant]))
    tenants = sorted(buffers)
    return [(t, batch.take(np.asarray(ix))) for t, ix in sends], tenants


def run_pass(sends, tenants, port: int, traced: bool) -> dict:
    tracer = Tracer()
    if traced:
        tracer.wrap(
            ingest_mod, "encode_batch", "fleet.codec",
            extra=lambda st, a, k, r: st.extra.__setitem__(
                "bytes", st.extra["bytes"] + len(r)),
        )
    client = BatchIngestClient(HTTPTransport("127.0.0.1", port,
                                             timeout=30.0))
    try:
        t0 = perf_counter()
        for tenant, batch in sends:
            client.send_batch(tenant, batch)
        for tenant in tenants:
            client.seal(tenant)
        wall = perf_counter() - t0
    finally:
        tracer.unwrap_all()
    codec = tracer.take_layers().get("fleet.codec")
    return {
        "wall": wall,
        "latencies": client.latencies,
        "stats": client.stats,
        "codec": None if codec is None else {
            "self_s": codec.self_s, "calls": codec.calls,
            "bytes": codec.extra["bytes"],
        },
        "spans": tracer.spans,
    }


def main(argv) -> int:
    path, n_tenants, size = Path(argv[1]), int(argv[2]), int(argv[3])
    with path.open("rb") as fh:
        test = pickle.load(fh)["test"]
    records = [
        LogRecord(float(t), loc, Severity(sev), msg)
        for t, loc, sev, msg in zip(test["timestamps"], test["locations"],
                                    test["severities"], test["messages"])
    ]
    sends, tenants = plan(RecordBatch.from_records(records),
                          hashed_tenant_key(n_tenants), size)
    print(json.dumps({"batches": len(sends)}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd.get("quit"):
            break
        try:
            out = run_pass(sends, tenants, int(cmd["port"]),
                           bool(cmd.get("trace")))
        except Exception as exc:  # reported, the server side decides
            out = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
