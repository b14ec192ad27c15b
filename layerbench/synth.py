"""Input synthesis, run as its own process: ``synth.py WORKLOAD SEED OUT``.

Writes one pickle holding everything the measured program gets to see:
the fixed-seed training window and the workload's seeded test stream.
Nothing else crosses over — the generator's RNG state, ground truth and
hidden event-type channels stay in this process.

The test stream has a fixed shape per workload (see
:data:`common.WORKLOADS`):

* the background generator runs the BlueGene workload *without* its
  Poisson-placed bursts, at 1.5x the target chatter rate, from the
  fixed :data:`common.SKELETON_SEED`: fault syndromes, periodic beats,
  rare events and restart/multiline structures are the same skeleton
  for every ``--seed``.  Where the first never-trained messages land
  decides when the online template table changes, and classify cost
  follows that (2x between seeds when the skeleton was seeded too);
* INFO noise chatter (the only Poisson-thinnable traffic) is thinned
  uniformly at random, with the run's seed, to the exact record budget,
  so the seed picks which two thirds of the chatter appear;
* the burst schedule is fixed: each burst has exactly
  ``length * burst_rate`` records on distinct milliseconds at one
  seeded node;
* timestamps sit on the millisecond grid of the text log format, so the
  text route and the columnar routes see the same stream.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

common.add_src_path()

from repro.datasets.scenarios import bluegene_scenario  # noqa: E402
from repro.simulation.faults import bluegene_fault_catalog  # noqa: E402
from repro.simulation.generator import (  # noqa: E402
    GeneratorConfig,
    LogGenerator,
)
from repro.simulation.templates import (  # noqa: E402
    SignalClass,
    bluegene_templates,
)
from repro.simulation.topology import build_bluegene_machine  # noqa: E402
from repro.simulation.trace import LogRecord, Severity  # noqa: E402
from repro.simulation.workload import (  # noqa: E402
    PeriodicEmitter,
    WorkloadConfig,
)

#: background chatter is generated this much above the target rate so
#: there is always enough to thin down to the exact budget, and the
#: seed has a real choice of which chatter records to keep
OVERSAMPLE = 1.5
BURST_TEMPLATE = "info.app_output"


def _columns(records) -> dict:
    return {
        "timestamps": np.array([r.timestamp for r in records]),
        "locations": [r.location for r in records],
        "severities": [int(r.severity) for r in records],
        "messages": [r.message for r in records],
    }


def training_window() -> dict:
    sc = bluegene_scenario(
        duration_days=common.TRAIN["duration_days"],
        seed=common.TRAIN["seed"],
        train_fraction=common.TRAIN["train_fraction"],
        fault_rate_scale=common.TRAIN["fault_rate_scale"],
        base_rate_per_sec=common.TRAIN["base_rate_per_sec"],
    )
    train = [r for r in sc.records if r.timestamp < sc.train_end]
    return {"train_end": sc.train_end, **_columns(train)}


def _background(spec: dict, machine, templates):
    # the bluegene_scenario workload, minus its Poisson-placed bursts
    workload = WorkloadConfig(
        base_rate_per_sec=spec["rate"] * OVERSAMPLE,
        burst_templates=(),
        ambient_error_rates={
            "cache.parity_corrected": 0.02,
            "net.torus_retrans": 0.0065,
            "mem.correctable_dir": 2e-5,
            "io.ciod_strm": 2e-5,
            "net.rx_crc": 2e-5,
            "card.bit_sparing": 1e-5,
            "cache.dcache_parity": 4e-5,
        },
        extra_emitters=[PeriodicEmitter("info.heartbeat", period=60.0)],
    )
    cfg = GeneratorConfig(
        duration_days=spec["span_s"] / 86400.0,
        seed=common.SKELETON_SEED,
        fault_rate_scale=common.TRAIN["fault_rate_scale"],
        workload=workload,
    )
    records, _ = LogGenerator(
        machine, templates, bluegene_fault_catalog(), cfg
    ).generate()
    return [r for r in records if 0.0 <= r.timestamp < spec["span_s"]]


def test_stream(name: str, seed: int, t_start: float) -> dict:
    spec = common.WORKLOADS[name]
    machine = build_bluegene_machine()
    templates = bluegene_templates()
    rng = np.random.default_rng([seed, sorted(common.WORKLOADS).index(name)])

    background = _background(spec, machine, templates)
    thinnable = np.array([
        r.fault_id is None
        and r.event_type is not None
        and templates[r.event_type].signal_class is SignalClass.NOISE
        and r.severity == Severity.INFO
        for r in background
    ])
    burst_sizes = [int(round(length * spec["burst_rate"]))
                   for _, length in spec["bursts"]]
    n_burst = sum(burst_sizes)
    keep_noise = spec["records"] - n_burst - int((~thinnable).sum())
    if not 0 <= keep_noise <= int(thinnable.sum()):
        raise SystemExit(
            f"synthesis: cannot fit {name} seed {seed} into "
            f"{spec['records']} records ({int(thinnable.sum())} chatter, "
            f"{int((~thinnable).sum())} structured, {n_burst} burst)"
        )
    noise_idx = np.flatnonzero(thinnable)
    keep = np.zeros(len(background), dtype=bool)
    keep[~thinnable] = True
    keep[rng.choice(noise_idx, size=keep_noise, replace=False)] = True
    records = [r for r, k in zip(background, keep) if k]

    tid = templates.id_of(BURST_TEMPLATE)
    tpl = templates[tid]
    for (offset, length), size in zip(spec["bursts"], burst_sizes):
        loc = machine.random_node(rng)
        ms = np.sort(rng.choice(int(length * 1000), size=size, replace=False))
        for t in offset + ms / 1000.0:
            records.append(LogRecord(float(t), loc, tpl.severity,
                                     tpl.render(rng)))
    # onto the text format's millisecond grid, then into window time;
    # the hidden event-type and fault channels are dropped here
    records = sorted(
        (LogRecord(round(t_start + round(r.timestamp, 3), 3), r.location,
                   r.severity, r.message) for r in records),
        key=lambda r: r.timestamp,
    )
    if len(records) != spec["records"]:
        raise SystemExit(f"synthesis: {len(records)} records, "
                         f"expected {spec['records']}")
    out = {
        "workload": name,
        "seed": seed,
        "t_start": t_start,
        "t_end": t_start + spec["span_s"],
        "records": len(records),
        "burst_records": n_burst,
    }
    if name == "stream-5hz":
        out["lines"] = [r.format_line() for r in records]
    else:
        out.update(_columns(records))
    return out


def main(argv) -> int:
    name, seed, out = argv[1], int(argv[2]), Path(argv[3])
    train = training_window()
    doc = {"train": train, "test": test_stream(name, seed, train["train_end"])}
    tmp = out.with_name(out.name + ".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
