#!/usr/bin/env python3
"""Distill google-benchmark JSON output into the repo's BENCH_*.json shape.

Usage: bench_to_json.py <google-benchmark-out.json> <BENCH_target.json>

Each benchmark row becomes one record with the fields the perf trajectory
tracks per commit: benchmark name, n, batch size, ns/op, speedup vs a
from-scratch rebuild, counted writes per batch, and whether the row
self-verified against the from-scratch oracle. Counters a row does not
report are emitted as null, so downstream tooling can distinguish "not
measured" from zero.
"""

import json
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def distill(raw):
    rows = []
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = TIME_UNIT_NS[b.get("time_unit", "ns")]
        rows.append(
            {
                "benchmark": b["name"],
                "n": b.get("n"),
                "batch_size": b.get("B"),
                "ns_per_op": b["real_time"] * unit,
                "speedup_vs_rebuild": b.get("speedup_vs_rebuild"),
                "writes_per_batch": b.get("writes_per_batch"),
                # Block-merge rows (bench_dynamic_biconn dense churn): the
                # fraction of batches the patch algebra absorbed without a
                # rebuild (1.0 = all of them).
                "absorb_rate": b.get("absorb_rate"),
                # Durability rows (bench_persist): real I/O next to the
                # modeled counters.
                "bytes_to_storage": b.get("bytes_to_storage"),
                "snapshot_bytes": b.get("snapshot_bytes"),
                "wal_bytes_per_batch": b.get("wal_bytes_per_batch"),
                "replayed_batches": b.get("replayed_batches"),
                "bytes_per_second": b.get("bytes_per_second"),
                # Service rows (wecc_loadgen): sustained throughput and the
                # latency tail per op class over the live TCP server.
                "ops_per_sec": b.get("ops_per_sec"),
                "requests_per_sec": b.get("requests_per_sec"),
                "p50_ns": b.get("p50_ns"),
                "p99_ns": b.get("p99_ns"),
                "p999_ns": b.get("p999_ns"),
                # Rebuild rows (bench_rebuild): the sharded selective
                # rebuild's execution shape and its speedup over the
                # 1-thread row of the same (n, B).
                "rebuild_ms": b.get("rebuild_ms"),
                "dirty_clusters": b.get("dirty_clusters"),
                "shards": b.get("shards"),
                "threads": b.get("threads"),
                "speedup_vs_1thread": b.get("speedup_vs_1thread"),
                # Where a rebuild's time goes (mean ms per rebuild of each
                # construction phase) and how often it hits the heap.
                "cache_fill_ms": b.get("cache_fill_ms"),
                "forest_ms": b.get("forest_ms"),
                "labeling_ms": b.get("labeling_ms"),
                "fixpoints_ms": b.get("fixpoints_ms"),
                "bits_ms": b.get("bits_ms"),
                "allocs_per_rebuild": b.get("allocs_per_rebuild"),
                "verified": b.get("verified"),
                "error": b.get("error_message"),
            }
        )
    return rows


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        raw = json.load(f)
    rows = distill(raw)
    with open(sys.argv[2], "w") as f:
        json.dump(rows, f, indent=2)
        f.write("\n")
    failures = [r["benchmark"] for r in rows if r["error"]]
    if failures:
        sys.exit(f"benchmark rows errored: {', '.join(failures)}")
    print(f"{sys.argv[2]}: {len(rows)} rows")


if __name__ == "__main__":
    main()
