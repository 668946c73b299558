#!/usr/bin/env python3
"""Quickstart: run HyTGraph on an out-of-GPU-memory graph.

This example walks through the full pipeline on a synthetic stand-in for
the paper's sk-2005 web graph:

1. load (synthesise) the graph,
2. build the HyTGraph system — hub sorting, 32-partition layout, hybrid
   transfer management, multi-stream scheduling,
3. run single-source shortest paths and PageRank,
4. inspect what the runtime did: per-iteration engine mix, transfer
   volume, and the simulated time breakdown.

Run it with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import HyTGraphOptions, HyTGraphSystem, load_dataset, make_algorithm
from repro.metrics.tables import format_table


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Load a graph.  scale=0.5 keeps the demo under a second; weighted
    #    edges are needed for SSSP.
    # ------------------------------------------------------------------
    graph = load_dataset("SK", scale=0.5, weighted=True)
    print("Loaded %s: %d vertices, %d edges (%.1f MB of edge data)" % (
        graph.name, graph.num_vertices, graph.num_edges, graph.edge_data_bytes / 1e6,
    ))

    # ------------------------------------------------------------------
    # 2. Build the system.  The options shown are the paper's defaults;
    #    every one of them can be switched off for experimentation.
    #    Partitioning (like the cache and backend knobs) is a
    #    constructor argument shared with every baseline system.
    # ------------------------------------------------------------------
    options = HyTGraphOptions(
        combine_factor=4,
        task_combining=True,
        contribution_scheduling=True,
        hub_sorting=True,
    )
    system = HyTGraphSystem(graph, options=options, num_partitions=32)
    print("Partitioned the edge data into %d chunks; hub sorting gathered the "
          "top %.0f%% hub vertices at the front of the CSR." % (
              system.partitioning.num_partitions, options.hub_fraction * 100))

    # ------------------------------------------------------------------
    # 3. Run SSSP from the highest-degree vertex, then PageRank.
    # ------------------------------------------------------------------
    source = int(np.argmax(graph.out_degrees))
    sssp = system.run(make_algorithm("sssp"), source=source)
    reachable = np.isfinite(sssp.values).sum()
    print("\nSSSP from vertex %d: %d iterations, %d of %d vertices reachable, "
          "simulated time %.3f ms" % (
              source, sssp.num_iterations, reachable, graph.num_vertices, sssp.total_time * 1e3))

    pagerank = system.run(make_algorithm("pagerank"))
    top = np.argsort(-pagerank.values)[:5]
    print("PageRank: %d iterations, simulated time %.3f ms, top vertices %s" % (
        pagerank.num_iterations, pagerank.total_time * 1e3, list(map(int, top))))

    # ------------------------------------------------------------------
    # 4. Inspect the run: how much data moved, and which transfer engine
    #    the cost model picked as the frontier evolved.
    # ------------------------------------------------------------------
    print("\nPer-iteration execution path of PageRank (first 10 iterations):")
    rows = []
    for stats in pagerank.iterations[:10]:
        rows.append({
            "iter": stats.index,
            "active vertices": stats.active_vertices,
            "active edges": stats.active_edges,
            "transferred KB": round(stats.transfer_bytes / 1024, 1),
            "engine mix": ", ".join("%s:%d" % (engine_name, count)
                                    for engine_name, count in sorted(stats.engine_partitions.items())),
        })
    print(format_table(rows))

    ratio = pagerank.total_transfer_bytes / graph.edge_data_bytes
    print("Total transfer volume: %.2f MB (%.2fx the edge data)" % (
        pagerank.total_transfer_bytes / 1e6, ratio))
    breakdown = pagerank.breakdown()
    print("Resource busy time: compaction %.3f ms, PCIe %.3f ms, GPU %.3f ms" % (
        breakdown["compaction"] * 1e3, breakdown["transfer"] * 1e3, breakdown["computation"] * 1e3))


if __name__ == "__main__":
    main()
