"""Unit tests for the ``repro-graph`` command-line interface."""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import DEFAULT_COMPARE_SYSTEMS, build_parser, main
from repro.core.backends import active_backend, use_backend
from tests.test_kernels import CountingBackend


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "SK"
        assert args.algorithm == "sssp"
        assert args.system == "hytgraph"

    def test_invalid_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "gunrock"])

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--algorithm", "triangles"])

    def test_compare_default_systems(self):
        args = build_parser().parse_args(["compare"])
        assert args.systems == DEFAULT_COMPARE_SYSTEMS


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--dataset", "SK", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "SK" in output
        assert "|E|" in output

    def test_run_bfs(self, capsys):
        code = main(["run", "--dataset", "TW", "--algorithm", "bfs", "--system", "emogi", "--scale", "0.05"])
        assert code == 0
        output = capsys.readouterr().out
        assert "EMOGI / BFS on TW" in output
        assert "converged=True" in output

    def test_run_with_iteration_table(self, capsys):
        code = main(
            ["run", "--dataset", "SK", "--algorithm", "bfs", "--system", "hytgraph", "--scale", "0.05", "--iterations"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Per-iteration detail" in output

    def test_run_with_gpu_preset(self, capsys):
        code = main(
            ["run", "--dataset", "SK", "--algorithm", "bfs", "--system", "grus", "--scale", "0.05", "--gpu", "P100"]
        )
        assert code == 0
        assert "Grus / BFS" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "--dataset", "SK",
                "--algorithm", "bfs",
                "--systems", "emogi", "hytgraph",
                "--scale", "0.05",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "EMOGI" in output
        assert "HyTGraph" in output
        assert "slowdown" in output


class TestBatchCommand:
    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.algorithm == "sssp"
        assert args.system == "hytgraph"
        assert args.num_queries == 8
        assert args.sources is None

    def test_batch_sssp(self, capsys):
        code = main(
            ["batch", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05",
             "--num-queries", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "batch of 3 queries" in output
        assert "batch makespan" in output
        assert "vs sequential serving" in output

    def test_batch_explicit_sources_multi_gpu(self, capsys):
        code = main(
            ["batch", "--dataset", "SK", "--algorithm", "bfs", "--scale", "0.05",
             "--sources", "0", "5", "--devices", "2", "--no-baseline"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "batch of 2 queries" in output
        assert "x2 GPUs" in output
        assert "vs sequential" not in output

    def test_batch_sourceless_algorithm_rejects_sources(self):
        with pytest.raises(SystemExit, match="takes no traversal source"):
            main(["batch", "--algorithm", "pagerank", "--scale", "0.05",
                  "--sources", "0"])

    @pytest.mark.parametrize("system", ["grus", "imptm-um"])
    def test_batch_refuses_multi_device_incapable_system(self, system):
        with pytest.raises(SystemExit, match="no multi-device execution path"):
            main(["batch", "--system", system, "--devices", "2", "--scale", "0.05"])

    @pytest.mark.parametrize("system", ["grus", "imptm-um"])
    def test_run_refuses_multi_device_incapable_system(self, system):
        with pytest.raises(SystemExit, match="no multi-device execution path"):
            main(["run", "--system", system, "--devices", "2", "--scale", "0.05"])


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.system == "hytgraph"
        assert args.scheduling == "priority"
        assert args.budget is None
        assert args.admission == "queue"
        assert args.trace is None

    def test_serve_synthetic_trace(self, capsys):
        code = main(["serve", "--dataset", "SK", "--scale", "0.05",
                     "--point-lookups", "4", "--analytical", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "served 6 of 6 requests" in output
        assert "Per-class service latency" in output
        assert "interactive" in output and "bulk" in output

    def test_serve_fifo_scheduling(self, capsys):
        code = main(["serve", "--dataset", "SK", "--scale", "0.05",
                     "--point-lookups", "2", "--analytical", "1",
                     "--scheduling", "fifo"])
        assert code == 0
        assert "fifo scheduling" in capsys.readouterr().out

    def test_serve_trace_file(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([
            {"algorithm": "bfs", "source": 0, "priority": "interactive",
             "deadline_s": 10.0, "label": "lookup"},
            {"algorithm": "pagerank", "priority": "bulk"},
        ]))
        code = main(["serve", "--dataset", "SK", "--scale", "0.05",
                     "--trace", str(trace)])
        assert code == 0
        output = capsys.readouterr().out
        assert "served 2 of 2 requests" in output
        assert "deadlines: 1 met, 0 missed" in output

    def test_serve_zero_budget_reports_rejections(self, capsys):
        code = main(["serve", "--dataset", "SK", "--scale", "0.05",
                     "--point-lookups", "2", "--analytical", "0",
                     "--budget", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "served 0 of 2 requests" in output
        assert "2 rejected" in output
        assert "admission budget" in output

    def test_serve_with_faults_reports_recovery(self, capsys):
        code = main(["serve", "--dataset", "SK", "--scale", "0.05", "--devices", "2",
                     "--point-lookups", "2", "--analytical", "1",
                     "--faults", "device-loss@2:device=0;transfer-flaky:p=0.05",
                     "--chaos-seed", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "faults:" in output
        assert "recovery:" in output
        assert "devices: 1 of 2 alive" in output
        assert "lost: [0]" in output

    def test_serve_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scale", "0.05", "--faults", "meltdown:p=1"])
        assert "unknown fault kind" in str(excinfo.value)

    def test_serve_deadline_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--deadline", "0.25", "--enforce-deadlines"])
        assert args.deadline == 0.25
        assert args.enforce_deadlines

    def test_serve_bad_trace_rejected(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text("[]")
        with pytest.raises(SystemExit, match="non-empty JSON list"):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])
        trace.write_text('[{"source": 3}]')
        with pytest.raises(SystemExit, match="entry #0.*algorithm"):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])

    def test_serve_trace_unknown_algorithm_names_entry(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text('[{"algorithm": "bfs", "source": 0}, {"algorithm": "triangles"}]')
        with pytest.raises(SystemExit, match="entry #1.*unknown algorithm 'triangles'"):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])

    def test_serve_trace_bad_priority_named(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text('[{"algorithm": "bfs", "source": 0, "priority": "urgent"}]')
        with pytest.raises(SystemExit, match="entry #0.*unknown priority 'urgent'"):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])

    def test_serve_trace_negative_arrival_rejected(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text('[{"algorithm": "bfs", "source": 0, "arrival_s": -1.0}]')
        with pytest.raises(SystemExit, match="entry #0.*arrival_s"):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])

    @pytest.mark.parametrize(
        "entry, cause",
        [
            ('{"algorithm": "sssp", "label": 7}', "'label' must be a string or null, got 7"),
            ('{"algorithm": "bfs", "source": 0, "deadline_s": NaN}', "'deadline_s' must be a non-negative"),
        ],
    )
    def test_serve_trace_bad_field_named(self, tmp_path, entry, cause):
        trace = tmp_path / "trace.json"
        trace.write_text('[{"algorithm": "bfs", "source": 0}, %s]' % entry)
        with pytest.raises(SystemExit, match="entry #1: %s" % re.escape(cause)):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])

    def test_serve_trace_partial_arrival_stamping_rejected(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(
            '[{"algorithm": "bfs", "source": 0, "arrival_s": 0.1},'
            ' {"algorithm": "pagerank"}]'
        )
        with pytest.raises(SystemExit, match="entry #1.*missing 'arrival_s'"):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])

    def test_serve_jsonl_trace_errors_carry_line_numbers(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"algorithm": "bfs", "source": 0}\n'
            "\n"
            '{"algorithm": "bfs", "soruce": 3}\n'
        )
        with pytest.raises(SystemExit, match="line 3.*unknown key"):
            main(["serve", "--scale", "0.05", "--trace", str(trace)])

    def test_serve_jsonl_arrival_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"algorithm": "bfs", "source": 0, "arrival_s": 0.0}\n'
            '{"algorithm": "pagerank", "priority": "bulk", "arrival_s": 0.001}\n'
        )
        code = main(["serve", "--dataset", "SK", "--scale", "0.05",
                     "--trace", str(trace)])
        assert code == 0
        assert "served 2 of 2 requests" in capsys.readouterr().out

    def test_serve_generated_arrivals_with_preemption(self, capsys):
        code = main(["serve", "--dataset", "SK", "--scale", "0.05",
                     "--arrivals", "poisson", "--rate", "5000",
                     "--requests", "30", "--seed", "3", "--preempt"])
        assert code == 0
        assert "served 30 of 30 requests" in capsys.readouterr().out

    def test_serve_arrivals_require_rate(self):
        with pytest.raises(SystemExit, match="positive --rate"):
            main(["serve", "--scale", "0.05", "--arrivals", "poisson",
                  "--requests", "10"])

    def test_serve_empty_synthetic_trace_rejected(self):
        with pytest.raises(SystemExit, match="synthetic trace"):
            main(["serve", "--scale", "0.05", "--point-lookups", "0",
                  "--analytical", "0"])

    def test_serve_refuses_multi_device_incapable_system(self):
        with pytest.raises(SystemExit, match="no multi-device execution path"):
            main(["serve", "--system", "grus", "--devices", "2", "--scale", "0.05"])


class TestCacheOptions:
    def test_cache_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.cache_policy == "static-prefix"
        assert args.cache_budget is None

    def test_invalid_cache_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--cache-policy", "clock"])

    def test_parse_byte_size_suffixes(self):
        from repro.cli import parse_byte_size

        assert parse_byte_size("1024") == 1024
        assert parse_byte_size("64K") == 64 * 1024
        assert parse_byte_size("2m") == 2 * 1024 * 1024
        assert parse_byte_size("1G") == 1024**3
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_byte_size("lots")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_byte_size("-1")

    def test_parse_byte_size_error_names_accepted_forms(self):
        import argparse

        from repro.cli import parse_byte_size

        assert parse_byte_size("512k") == 512 * 1024
        assert parse_byte_size("2g") == 2 * 1024**3
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            parse_byte_size("3q")
        message = str(excinfo.value)
        assert "3q" in message
        assert "K/M/G" in message
        assert "either case" in message

    def test_run_with_adaptive_cache_reports_stats(self, capsys):
        code = main(["run", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05",
                     "--system", "exptm-f", "--cache-policy", "frontier-aware"])
        assert code == 0
        assert "device cache (frontier-aware)" in capsys.readouterr().out

    def test_batch_seed_is_reproducible(self, capsys):
        argv = ["batch", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05",
                "--num-queries", "3", "--seed", "9", "--no-baseline"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_batch_with_cache_policy_and_budget(self, capsys):
        code = main(["batch", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05",
                     "--num-queries", "2", "--cache-policy", "lru", "--cache-budget", "64K",
                     "--no-baseline"])
        assert code == 0
        assert "device cache (lru)" in capsys.readouterr().out

    def test_ineffective_cache_budget_rejected(self):
        with pytest.raises(SystemExit, match="cache-budget has no effect"):
            main(["run", "--dataset", "SK", "--scale", "0.05", "--cache-budget", "64K"])

    def test_cache_budget_allowed_with_adaptive_policy_or_devices(self, capsys):
        code = main(["run", "--dataset", "SK", "--algorithm", "bfs", "--scale", "0.05",
                     "--system", "exptm-f", "--cache-policy", "lru", "--cache-budget", "64K"])
        assert code == 0
        assert "device cache (lru)" in capsys.readouterr().out
        code = main(["run", "--dataset", "SK", "--algorithm", "bfs", "--scale", "0.05",
                     "--devices", "2", "--cache-budget", "64K"])
        assert code == 0


# Byte-for-byte stdout (the --stats-json path normalised to STATS.json) and
# the sha256 of the --stats-json payload of the batch/serve cases, recorded
# at the commit before cli.py was rebuilt around one ServiceConfig.  The
# serve digests were re-derived once, when the payload lost its duplicate
# "metrics" block: the sha256 of the earlier payload with that one key
# popped, dumped as the CLI dumps it (indent=2, sorted keys, newline).
GOLDEN = {
    "run-iterations": (
        ["run", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05", "--iterations"],
        "HyTGraph / SSSP on SK (600 vertices, 15942 edges)\n"
        "simulated time: 0.000205 s over 7 iterations (converged=True)\n"
        "transfer volume: 0.219 MB (1.72x the edge data)\n"
        "busy time: compaction 0.000000 s, PCIe 0.000197 s, GPU 0.000043 s\n"
        "Per-iteration detail\n"
        "iter  active_vertices  active_edges  time       transfer_KB  engines         \n"
        "-----------------------------------------------------------------------------\n"
        "0     1                350           3.301e-06  2.73         ExpTM-F         \n"
        "1     350              14658         0.0001123  114.5        ExpTM-F,ImpTM-ZC\n"
        "2     103              6562          6.299e-05  51.27        ExpTM-F,ImpTM-ZC\n"
        "3     104              3107          1.405e-05  24.27        ExpTM-F,ImpTM-ZC\n"
        "4     53               1894          1.051e-05  14.8         ExpTM-F,ImpTM-ZC\n"
        "5     47               674           1.129e-06  5.27         ImpTM-ZC        \n"
        "6     7                165           3.165e-07  1.29         ImpTM-ZC        \n",
        None,
    ),
    "compare": (
        ["compare", "--dataset", "SK", "--algorithm", "bfs", "--scale", "0.05"],
        "BFS on SK (scale=0.05, GTX-2080Ti)\n"
        "system    time (s)   iterations  transfer (xE)  slowdown\n"
        "--------------------------------------------------------\n"
        "EMOGI     8.98e-06   4           1              1       \n"
        "ImpTM-UM  1.662e-05  4           1.03           1.85    \n"
        "Grus      2.284e-05  4           1              2.54    \n"
        "Subway    6.621e-05  4           1.06           7.37    \n"
        "HyTGraph  0.000115   3           0.94           12.8    \n"
        "ExpTM-F   0.000299   4           1.53           33.3    \n",
        None,
    ),
    "batch": (
        ["batch", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05", "--num-queries", "3", "--seed", "3"],
        "SSSP batch of 3 queries on SK (HyTGraph, scale=0.05)\n"
        "query  source  iterations  time (s)  transfer_KB  converged\n"
        "-----------------------------------------------------------\n"
        "0      46      9           0.000175  182.4        True     \n"
        "1      97      8           7.5e-05   114          True     \n"
        "2      465     10          6e-05     112.5        True     \n"
        "batch makespan: 0.000308 s over 10 super-iterations (9754.9 queries/s)\n"
        "batch transfer volume: 0.419 MB (0.122 MB amortized across queries)\n"
        "device cache (static-prefix): 0.000 MB hits, 0.000 MB misses, 0.000 MB evicted\n"
        "vs sequential serving: 1.58x speedup (0.000486 s -> 0.000308 s), 0.122 MB transfer saved\n"
        "stats: wrote STATS.json\n",
        "1c754fb5cb9eaface82ac972ec66a679bc1992c5dd843a6a449c175dbb9a1328",
    ),
    "batch-lru": (
        ["batch", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05", "--num-queries", "3", "--seed", "3", "--cache-policy", "lru"],
        "SSSP batch of 3 queries on SK (HyTGraph, scale=0.05)\n"
        "query  source  iterations  time (s)  transfer_KB  converged\n"
        "-----------------------------------------------------------\n"
        "0      46      9           0.000159  149.7        True     \n"
        "1      97      8           8.6e-05   90.42        True     \n"
        "2      465     8           9.6e-05   85.61        True     \n"
        "batch makespan: 0.000329 s over 9 super-iterations (9109.8 queries/s)\n"
        "batch transfer volume: 0.334 MB (0.084 MB amortized across queries)\n"
        "device cache (lru): 0.306 MB hits, 0.187 MB misses, 0.204 MB evicted\n"
        "vs sequential serving: 1.15x speedup (0.000380 s -> 0.000329 s), 0.052 MB transfer saved\n"
        "stats: wrote STATS.json\n",
        "06ffa0f930a97ec453b65a1168fc275bbc992513d7574e2e68ef359b1e7ab3b9",
    ),
    "batch-2gpu": (
        ["batch", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05", "--num-queries", "3", "--seed", "3", "--devices", "2"],
        "SSSP batch of 3 queries on SK (HyTGraph, scale=0.05) x2 GPUs over nvlink\n"
        "query  source  iterations  time (s)  transfer_KB  converged\n"
        "-----------------------------------------------------------\n"
        "0      46      7           0.000109  63.11        True     \n"
        "1      97      7           0.000113  59.84        True     \n"
        "2      465     8           3.2e-05   1.6          True     \n"
        "batch makespan: 0.000242 s over 8 super-iterations (12419.1 queries/s)\n"
        "batch transfer volume: 0.128 MB (0.000 MB amortized across queries)\n"
        "device cache (static-prefix): 0.942 MB hits, 0.128 MB misses, 0.000 MB evicted\n"
        "vs sequential serving: 2.53x speedup (0.000610 s -> 0.000242 s), 0.255 MB transfer saved\n"
        "stats: wrote STATS.json\n",
        "c6fc679b54a451826302b5770156a5fe27ae189610bb3f4d4dc4a2473787c3ac",
    ),
    "batch-2gpu-lru": (
        ["batch", "--dataset", "SK", "--algorithm", "sssp", "--scale", "0.05", "--num-queries", "3", "--seed", "3", "--devices", "2", "--cache-policy", "lru"],
        "SSSP batch of 3 queries on SK (HyTGraph, scale=0.05) x2 GPUs over nvlink\n"
        "query  source  iterations  time (s)  transfer_KB  converged\n"
        "-----------------------------------------------------------\n"
        "0      46      8           0.000114  112.1        True     \n"
        "1      97      10          6.9e-05   79.26        True     \n"
        "2      465     10          3e-05     36.62        True     \n"
        "batch makespan: 0.000209 s over 10 super-iterations (14372.9 queries/s)\n"
        "batch transfer volume: 0.233 MB (0.000 MB amortized across queries)\n"
        "device cache (lru): 0.588 MB hits, 0.097 MB misses, 0.000 MB evicted\n"
        "vs sequential serving: 1.82x speedup (0.000380 s -> 0.000209 s), 0.207 MB transfer saved\n"
        "stats: wrote STATS.json\n",
        "f0b9684f110cdedc55ada70664dd3de33014cbf0c6ec8a2a04b1344194899a22",
    ),
    "serve": (
        ["serve", "--dataset", "SK", "--scale", "0.05", "--point-lookups", "4", "--analytical", "2"],
        "served 6 of 6 requests on HyTGraph / SK (priority scheduling, 1 wave(s))\n"
        "makespan 0.002907 s (2064.0 queries/s), transfer 2.978 MB\n"
        "compute backend: numpy\n"
        "stats: wrote STATS.json\n"
        "Per-class service latency\n"
        "class        queries  p50 (s)   p95 (s)   p99 (s)   max (s) \n"
        "------------------------------------------------------------\n"
        "interactive  4        0.000177  0.0002    0.000201  0.000201\n"
        "bulk         2        0.002851  0.002901  0.002906  0.002907\n",
        "ee84f92625d8a45a7f6190b5ef0650ca5b1f225be7635ad2f78a4809ac32ca9f",
    ),
    "serve-budget-reject": (
        ["serve", "--dataset", "SK", "--scale", "0.05", "--point-lookups", "4", "--analytical", "2", "--budget", "4M", "--admission", "reject"],
        "served 6 of 6 requests on HyTGraph / SK (priority scheduling, 1 wave(s))\n"
        "makespan 0.002907 s (2064.0 queries/s), transfer 2.978 MB\n"
        "compute backend: numpy\n"
        "admission: budget 4194304 bytes (reject policy), 6 admitted, 0 rejected\n"
        "stats: wrote STATS.json\n"
        "Per-class service latency\n"
        "class        queries  p50 (s)   p95 (s)   p99 (s)   max (s) \n"
        "------------------------------------------------------------\n"
        "interactive  4        0.000177  0.0002    0.000201  0.000201\n"
        "bulk         2        0.002851  0.002901  0.002906  0.002907\n",
        "ee84f92625d8a45a7f6190b5ef0650ca5b1f225be7635ad2f78a4809ac32ca9f",
    ),
    "serve-cluster-host-loss": (
        ["serve", "--dataset", "SK", "--scale", "0.05", "--point-lookups", "4", "--analytical", "2", "--hosts", "2", "--devices", "2", "--faults", "host-loss@1:host=1"],
        "served 6 of 6 requests on HyTGraph / SK (priority scheduling, 2 wave(s))\n"
        "cluster: 2 host(s) x 2 GPU(s) over tcp (2.50 GB/s, 50 us); router: 6 affinity, 0 spill(s), 0 rejection(s)\n"
        "makespan 0.001206 s (4973.2 queries/s), transfer 0.255 MB\n"
        "compute backend: numpy\n"
        "faults: 0 injected, 0 transfer retries (0.000000 s retry time); 0 failed, 0 cancelled\n"
        "recovery: 0.000000 s checkpointing, 0.000000 s restoring; circuit breaker closed (0 trip(s))\n"
        "hosts: 1 of 2 alive, lost: [1]; 3 failover(s), 0.000 MB checkpoint shipping (0.000150 s on the network)\n"
        "stats: wrote STATS.json\n"
        "Per-class service latency\n"
        "class        queries  p50 (s)   p95 (s)   p99 (s)   max (s) \n"
        "------------------------------------------------------------\n"
        "interactive  4        0.000332  0.000635  0.000636  0.000636\n"
        "bulk         2        0.000876  0.001148  0.001173  0.001179\n",
        "8c3b71570db211822ab7cd4c51605e41eb67afd2878aa15ed3f4a0262f53330d",
    ),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_and_stats_payload_are_byte_identical(self, name, tmp_path, capsys):
        argv, expected, digest = GOLDEN[name]
        stats = tmp_path / "stats.json"
        if digest is not None:
            argv = argv + ["--stats-json", str(stats)]
        assert main(argv) == 0
        assert capsys.readouterr().out.replace(str(stats), "STATS.json") == expected
        if digest is not None:
            assert hashlib.sha256(stats.read_bytes()).hexdigest() == digest


class TestConfigFidelity:
    """The service a sub-command builds carries the flags in its config."""

    FLAGS = ["--dataset", "SK", "--scale", "0.05", "--devices", "2",
             "--cache-policy", "lru", "--cache-budget", "1M", "--backend", "numpy"]

    @pytest.mark.parametrize("argv", [
        ["run", "--algorithm", "bfs"],
        ["compare", "--algorithm", "bfs", "--systems", "emogi", "hytgraph"],
        ["batch", "--algorithm", "bfs", "--num-queries", "2", "--no-baseline"],
        ["serve", "--point-lookups", "2", "--analytical", "1"],
        ["serve", "--point-lookups", "2", "--analytical", "1", "--hosts", "2"],
    ], ids=["run", "compare", "batch", "serve", "serve-cluster"])
    def test_built_service_config_equals_the_flags(self, argv, monkeypatch, capsys):
        built, backends = [], []

        def recording(cls):
            class Recording(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    built.append(self)
                    backends.append(active_backend().name)

            return Recording

        monkeypatch.setattr(repro.cli, "GraphService", recording(repro.cli.GraphService))
        monkeypatch.setattr(repro.cli, "ClusterService", recording(repro.cli.ClusterService))
        # --backend wins over the ambient backend for the whole command.
        with use_backend(CountingBackend()):
            assert main(argv + self.FLAGS) == 0
        assert backends and set(backends) == {"numpy"}
        served = []
        for service in built:
            if isinstance(service, repro.cli.ClusterService):
                served.append((service.config.service, service.system))
                served.extend((replica.config, replica.system) for replica in service.replicas)
            else:
                served.append((service.config, service.system))
        assert served
        for config, system in served:
            # The device count's one home is the hardware the service runs on.
            assert (
                config.cache_policy, config.cache_budget, system.config.num_devices
            ) == ("lru", 1 << 20, 2)


class TestBadInput:
    """Bad flag values exit with one named line, never a traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["run", "--gpu", "NOPE"], "--gpu: invalid choice: 'NOPE'"),
        (["run", "--dataset", "NOPE"], "--dataset: invalid choice: 'NOPE'"),
        (["run", "--devices", "0"], "--devices: 0 is not a positive integer"),
        (["batch", "--sources", "99999999"], "source 99999999 outside [0, 600)"),
        (["batch", "--num-queries", "100000"], "cannot pick 100000 distinct sources in a 600-vertex graph"),
    ], ids=["gpu", "dataset", "devices", "sources", "num-queries"])
    def test_exits_with_a_named_line(self, argv, named, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--scale", "0.05"])
        # argparse reports on stderr (exit status 2); the commands raise
        # SystemExit(message) themselves.
        assert named in "%s\n%s" % (excinfo.value, capsys.readouterr().err)

    def test_host_loss_needs_the_cluster_tier(self):
        with pytest.raises(SystemExit, match="host-loss.*--hosts"):
            main(["serve", "--scale", "0.05", "--faults", "host-loss@1:host=0"])


def _documented_invocations():
    """Every ``repro-graph ...`` example in the CLI docstring and the README."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    for origin, text in (("cli", repro.cli.__doc__), ("README", readme.read_text())):
        for line in text.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("repro-graph "):
                yield pytest.param(shlex.split(line, comments=True)[1:], id="%s: %s" % (origin, line[:60]))


@pytest.mark.parametrize("argv", _documented_invocations())
def test_documented_invocations_parse(argv):
    build_parser().parse_args(argv)
