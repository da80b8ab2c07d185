#!/usr/bin/env python3
"""The repo benchmark: three seeded, closed-loop workloads over extscc.

    python3 perfbench/run.py --workload solve_contract --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It builds the library, the
`extscc_tool` CLI and `perfbench_driver` into .bench_build, makes its
inputs from --seed, measures for about --seconds, checks every output,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured from outside the
`extscc_tool solve` process (solve workloads) or the serving process
(serve_mixed). --trace 1 makes the separate traced run and reports the
per-layer metrics; its spans are written as Chrome trace-event JSON to
.bench_out/. --smoke shrinks every size for the benchmark's own test.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLOCK_SIZE = 64 * 1024
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have passed (at most SETUP_MAX times), and its median reported.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 3, 2.0, 10
MIN_SOLVES = 3

# Sizes per workload: (full, smoke). A solve workload runs a set of
# `graphs` web graphs generated from the seed. solve_fit uses eight: the
# semi-external base case's pass count jumps by up to a quarter between
# seeds, and a set of eight averages it out of the run-to-run spread.
SIZES = {
    "solve_contract": (
        {"nodes": 100_000, "memory": 512 * 1024, "graphs": 1},
        {"nodes": 20_000, "memory": 128 * 1024, "graphs": 1},
    ),
    "solve_fit": (
        {"nodes": 100_000, "memory": 2 << 20, "graphs": 8},
        {"nodes": 5_000, "memory": 1 << 20, "graphs": 2},
    ),
    "serve_mixed": (
        {"nodes": 250_000, "memory": 64 << 20, "batches": 200,
         "batch_size": 4096, "update_every": 10, "update_edges": 2000},
        {"nodes": 5_000, "memory": 64 << 20, "batches": 30,
         "batch_size": 256, "update_every": 5, "update_edges": 100},
    ),
}

UNITS = {"solve_s": "s", "cpu_s": "s", "block_ios": "count",
         "peak_rss_mb": "MiB", "setup_s": "s", "request_p50_ms": "ms",
         "request_p95_ms": "ms", "items_per_s": "1/s"}

MAX_LEVELS = 8
PER_LAYER_UNITS = {
    "graph.ingest.s": "s", "graph.ingest.mb_per_s": "MiB/s",
    "tool.outside_core.s": "s",
    "graph.sort_edges.s": "s", "graph.sort_edges.cpu_s": "s",
    "graph.sort_edges.ios": "count",
    "core.get_v.s": "s", "core.get_v.cpu_s": "s", "core.get_v.ios": "count",
    "core.get_v.cover_ratio": "ratio", "core.get_v.type2_skips": "count",
    "core.get_e.s": "s", "core.get_e.cpu_s": "s", "core.get_e.ios": "count",
    "core.get_e.edge_growth": "ratio", "core.get_e.new_edges": "count",
    "graph.node_diff.s": "s", "graph.node_diff.ios": "count",
    "core.levels": "count",
    **{f"core.level.L{i}.{k}": u for i in range(1, MAX_LEVELS + 1)
       for k, u in (("s", "s"), ("ios", "count"))},
    "scc.semi.s": "s", "scc.semi.cpu_s": "s", "scc.semi.nodes": "count",
    "scc.semi.rounds": "count", "scc.semi.edge_scans": "count",
    "scc.semi.trim_ratio": "ratio",
    "core.expand.s": "s", "core.expand.cpu_s": "s", "core.expand.ios": "count",
    "io.read_blocks": "count", "io.write_blocks": "count",
    "io.random_ios": "count", "io.mb_moved": "MiB",
    "io.files_created": "count", "io.retries": "count",
    "io.span_ios_residual": "count",
    "serve.open.s": "s", "serve.batch.swept_blocks": "count",
    "serve.batch.ios": "count", "serve.probes_per_query": "ratio",
    "serve.dfs_fallback_ratio": "ratio", "serve.probe_spill_runs": "count",
    "serve.query_batch_p50_ms": "ms", "serve.query_batch_p95_ms": "ms",
    "serve.queries_per_s": "1/s",
    "dyn.apply.s": "s", "dyn.batch_ios": "count", "dyn.rewrite_ratio": "ratio",
    "dyn.intra_ratio": "ratio", "dyn.merge_groups": "count",
    "dyn.update_batch_p50_ms": "ms", "dyn.append_batch_p50_ms": "ms",
    "dyn.rewrite_batch_p50_ms": "ms",
    "trace.overhead_s": "s", "trace.uncovered_s": "s",
}

SOLVE_LINE = re.compile(
    r": (\d+) SCCs, (\d+) contraction levels, (\d+) I/Os, ([0-9.]+)s")


class BenchFailure(Exception):
    """An operation failed or produced a wrong answer."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Bench:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.build_dir = root / ".bench_build"
        self.out_dir = root / ".bench_out"
        self.tmp = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
        self.scratch = self.tmp / "scratch"
        self.child = None
        self.attempted = 0
        self.failed = 0
        self.notes = {}

    # ---- processes ---------------------------------------------------

    def run(self, cmd, what):
        """Runs cmd to completion; returns (stdout, wall_s, cpu_s, rss_mib)."""
        env = dict(os.environ, TMPDIR=str(self.scratch))
        out_path = self.tmp / "child.out"
        err_path = self.tmp / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            self.child = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                          stderr=err, env=env, cwd=self.tmp)
            _, status, usage = os.wait4(self.child.pid, 0)
            wall = time.perf_counter() - start
            self.child.returncode = os.waitstatus_to_exitcode(status)
        code, self.child = self.child.returncode, None
        stdout = out_path.read_text()
        if code != 0:
            log(err_path.read_text()[-2000:])
            raise BenchFailure(f"{what} exited with {code}")
        return stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def stop_child(self):
        child, self.child = self.child, None
        if child is not None and child.returncode is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()

    def tool(self):
        return self.build_dir / "extscc" / "extscc_tool"

    def driver(self):
        return self.build_dir / "perfbench_driver"

    # ---- build and stamp ---------------------------------------------

    def build(self):
        # Compiler temporaries stay inside the checkout too.
        env = dict(os.environ, TMPDIR=str(self.build_dir / "tmp"))
        (self.build_dir / "tmp").mkdir(parents=True, exist_ok=True)
        if not (self.build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(self.root / "perfbench"), "-B",
                            str(self.build_dir), "-DCMAKE_BUILD_TYPE=Release",
                            *generator], check=True, stdout=sys.stderr, env=env)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(self.build_dir), "-j", jobs,
                        "--target", "extscc_tool", "perfbench_driver"],
                       check=True, stdout=sys.stderr, env=env)

    def stamp(self, size):
        git_sha = "none"
        if (self.root / ".git").exists():
            got = subprocess.run(["git", "-C", str(self.root), "rev-parse",
                                  "HEAD"], capture_output=True, text=True)
            git_sha = got.stdout.strip() or "none"
        digest = hashlib.sha256()
        for top in ("src", "examples", "perfbench"):
            for path in sorted((self.root / top).rglob("*")):
                if path.is_file():
                    digest.update(str(path.relative_to(self.root)).encode())
                    digest.update(path.read_bytes())
        build_type = "unknown"
        cache = self.build_dir / "CMakeCache.txt"
        if cache.exists():
            match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(),
                              re.M)
            build_type = match.group(1) if match else build_type
        return {"workload": self.args.workload, "seed": self.args.seed,
                "trace": self.args.trace, "smoke": self.args.smoke,
                "git_sha": git_sha, "source_sha256": digest.hexdigest(),
                "block_size": BLOCK_SIZE, "memory_bytes": size["memory"],
                "nodes": size["nodes"], "graphs": size.get("graphs", 1),
                "nproc": os.cpu_count(),
                "machine": platform.machine(), "build_type": build_type,
                "engine": "serial (sort_threads=0, io_threads=0, posix, rr)",
                "scratch": str(self.scratch.relative_to(self.root))}

    # ---- inputs and correctness --------------------------------------

    def timed_setup(self, set_up):
        """Runs set_up() once when tracing, else as SETUP_* say; returns the
        seconds of each repeat."""
        times = []
        while not times or (not self.args.trace and len(times) < SETUP_MAX and
                            (len(times) < SETUP_REPEATS or
                             sum(times) < SETUP_SECONDS)):
            start = time.perf_counter()
            set_up()
            times.append(time.perf_counter() - start)
        return times

    def generate_set(self, size):
        """Generates the run's graphs from the seed; returns (paths, set-up
        seconds per repeat)."""
        paths = [self.tmp / f"edges{j}.txt" for j in range(size["graphs"])]

        def set_up():
            for j, path in enumerate(paths):
                self.run([self.tool(), "generate", "web", size["nodes"], path,
                          self.args.seed * 1000 + j], "generate")

        return paths, self.timed_setup(set_up)

    def verify_labels(self, edges, labels):
        """Oracle-checks a label file once per (input, labels) pair; later
        runs with the same seed match it by hash."""
        cache = self.out_dir / "verified" / sha256_file(edges)
        label_sha = sha256_file(labels)
        if cache.exists() and label_sha in cache.read_text().split():
            self.notes["verify"] = "hash"
            return
        out, _, _, _ = self.run([self.tool(), "verify", edges, labels], "verify")
        if "OK" not in out:
            raise BenchFailure(f"{edges.name}: labels do not match the oracle")
        cache.parent.mkdir(parents=True, exist_ok=True)
        with open(cache, "a") as f:
            f.write(label_sha + "\n")
        self.notes["verify"] = "oracle"

    def tool_solve(self, edges, labels, size):
        self.attempted += 1
        out, wall, cpu, rss = self.run(
            [self.tool(), "solve", edges, labels, size["memory"]], "solve")
        match = SOLVE_LINE.search(out)
        if match is None:
            raise BenchFailure("solve printed no summary line")
        return {"wall": wall, "cpu": cpu, "rss": rss,
                "levels": int(match.group(2)), "ios": int(match.group(3)),
                "core_s": float(match.group(4))}

    # ---- solve workloads ---------------------------------------------

    def solve_workload(self, size):
        graphs, setup = self.generate_set(size)
        labels = [self.tmp / f"labels{j}.txt" for j in range(len(graphs))]
        if self.args.trace:
            return self.solve_traced(size, graphs, labels)

        # A round solves every graph of the set once. Every round must
        # repeat the first round's labels and I/O counts exactly; the
        # first round's labels are oracle-checked after the timed loop.
        expected, rounds = None, []
        start = time.perf_counter()
        while (len(rounds) * len(graphs) < MIN_SOLVES
               or time.perf_counter() - start < self.args.seconds):
            solves = [self.tool_solve(g, l, size)
                      for g, l in zip(graphs, labels)]
            got = [(s["ios"], sha256_file(l)) for s, l in zip(solves, labels)]
            if expected is not None and got != expected:
                raise BenchFailure("a repeated solve changed its labels or "
                                   "its I/O count")
            expected = got
            rounds.append(solves)
        for g, l in zip(graphs, labels):
            self.verify_labels(g, l)

        # Per graph a statistic over its rounds (machine noise), then the
        # mean over the set (structure varies between graphs).
        def per_solve(key, stat=statistics.median):
            return statistics.mean(stat([r[j][key] for r in rounds])
                                   for j in range(len(graphs)))

        num_edges = sum(sum(1 for _ in open(g)) for g in graphs)
        self.notes.update(levels=[s["levels"] for s in rounds[0]],
                          edges=num_edges, solves=len(rounds) * len(graphs))
        return {
            "solve_s": per_solve("wall"),
            "cpu_s": per_solve("cpu"),
            "block_ios": sum(ios for ios, _ in expected),
            "peak_rss_mb": statistics.median(s["rss"] for r in rounds
                                             for s in r),
            "setup_s": statistics.median(setup),
            "request_p50_ms": 1000 * per_solve("wall"),
            "request_p95_ms": 1000 * per_solve(
                "wall", lambda v: percentile(v, 95)),
            "items_per_s": num_edges / len(graphs) / per_solve("wall"),
        }

    def trace_one(self, size, edges, labels, index):
        """Untraced tool solve, then the traced driver solve of one graph,
        behind the fidelity guard. Returns (tool solve, driver summary)."""
        solve = self.tool_solve(edges, labels, size)
        self.verify_labels(edges, labels)
        traced_labels = self.tmp / "traced_labels.txt"
        trace_part = self.tmp / f"trace{index}.json"
        self.attempted += 1
        out, _, _, _ = self.run(
            [self.driver(), "trace-solve", edges, traced_labels, size["memory"],
             trace_part, self.scratch], "trace-solve")
        summary = json.loads(out.strip().splitlines()[-1])
        spans = summary["spans"]
        leaf_ios = sum(s["ios"] for s in spans if s["leaf"])
        summary["residual"] = spans[0]["ios"] - leaf_ios
        summary["trace_part"] = trace_part

        # Fidelity guard: the trace must describe the solve the tool runs.
        if sha256_file(traced_labels) != sha256_file(labels):
            raise BenchFailure("traced labels differ from the tool's labels")
        if summary["traced_level_ios"] != summary["plain_level_ios"]:
            raise BenchFailure("traced per-level I/Os differ from RunExtScc: "
                               f"{summary['traced_level_ios']} vs "
                               f"{summary['plain_level_ios']}")
        if not summary["core_ios"] == summary["plain_total_ios"] == solve["ios"]:
            raise BenchFailure("traced core I/Os differ from the tool's solve")
        if summary["residual"] != 0:
            raise BenchFailure(f"leaf spans miss {summary['residual']} I/Os")
        return solve, summary

    def solve_traced(self, size, graphs, labels):
        runs = [self.trace_one(size, g, l, j)
                for j, (g, l) in enumerate(zip(graphs, labels))]
        spans = [s for _, summary in runs for s in summary["spans"]]
        leaves = [s for s in spans if s["leaf"]]
        trace_path = self.trace_path()
        self.merge_traces([summary["trace_part"] for _, summary in runs],
                          trace_path)

        def total(name, key):
            return sum(s[key] for s in spans if s["name"] == name)

        m = {k: 0.0 for k in PER_LAYER_UNITS}
        m["graph.ingest.s"] = total("graph.ingest", "s")
        m["graph.ingest.mb_per_s"] = (sum(g.stat().st_size for g in graphs) /
                                      2**20 / m["graph.ingest.s"])
        m["tool.outside_core.s"] = sum(s["wall"] - s["core_s"] for s, _ in runs)
        for name in ("graph.sort_edges", "core.get_v", "core.get_e",
                     "core.expand", "scc.semi"):
            m[f"{name}.s"] = total(name, "s")
            m[f"{name}.cpu_s"] = total(name, "cpu_s")
            if f"{name}.ios" in m:
                m[f"{name}.ios"] = total(name, "ios")
        m["graph.node_diff.s"] = total("graph.node_diff", "s")
        m["graph.node_diff.ios"] = total("graph.node_diff", "ios")
        nodes = total("core.get_v", "nodes")
        level_edges = total("core.get_e", "edges")
        m["core.get_v.cover_ratio"] = (
            total("core.get_v", "cover_nodes") / nodes if nodes else 0.0)
        m["core.get_v.type2_skips"] = total("core.get_v", "type2_skips")
        m["core.get_e.edge_growth"] = (
            total("core.get_e", "next_edges") / level_edges
            if level_edges else 0.0)
        m["core.get_e.new_edges"] = total("core.get_e", "new_edges")
        m["core.levels"] = sum(summary["levels"] for _, summary in runs)
        for i in range(1, MAX_LEVELS + 1):
            m[f"core.level.L{i}.s"] = total(f"core.level.L{i}", "s")
            m[f"core.level.L{i}.ios"] = total(f"core.level.L{i}", "ios")
        semi_nodes = total("scc.semi", "nodes")
        m["scc.semi.nodes"] = semi_nodes
        m["scc.semi.rounds"] = total("scc.semi", "rounds")
        m["scc.semi.edge_scans"] = total("scc.semi", "edge_scans")
        m["scc.semi.trim_ratio"] = total("scc.semi", "trimmed") / semi_nodes
        self.io_metrics(m, leaves, sum(summary["residual"] for _, summary in runs))
        m["trace.overhead_s"] = sum(summary["core_s"] - s["core_s"]
                                    for s, summary in runs)
        m["trace.uncovered_s"] = (sum(summary["spans"][0]["s"]
                                      for _, summary in runs) -
                                  sum(s["s"] for s in leaves))
        self.notes.update(levels=[summary["levels"] for _, summary in runs],
                          trace=str(trace_path.relative_to(self.root)))
        return m

    @staticmethod
    def merge_traces(parts, path):
        """One Chrome trace for the set: graph j's spans under pid j + 1."""
        events = []
        for j, part in enumerate(parts):
            for event in json.loads(Path(part).read_text())["traceEvents"]:
                event["pid"] = j + 1
                events.append(event)
        path.write_text(json.dumps({"displayTimeUnit": "ms",
                                    "traceEvents": events}) + "\n")

    # ---- serve_mixed --------------------------------------------------

    def serve_pass(self, size, edges, base, index, trace_path):
        """One closed-loop pass over a fresh copy of the built artifact."""
        live_dir = self.tmp / f"live{index}"
        live_dir.mkdir()
        live = live_dir / "index.art"
        shutil.copyfile(base, live)
        check = self.tmp / f"check{index}.txt"
        self.attempted += size["batches"] + size["batches"] // size["update_every"]
        out, _, _, rss = self.run(
            [self.driver(), "serve-mixed", edges, live, self.args.seed,
             size["batches"], size["batch_size"], size["update_every"],
             size["update_edges"], check, trace_path, self.scratch],
            "serve-mixed")
        shutil.rmtree(live_dir)
        summary = json.loads(out.strip().splitlines()[-1])
        summary["rss"] = rss
        summary["check_sha"] = sha256_file(check)
        return summary, check

    def check_serve(self, edges, check):
        out, _, _, _ = self.run([self.driver(), "check-serve", edges, check],
                                "check-serve")
        self.notes["oracle_checked"] = json.loads(out)["checked"]

    def serve_workload(self, size):
        edges = self.tmp / "edges.txt"
        base = self.tmp / "base.art"
        builds = []

        def set_up():
            self.run([self.tool(), "generate", "web", size["nodes"], edges,
                      self.args.seed], "generate")
            if base.exists():
                base.unlink()
            self.attempted += 1
            _, build_s, _, _ = self.run(
                [self.tool(), "build-index", edges, base, size["memory"]],
                "build-index")
            builds.append(build_s)

        setup = self.timed_setup(set_up)

        if self.args.trace:
            trace_path = self.trace_path()
            summary, check = self.serve_pass(size, edges, base, 0, trace_path)
            self.check_serve(edges, check)
            return self.serve_layers(summary, trace_path)

        # Every pass must answer the sample like the first, whose answers
        # are oracle-checked after the timed loop.
        passes, first_check = [], None
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < self.args.seconds:
            summary, check = self.serve_pass(size, edges, base, len(passes), "-")
            if first_check is None:
                first_check = check
            elif summary["check_sha"] != passes[0]["check_sha"]:
                raise BenchFailure("a repeated pass answered differently")
            passes.append(summary)
        self.check_serve(edges, first_check)

        def pass_ios(p):
            return (sum(b["ios"] for b in p["batches"]) +
                    sum(u["ios"] for u in p["updates"]) +
                    sum(o["ios"] for o in p["opens"][1:]))

        def pass_cpu(p):
            return (sum(b["cpu_s"] for b in p["batches"]) +
                    sum(u["cpu_s"] for u in p["updates"]) +
                    sum(o["cpu_s"] for o in p["opens"][1:]))

        ios = {pass_ios(p) for p in passes}
        if len(ios) != 1:
            raise BenchFailure(f"block I/Os differ between passes: {ios}")
        batch_s = [b["s"] for p in passes for b in p["batches"]]
        rewrites = [u["s"] for p in passes for u in p["updates"] if u["fresh"]]
        qps = statistics.median(
            sum(b["queries"] for b in p["batches"]) /
            sum(b["s"] for b in p["batches"]) for p in passes)
        appends = [u["s"] for p in passes for u in p["updates"]
                   if not u["fresh"]]
        updates = [u["s"] for p in passes for u in p["updates"]]
        self.notes.update(
            passes=len(passes), query_batches=len(batch_s),
            build_index_s=statistics.median(builds),
            update_batch_p50_ms=1000 * statistics.median(updates),
            append_batch_p50_ms=1000 * statistics.median(appends))
        return {
            "solve_s": statistics.median(rewrites),
            "cpu_s": statistics.median(pass_cpu(p) for p in passes),
            "block_ios": ios.pop(),
            "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            "setup_s": statistics.median(setup),
            "request_p50_ms": 1000 * statistics.median(batch_s),
            "request_p95_ms": 1000 * percentile(batch_s, 95),
            "items_per_s": qps,
        }

    def serve_layers(self, summary, trace_path):
        spans = summary["spans"]
        loop_index = next(i for i, s in enumerate(spans)
                          if s["name"] == "serve.loop")
        loop = spans[loop_index]
        inner = [s for s in spans if s["leaf"] and s["parent"] == loop_index]
        residual = loop["ios"] - sum(s["ios"] for s in inner)
        if residual != 0:
            raise BenchFailure(f"leaf spans miss {residual} I/Os")
        batches, updates = summary["batches"], summary["updates"]
        batch_s = [b["s"] for b in batches]
        m = {k: 0.0 for k in PER_LAYER_UNITS}
        m["serve.open.s"] = statistics.median(o["s"] for o in summary["opens"])
        m["serve.batch.swept_blocks"] = statistics.mean(
            b["swept_blocks"] for b in batches)
        m["serve.batch.ios"] = statistics.mean(b["ios"] for b in batches)
        m["serve.probes_per_query"] = (sum(b["probes"] for b in batches) /
                                       sum(b["queries"] for b in batches))
        reach = sum(b["reach"] for b in batches)
        m["serve.dfs_fallback_ratio"] = (
            sum(b["dfs_fallbacks"] for b in batches) / reach if reach else 0.0)
        m["serve.probe_spill_runs"] = sum(b["spill_runs"] for b in batches)
        m["serve.query_batch_p50_ms"] = 1000 * statistics.median(batch_s)
        m["serve.query_batch_p95_ms"] = 1000 * percentile(batch_s, 95)
        m["serve.queries_per_s"] = (sum(b["queries"] for b in batches) /
                                    sum(batch_s))
        m["dyn.apply.s"] = statistics.median(u["s"] for u in updates)
        m["dyn.batch_ios"] = statistics.mean(u["batch_ios"] for u in updates)
        m["dyn.rewrite_ratio"] = (sum(u["rewrote"] for u in updates) /
                                  len(updates))
        m["dyn.intra_ratio"] = (sum(u["intra_scc"] for u in updates) /
                                sum(u["edges_in"] for u in updates))
        m["dyn.merge_groups"] = sum(u["merge_groups"] for u in updates)
        m["dyn.update_batch_p50_ms"] = 1000 * statistics.median(
            u["s"] for u in updates)
        m["dyn.append_batch_p50_ms"] = 1000 * statistics.median(
            u["s"] for u in updates if not u["fresh"])
        m["dyn.rewrite_batch_p50_ms"] = 1000 * statistics.median(
            u["s"] for u in updates if u["fresh"])
        self.io_metrics(m, [s for s in spans if s["leaf"]], residual)
        m["trace.uncovered_s"] = loop["s"] - sum(s["s"] for s in inner)
        self.notes["trace"] = str(trace_path.relative_to(self.root))
        return m

    # ---- shared --------------------------------------------------------

    @staticmethod
    def io_metrics(m, leaves, residual):
        m["io.read_blocks"] = sum(s["read_blocks"] for s in leaves)
        m["io.write_blocks"] = sum(s["write_blocks"] for s in leaves)
        m["io.random_ios"] = sum(s["random_ios"] for s in leaves)
        m["io.mb_moved"] = sum(s["bytes"] for s in leaves) / 2**20
        m["io.files_created"] = sum(s["files_created"] for s in leaves)
        m["io.retries"] = sum(s["retries"] for s in leaves)
        m["io.span_ios_residual"] = residual

    def out_path(self, suffix):
        self.out_dir.mkdir(exist_ok=True)
        smoke = "-smoke" if self.args.smoke else ""
        return (self.out_dir /
                f"{self.args.workload}{smoke}-seed{self.args.seed}{suffix}")

    def trace_path(self):
        return self.out_path(".trace.json")

    def main(self):
        size = SIZES[self.args.workload][1 if self.args.smoke else 0]
        self.build()
        self.scratch.mkdir(parents=True)
        stamp = self.stamp(size)
        correct = True
        try:
            if self.args.workload == "serve_mixed":
                values = self.serve_workload(size)
            else:
                values = self.solve_workload(size)
        except BenchFailure as failure:
            log(f"FAILED: {failure}")
            self.failed += 1
            self.attempted = max(self.attempted, 1)
            correct, values = False, {}
        units = PER_LAYER_UNITS if self.args.trace else UNITS
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units if name in values}
        print("stamp: " + json.dumps(stamp))
        print("notes: " + json.dumps(self.notes))
        print(f"fail_rate: {self.failed / max(self.attempted, 1):.6f} "
              f"({self.failed} of {self.attempted} operations)")
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        result = {"correct": correct, "attempted": self.attempted,
                  "failed": self.failed, "metrics": metrics}
        record = self.out_path(f"-trace{self.args.trace}.json")
        record.write_text(json.dumps({"stamp": stamp, "notes": self.notes,
                                      **result}, indent=1) + "\n")
        print(json.dumps(result), flush=True)
        return 0 if correct else 1


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    return parser.parse_args()


def main():
    args = parse_args()
    root = Path.cwd()
    missing = [p for p in ("CMakeLists.txt", "src", "examples/extscc_tool.cpp")
               if not (root / p).exists()]
    if missing:
        log(f"perfbench: not a source checkout (missing {', '.join(missing)}); "
            "run from the repository root")
        return 2
    bench = Bench(root, args)

    def on_signal(signo, _frame):
        raise SystemExit(128 + signo)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return bench.main()
    finally:
        bench.stop_child()
        shutil.rmtree(bench.tmp, ignore_errors=True)
        try:
            bench.tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
