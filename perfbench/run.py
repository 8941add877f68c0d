#!/usr/bin/env python3
"""Served-query benchmark for `bpq serve`.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds `bpq` and the
benchmark's helpers with dune, generates the workload's inputs from the
seed, times the program's own set-up (`bpq freeze`, `bpq shard`,
`bpq serve`) as child processes, drives the server over a unix socket
from one load-generator process with two connections, checks every
answer, and prints one JSON object as the last line of standard output.
With --trace 1 it also replays the request stream through an in-process
server with every store-seam call timed, and prints per-layer metrics
instead.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    # backend flags for `bpq serve`, and whether the store is sharded or
    # under a WAL
    "hot-repeat": {"serve": ["--backend", "mem"]},
    "cold-distinct": {"serve": ["--backend", "paged", "--page-cache", "1"]},
    "write-mix": {"serve": ["--backend", "mem"], "wal": True},
    "sharded-pushdown": {"serve": ["--backend", "sharded"], "shards": 2},
}

SETUP_REPS = 3  # set-ups timed from scratch; setup_s is their median
SHARDS = 2
BUILD_TIMEOUT = 850
STEP_TIMEOUT = 120


def placement():
    """(generator CPUs, server CPUs); None: no binding.

    The load generator runs alone on the first CPU and the server, with
    its pool domains and shard workers, on the others.  Sharing, the two
    would preempt each other, and every hand-off inside the server (pool
    domains, shard worker rounds) could wait for an idle CPU to wake."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        return {cpus[0]}, set(cpus[1:])
    return None, None


def on_cpus(cpus):
    """A preexec_fn binding the child to [cpus] (None: no binding)."""
    return None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def run(cmd, timeout=STEP_TIMEOUT, env=None, out=None, cpus=None):
    """Run a child to completion; raise BenchError on failure."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=timeout, env=env, text=True, preexec_fn=on_cpus(cpus))
    if out is not None:
        with open(out, "a") as f:
            f.write(p.stdout + p.stderr)
    if p.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" % (
            " ".join(cmd[:3]), p.returncode, (p.stderr or p.stdout).strip()[-2000:]))
    return p.stdout


def build(trace, work):
    for f in ("dune-project", "bin/bpq.ml", "lib", "perfbench/pbtool.ml"):
        if not os.path.exists(f):
            raise BenchError("not a bpq source checkout: %s is missing" % f)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(work, "cache"))
    targets = ["bin/bpq.exe", "perfbench/pbtool.exe"]
    if trace:
        targets.append("perfbench/pbtrace.exe")
    run(["dune", "build", "--root", ".", "--display", "quiet"] + targets,
        timeout=BUILD_TIMEOUT, env=env, out=os.path.join(work, "build.log"))
    return {t.split("/")[-1]: os.path.join("_build", "default", t) for t in targets}


def rpc(sock_path, req, timeout=60.0):
    """One request on a fresh connection; returns the parsed reply."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock_path)
        s.sendall((json.dumps(req) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
        return json.loads(buf)
    finally:
        s.close()


class Server:
    """A `bpq serve` child, started and waited for until it answers."""

    def __init__(self, exe, graph, flags, sock_path, logf, cpus=None):
        self.sock = sock_path
        if os.path.exists(sock_path):
            os.remove(sock_path)
        self.logf = open(logf, "a")
        self.proc = subprocess.Popen(
            [exe, "serve", "-g", graph, "--listen", "unix:" + sock_path] + flags,
            stdout=self.logf, stderr=self.logf, preexec_fn=on_cpus(cpus))

    def wait_ready(self, limit=60.0):
        stop = time.monotonic() + limit
        while time.monotonic() < stop:
            if self.proc.poll() is not None:
                raise BenchError("bpq serve exited with %d during start-up" % self.proc.returncode)
            try:
                if rpc(self.sock, {"op": "stats"}, timeout=5.0).get("ok"):
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise BenchError("bpq serve did not answer within %.0fs" % limit)

    def pids(self):
        """The server and the workers it spawned."""
        pids = [self.proc.pid]
        for d in os.listdir("/proc"):
            if d.isdigit():
                try:
                    with open("/proc/%s/stat" % d) as f:
                        fields = f.read().rsplit(")", 1)[1].split()
                    if int(fields[1]) == self.proc.pid:
                        pids.append(int(d))
                except (OSError, IndexError, ValueError):
                    pass
        return pids

    def peak_rss_mb(self):
        total = 0
        for pid in self.pids():
            try:
                with open("/proc/%d/status" % pid) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                rpc(self.sock, {"op": "shutdown"}, timeout=5.0)
            except (OSError, ValueError, BenchError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.logf.close()


def set_up(exes, spec, work, cpus):
    """`bpq freeze` (+ `bpq shard`), then `bpq serve` until its first
    reply.  Returns the server, the store files it serves and the times;
    the pristine snapshot is copied to ref.bin outside the timing."""
    snap = os.path.join(work, "snap.bin")
    t0 = time.monotonic()
    run([exes["bpq.exe"], "freeze", "-g", os.path.join(work, "graph.txt"),
         "-a", os.path.join(work, "constraints.txt"), "-o", snap])
    times = {"freeze": time.monotonic() - t0, "shard": 0.0}
    shutil.copyfile(snap, os.path.join(work, "ref.bin"))
    graph = snap
    if spec.get("shards"):
        graph = os.path.join(work, "shards")
        t0 = time.monotonic()
        run([exes["bpq.exe"], "shard", "--shards", str(SHARDS), snap, graph])
        times["shard"] = time.monotonic() - t0
        os.remove(snap)
    flags = list(spec["serve"])
    files = [graph]
    if spec.get("wal"):
        files.append(os.path.join(work, "wal.log"))
        flags += ["--wal", files[-1]]
    t0 = time.monotonic()
    srv = Server(exes["bpq.exe"], graph, flags, os.path.join(work, "s.sock"),
                 os.path.join(work, "serve.log"), cpus=cpus)
    try:
        srv.wait_ready()
    except BaseException:
        srv.stop()
        raise
    times["open"] = time.monotonic() - t0
    times["total"] = times["freeze"] + times["shard"] + times["open"]
    return srv, files, times


def remove(files):
    for f in files:
        if os.path.isdir(f):
            shutil.rmtree(f)
        elif os.path.exists(f):
            os.remove(f)


def disk_mb(paths):
    total = 0
    for p in paths:
        if os.path.isdir(p):
            for f in os.listdir(p):
                total += os.path.getsize(os.path.join(p, f))
        elif os.path.exists(p):
            total += os.path.getsize(p)
    return total / (1024.0 * 1024.0)


def read_results(work):
    rows = []
    with open(os.path.join(work, "results.tsv")) as f:
        for line in f:
            x = line.rstrip("\n").split("\t")
            rows.append({"idx": int(x[0]), "phase": x[1], "kind": x[2],
                         "at": float(x[4]), "sent": float(x[5]), "recv": float(x[6]),
                         "status": x[9], "elapsed_ms": float(x[10])})
    return rows


def quantile(values, q):
    """Interpolated quantile; infinite values (failed requests) sort last."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    if v[hi] == float("inf"):
        return v[hi] if pos > lo else v[lo]
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def latency_ms(r, from_schedule):
    if r["status"] != "ok":
        return float("inf")
    start = r["at"] if from_schedule else r["sent"]
    return (r["recv"] - start) * 1000.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = WORKLOADS[args.workload]
    work = os.path.join(".perfbench", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        exes = build(args.trace == 1, work)
        gen = json.loads(run([exes["pbtool.exe"], "gen", "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--dir", work]))
        # Set up SETUP_REPS times from scratch; the last server serves
        # the measured run.
        gen_cpus, serve_cpus = placement()
        setups = []
        for k in range(SETUP_REPS):
            srv, files, times = set_up(exes, spec, work, serve_cpus)
            setups.append(times)
            if k < SETUP_REPS - 1:
                srv.stop()
                remove(files)
        try:
            run([exes["pbtool.exe"], "load", "--socket", srv.sock, "--dir", work,
                 "--closed-seconds", str(gen["closed_s"])],
                timeout=STEP_TIMEOUT, cpus=gen_cpus)
            served = {"rss": srv.peak_rss_mb(), "disk": disk_mb(files),
                      "stats": rpc(srv.sock, {"op": "stats"})}
        finally:
            srv.stop()
        rows = read_results(work)
        oracle = json.loads(run([exes["pbtool.exe"], "oracle", "--dir", work,
                                 "--snapshot", os.path.join(work, "ref.bin")]
                                + (["--no-costs"] if spec.get("shards") else [])))
        report = summarise(args, gen, setups, served, rows, oracle)
        if args.trace == 1:
            metrics = traced(exes, spec, work, gen, setups, served, rows, oracle)
        else:
            metrics = report["e2e"]
        for line in report["notes"]:
            log(line)
        if oracle["mismatches"]:
            log("WRONG ANSWERS: %d of %d reads; e.g. %s" % (
                oracle["mismatches"], oracle["checked"], "; ".join(oracle["examples"])))
        if not report["valid"]:
            raise BenchError("run invalid: " + report["invalid_reason"])
        print(json.dumps({
            "correct": oracle["mismatches"] == 0,
            "attempted": oracle["attempted"],
            "failed": oracle["failed"] + oracle["mismatches"],
            "metrics": metrics,
        }))
        return 0 if oracle["mismatches"] == 0 else 1
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2
    finally:
        if not os.environ.get("PERFBENCH_KEEP"):
            shutil.rmtree(work, ignore_errors=True)


def open_reads(rows):
    return [latency_ms(r, True) for r in rows if r["phase"] == "open" and r["kind"] == "read"]


def lateness_ms(rows):
    return [(r["sent"] - r["at"]) * 1000.0 for r in rows if r["phase"] == "open"]


def summarise(args, gen, setups, served, rows, oracle):
    """End-to-end metrics, notes and validity."""
    late = lateness_ms(rows)
    # The generator itself fell behind its schedule: the typical send is
    # late, or the schedule overran.  Host jitter shows only in the
    # tail, and lands in the latency it delays.
    valid = not late or (quantile(late, 0.5) <= 1.0 and late[-1] <= 100.0)
    why = "" if valid else "generator lateness p50 %.3f ms, last send %.1f ms late" % (
        quantile(late, 0.5), late[-1])
    lat = open_reads(rows)
    closed = [r for r in rows if r["phase"] == "closed"]
    closed_ok = sum(1 for r in closed if r["status"] == "ok")
    closed_span = max((r["recv"] for r in closed), default=float("nan"))
    e2e = {
        "setup_s": (statistics.median(t["total"] for t in setups), "s"),
        "capacity_ops_s": (closed_ok / closed_span, "ops/s"),
        "server_rss_mb": (served["rss"], "MB"),
        "store_disk_mb": (served["disk"], "MB"),
    }
    notes = [
        "%s seed %d: %d nodes, %d edges; %d ops attempted, %d failed, %d wrong" % (
            args.workload, args.seed, gen["nodes"], gen["edges"], oracle["attempted"],
            oracle["failed"], oracle["mismatches"]),
        "set-ups %s s; open loop %d reads p50 %.3f ms p90 %.3f ms p99 %.3f ms, "
        "lateness p50 %.3f ms p99 %.3f ms; closed loop %.1f ops/s; rss %.1f MB" % (
            " ".join("%.3f" % t["total"] for t in setups), len(lat), quantile(lat, 0.5),
            quantile(lat, 0.9), quantile(lat, 0.99), quantile(late, 0.5), quantile(late, 0.99),
            closed_ok / closed_span, served["rss"]),
    ]
    return {
        "e2e": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "valid": valid,
        "invalid_reason": why,
        "notes": notes,
    }


# Per-layer metrics, with their units (--trace 1).  The first group is
# computed by pbtrace from the in-process traced replay; the second from
# the served run itself.
TRACED_UNITS = {
    "jsonx.decode_us": "us", "jsonx.encode_us": "us", "jsonx.response_bytes": "bytes",
    "pattern.parse_us": "us", "server.handle_us": "us", "server.self_us": "us",
    "qcache.result_hit_rate": "ratio", "qcache.plan_hit_rate": "ratio",
    "qcache.fetch_hit_rate": "ratio", "qcache.fetch_evictions": "count",
    "qcache.result_stale": "count", "qplan.plan_us": "us", "qplan.shapes": "count",
    "exec.run_us": "us", "exec.accessed": "count", "exec.gq_size": "count",
    "exec.realized_over_estimate": "ratio", "exec.bound_violations": "count",
    "matcher.us": "us", "matcher.matches": "count", "store.lookups": "count",
    "store.items_per_lookup": "count", "store.lookup_us": "us", "store.probes": "count",
    "paged.faults": "count", "paged.hit_rate": "ratio", "paged.bytes_read": "bytes",
    "remote.rounds": "count", "remote.messages": "count", "remote.bytes": "bytes",
    "remote.server_us": "us", "remote.wait_us": "us", "overlay.merged_frac": "ratio",
    "overlay.masked": "count", "overlay.ops": "count", "wal.append_us": "us",
    "wal.bytes_per_op": "bytes", "compact.fold_s": "s", "compact.bytes_written": "bytes",
    "trace.overhead_frac": "ratio", "trace.reads": "count",
}
SERVED_UNITS = {
    "setup.freeze_s": "s", "setup.shard_s": "s", "setup.open_s": "s",
    "server.transport_us": "us", "server.followers_frac": "ratio", "server.refused": "count",
    "write.p50_ms": "ms", "write.p99_ms": "ms", "compact.op_s": "s", "error_frac": "ratio",
    "gen.lateness_p99_ms": "ms", "stream.repeat_frac": "ratio", "stream.shapes": "count",
    "read.p50_ms": "ms", "read.p90_ms": "ms", "read.p99_ms": "ms",
}


def traced(exes, spec, work, gen, setups, served, rows, oracle):
    """Per-layer metrics: the traced in-process replay plus the layer
    figures the served run already measured."""
    backend = spec["serve"][spec["serve"].index("--backend") + 1]
    cmd = [exes["pbtrace.exe"], "--dir", work, "--snapshot", os.path.join(work, "ref.bin"),
           "--backend", backend, "--bpq", exes["bpq.exe"], "--reads", str(gen["trace_reads"])]
    if "--page-cache" in spec["serve"]:
        cmd += ["--page-cache", spec["serve"][spec["serve"].index("--page-cache") + 1]]
    if spec.get("wal"):
        cmd += ["--wal"]
    layers = json.loads(run(cmd, timeout=STEP_TIMEOUT))
    med = statistics.median
    transport = [(r["recv"] - r["sent"]) * 1e6 - r["elapsed_ms"] * 1e3
                 for r in rows if r["phase"] == "open" and r["kind"] == "read"
                 and r["status"] == "ok"]
    reads = open_reads(rows)
    writes = [latency_ms(r, True) for r in rows if r["phase"] == "open" and r["kind"] == "write"]
    compacts = [latency_ms(r, False) / 1000.0 for r in rows if r["kind"] == "compact"]
    stats = served["stats"]
    n_served = stats.get("served", 0)
    layers.update({
        "setup.freeze_s": med(t["freeze"] for t in setups),
        "setup.shard_s": med(t["shard"] for t in setups),
        "setup.open_s": med(t["open"] for t in setups),
        "server.transport_us": med(transport) if transport else 0.0,
        "server.followers_frac": (stats.get("coalescing", {}).get("followers", 0) / n_served
                                  if n_served else 0.0),
        "server.refused": sum(1 for r in rows if r["status"] == "overloaded"),
        "write.p50_ms": quantile(writes, 0.50) if writes else 0.0,
        "write.p99_ms": quantile(writes, 0.99) if writes else 0.0,
        "compact.op_s": med(compacts) if compacts else 0.0,
        "error_frac": (oracle["failed"] + oracle["mismatches"]) / oracle["attempted"],
        "gen.lateness_p99_ms": quantile(lateness_ms(rows), 0.99),
        "read.p50_ms": quantile(reads, 0.50),
        "read.p90_ms": quantile(reads, 0.90),
        "read.p99_ms": quantile(reads, 0.99),
        "stream.repeat_frac": gen["repeat_frac"],
        "stream.shapes": gen["shapes"],
    })
    units = dict(TRACED_UNITS, **SERVED_UNITS)
    return {k: {"value": layers[k], "unit": units[k]} for k in units}


if __name__ == "__main__":
    sys.exit(main())
