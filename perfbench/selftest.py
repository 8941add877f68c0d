#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout (after `dune build`, or let the
first check build).  Checks that:

  1. the same seed gives a byte-identical request stream and a different
     seed a different one, on every workload;
  2. the cold-distinct and sharded-pushdown streams never repeat an exact
     query within a run;
  3. the oracle accepts a served run and rejects a deliberately mutated
     answer;
  4. the metric names and units a run prints equal those in
     BENCHMARK.json, with --trace 0 and --trace 1;
  5. outside a source checkout the benchmark exits non-zero without
     printing a result.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

PBTOOL = os.path.join("_build", "default", "perfbench", "pbtool.exe")
BPQ = os.path.join("_build", "default", "bin", "bpq.exe")
WORK = os.path.join(".perfbench", "selftest-%d" % os.getpid())
failures = []


def check(name, ok, detail=""):
    print("%s %s%s" % ("ok  " if ok else "FAIL", name, (": " + detail) if detail and not ok else ""))
    if not ok:
        failures.append(name)


def gen(workload, seed, d, seconds=6):
    os.makedirs(d)
    return json.loads(bench.run([PBTOOL, "gen", "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--dir", d]))


def stream(d):
    return os.path.join(d, "stream.jsonl")


def test_determinism():
    for w in sorted(bench.WORKLOADS):
        a, b, c = (os.path.join(WORK, "%s-%s" % (w, x)) for x in "abc")
        gen(w, 7, a)
        gen(w, 7, b)
        gen(w, 8, c)
        same = filecmp.cmp(stream(a), stream(b), shallow=False)
        same = same and filecmp.cmp(os.path.join(a, "graph.txt"), os.path.join(b, "graph.txt"),
                                    shallow=False)
        differ = not filecmp.cmp(stream(a), stream(c), shallow=False)
        check("%s: same seed, byte-identical stream" % w, same)
        check("%s: other seed, different stream" % w, differ)


def test_no_repeats():
    for w in ("cold-distinct", "sharded-pushdown"):
        d = os.path.join(WORK, "%s-a" % w)
        seen, dups, reads = set(), 0, 0
        with open(stream(d)) as f:
            for line in f:
                op = json.loads(line)
                if op["kind"] == "read":
                    reads += 1
                    key = json.dumps(op["req"], sort_keys=True)
                    dups += key in seen
                    seen.add(key)
        check("%s: no exact query repeats in %d reads" % (w, reads), dups == 0 and reads > 0,
              "%d repeats" % dups)


def test_oracle():
    d = os.path.join(WORK, "served")
    gen("write-mix", 3, d, seconds=4.5)
    snap = os.path.join(d, "ref.bin")
    bench.run([BPQ, "freeze", "-g", os.path.join(d, "graph.txt"),
               "-a", os.path.join(d, "constraints.txt"), "-o", snap])
    live = os.path.join(d, "live.bin")
    shutil.copyfile(snap, live)
    srv = bench.Server(BPQ, live, ["--wal", os.path.join(d, "live.wal")],
                       os.path.join(d, "s.sock"), os.path.join(d, "serve.log"))
    try:
        srv.wait_ready()
        bench.run([PBTOOL, "load", "--socket", srv.sock, "--dir", d, "--closed-seconds", "0.5"])
    finally:
        srv.stop()
    good = json.loads(bench.run([PBTOOL, "oracle", "--dir", d, "--snapshot", snap]))
    bad = json.loads(bench.run([PBTOOL, "oracle", "--dir", d, "--snapshot", snap, "--mutate"]))
    check("oracle accepts a served write-mix run (%d reads)" % good["checked"],
          good["mismatches"] == 0 and good["checked"] > 0, json.dumps(good))
    check("oracle rejects a mutated answer", bad["mismatches"] == 1, json.dumps(bad))


def test_metric_names():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "write-mix",
                            "--seed", "5", "--seconds", "4.5", "--trace", str(trace)],
                           capture_output=True, text=True, timeout=600)
        lines = p.stdout.strip().splitlines()
        ok = p.returncode == 0 and lines
        printed = json.loads(lines[-1])["metrics"] if ok else {}
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in printed.items()}
        check("--trace %d prints exactly the %s metrics of BENCHMARK.json" % (trace, key),
              ok and got == want,
              "exit %d; missing %s; extra %s; %s" % (
                  p.returncode, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                  p.stderr[-500:]))


def test_outside_checkout():
    tmp = tempfile.mkdtemp(dir=".perfbench")
    try:
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hot-repeat",
                            "--seed", "1", "--seconds", "3", "--trace", "0"],
                           cwd=tmp, capture_output=True, text=True, timeout=180)
        check("outside a checkout: non-zero exit, no result", p.returncode != 0 and not p.stdout,
              "exit %d, stdout %r" % (p.returncode, p.stdout[:200]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    os.makedirs(WORK)
    try:
        bench.build(True, WORK)
        test_determinism()
        test_no_repeats()
        test_oracle()
        test_metric_names()
        test_outside_checkout()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
