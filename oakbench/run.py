#!/usr/bin/env python3
"""oakbench: out-of-process end-to-end benchmark of Oak's serving plane.

    python3 oakbench/run.py --workload ingest|serve|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds oakbench/ (and the src/
libraries it links) into .bench_build/oakbench, then for one run:

  1. starts oakbench_server on a fresh journal several times, timing exec
     to a 200 from /admin/health (setup_s), and keeps the last server;
  2. runs oakbench_load against it (warm-up, fixed-rate phase, closed-loop
     phase, tail, correctness checks);
  3. reads the server's peak RSS and the journal's size, SIGKILLs it,
     restarts it on the same journal several times (recovery_s) and checks
     that each restart restored every report;
  4. times admin rule swaps on the restarted server;
  5. starts fresh servers again, for the rest of the setup_s samples;
  6. prints the hardware/build stamp, a summary, and as its last line one
     JSON object: end-to-end metrics with --trace 0, per-layer metrics
     with --trace 1.

The server runs on the first half of the CPUs this process may use and the
generator on the second half. Any correctness mismatch, a generator that
fell behind its schedule, or a failed step exits non-zero without a result.
Scratch files live under .bench_out/ in the checkout; traced runs leave
their spans there.
"""
import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "oakbench")
OUT = os.path.join(ROOT, ".bench_out")

# Offered rates are absolute and frozen here (BENCHMARK.json admits no
# extra keys); changing one is a change of the benchmark.
WORKLOADS = {
    # 9 of 10 requests are report POSTs from 2000 returning users (500 per
    # shard, inside the 2000-per-shard hot tier); the rule set never changes
    # and the journal is not compacted while measuring.
    "ingest": dict(rate=1500, users=2000, report_share=0.9,
                   closed_requests=36000, hot_capacity=2000),
    # 9 of 10 requests are page GETs; six untimed reports per user first,
    # so most users have active rules and pages are rewritten.
    "serve": dict(rate=1500, users=2000, report_share=0.1, warm_reports=6,
                  closed_requests=120000, hot_capacity=2000),
    # Half first visits (no cookie: the server mints a user), half a
    # returning population of 6000, three times the 2000 hot slots. The
    # rule set is swapped once between warm-up and the fixed phase.
    "churn": dict(rate=500, users=6000, report_share=0.5,
                  first_visit_share=0.5, swap_rules=True,
                  closed_requests=60000, hot_capacity=500, rule_swaps=9),
}
SETUP_REPS = 11
RECOVERY_REPS = 5
RECOVERY_MIN_S = 8.0
RULE_SWAPS = 31
READY_TIMEOUT_S = 30.0

E2E = [("setup_s", "s"), ("page_p50_ms", "ms"), ("page_p90_ms", "ms"),
       ("report_p50_ms", "ms"), ("report_p90_ms", "ms"), ("max_rps", "1/s"),
       ("cpu_us_per_req", "us"), ("ok_frac", "ratio"),
       ("rss_peak_mb", "MB"), ("state_mb", "MB"), ("recovery_s", "s"),
       ("rule_put_ms", "ms")]
LAYER_UNITS = {
    "wire.parse_us": "us", "wire.outside_us": "us",
    "wire.writev_per_resp": "count", "wire.shed_frac": "ratio",
    "sharded.handle_us": "us", "sharded.contention_frac": "ratio",
    "sharded.batch_mean": "count", "sharded.unaccounted_share": "ratio",
    "browser.decode_us": "us", "grouping.group_us": "us",
    "violator.detect_us": "us", "violator.violators_per_report": "count",
    "matcher.match_us": "us", "matcher.probes_per_report": "count",
    "matcher.memo_hit_ratio": "ratio", "matcher.invalidations": "count",
    "policy.activations_per_kreport": "count",
    "modifier.apply_us": "us", "modifier.modified_ratio": "ratio",
    "durability.append_us": "us", "durability.bytes_per_req": "bytes",
    "durability.compact_ms": "ms", "durability.compactions": "count",
    "durability.replay_s": "s",
    "user_store.lookup_us": "us", "user_store.faultin_frac": "ratio",
    "user_store.demotions_per_kreq": "count",
    "decision_log.records_per_req": "count",
    "decision_log.snapshot_mb": "MB",
    "rules.swap_ms": "ms",
    "loadgen.lag_p99_us": "us",
    "trace.replay_rps_untraced": "1/s", "trace.replay_rps_traced": "1/s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def calm_low(values):
    """Median of the smaller half: the least interference from the host's
    other tenants, which only ever add time."""
    v = sorted(values)
    return statistics.median(v[:(len(v) + 1) // 2])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("Oak sources (src/) not found next to oakbench/")
    os.makedirs(BUILD, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def cpu_sets():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


def stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            rev = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if rev == "unknown":
        # Not a git checkout: identify the sources by content.
        h = hashlib.sha1()
        for top in ("src", "oakbench"):
            for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
                dirs.sort()
                for name in sorted(files):
                    with open(os.path.join(d, name), "rb") as f:
                        h.update(name.encode())
                        h.update(f.read())
        rev = "src-sha1:" + h.hexdigest()[:12]
    return {"cores": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "kernel": platform.release(),
            "build_type": "Release", "revision": rev}


class ServerProc:
    """One oakbench_server process; stop() always reaps it."""

    def __init__(self, journal, rules, ready, cpus, wl):
        self.journal = journal
        self.ready_path = ready
        if os.path.exists(ready):
            os.unlink(ready)
        args = [os.path.join(BUILD, "oakbench_server"), "--journal", journal,
                "--rules", rules, "--ready", ready,
                "--hot-capacity", str(wl["hot_capacity"])]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            args, stdout=subprocess.DEVNULL,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.info = None

    def wait_ready(self):
        """Seconds from exec to a 200 from /admin/health."""
        deadline = self.t0 + READY_TIMEOUT_S
        while self.info is None:
            if self.proc.poll() is not None:
                raise BenchError("server exited with %d before ready"
                                 % self.proc.returncode)
            if time.perf_counter() > deadline:
                raise BenchError("server not ready in %.0f s" % READY_TIMEOUT_S)
            try:
                with open(self.ready_path) as f:
                    self.info = json.load(f)
            except (OSError, ValueError):
                time.sleep(0.0005)
        while True:
            try:
                c = http.client.HTTPConnection("127.0.0.1", self.info["port"],
                                               timeout=5)
                c.request("GET", "/admin/health")
                status = c.getresponse().status
                c.close()
                if status == 200:
                    return time.perf_counter() - self.t0
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BenchError("health check never answered 200")
            time.sleep(0.0005)

    @property
    def pid(self):
        return self.proc.pid

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


def run_tool(args, cpus, timeout):
    r = subprocess.run([os.path.join(BUILD, "oakbench_load")] + args,
                       capture_output=True, text=True, timeout=timeout,
                       preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    if r.stderr:
        log(r.stderr.rstrip())
    if r.returncode != 0:
        raise BenchError("oakbench_load exited with %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError("oakbench_load printed nothing")
    return json.loads(lines[-1])


def journal_files(journal):
    """(snapshot + WAL bytes, path of the newest snapshot)."""
    total, snap = 0, None
    for name in sorted(os.listdir(journal)):
        path = os.path.join(journal, name)
        if name.startswith("snapshot-") or name.endswith(".log"):
            total += os.path.getsize(path)
            if name.startswith("snapshot-"):
                if snap is None or os.path.getmtime(path) >= os.path.getmtime(snap):
                    snap = path
    return total, snap


def decision_log_mb(snapshot_path):
    """Size of the decision-log part of a snapshot, in MB."""
    if snapshot_path is None:
        return 0.0
    with open(snapshot_path) as f:
        doc = json.load(f)
    state = doc.get("state", doc)
    parts = [state.get(k) for k in ("log", "contexts") if k in state]
    return sum(len(json.dumps(p, separators=(",", ":"))) for p in parts) / 1e6


def one_run(workload, seed, seconds, trace, work):
    wl = WORKLOADS[workload]
    server_cpus, gen_cpus = cpu_sets()
    rules_dir = os.path.join(work, "rules")
    run_tool(["--write-rules", rules_dir], gen_cpus, 60)
    rules0 = os.path.join(rules_dir, "rules-0.txt")
    ready = os.path.join(work, "ready.json")
    servers = []
    setup = []

    def start_fresh(i):
        """A server on a new, empty journal; records its set-up time."""
        s = ServerProc(os.path.join(work, "journal-%d" % i), rules0, ready,
                       server_cpus, wl)
        servers.append(s)
        setup.append(s.wait_ready())
        return s

    t = time.perf_counter()

    def step(name):
        nonlocal t
        now = time.perf_counter()
        log("oakbench: %s %.2f s" % (name, now - t))
        t = now

    try:
        # 1. Set-up: exec → ready on an empty journal. Half of the starts
        # happen here, the rest at the end of the run, so the median spans
        # the run rather than one moment of it.
        for i in range(SETUP_REPS // 2 + 1):
            if servers:
                servers.pop().stop()
            srv = start_fresh(i)
        journal = srv.journal
        step("set-up")

        # 2. Load.
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--port", str(srv.info["port"]), "--server-pid", str(srv.pid),
                "--out", work, "--rules-dir", rules_dir,
                "--conns", str(len(gen_cpus)),
                "--rate", str(wl["rate"]), "--users", str(wl["users"]),
                "--report-share", str(wl["report_share"]),
                "--first-visit-share", str(wl.get("first_visit_share", 0)),
                "--warm-reports", str(wl.get("warm_reports", 0)),
                "--closed-requests", str(wl["closed_requests"]),
                "--swap-rules", "1" if wl.get("swap_rules") else "0",
                "--hot-capacity", str(wl["hot_capacity"])]
        res = run_tool(args, gen_cpus, 150)
        if res["invalid"]:
            raise BenchError("run invalid: " + res["invalid"])
        if not res["correct"]:
            raise BenchError("correctness mismatch: %s (attempted %d, failed %d)"
                             % (res["why"], res["attempted"], res["failed"]))
        step("load")

        # 3. Memory, state on disk, crash recovery.
        rss = srv.vm_hwm_mb()
        state_bytes, snap = journal_files(journal)
        servers.pop().kill()
        recovery, replay = [], []
        t_rec = time.perf_counter()
        # At least RECOVERY_REPS restarts spread over RECOVERY_MIN_S.
        while len(recovery) < RECOVERY_REPS or (
                time.perf_counter() - t_rec < RECOVERY_MIN_S
                and len(recovery) < 3 * RECOVERY_REPS):
            if servers:
                servers.pop().kill()
            s = ServerProc(journal, rules0, ready, server_cpus, wl)
            servers.append(s)
            recovery.append(s.wait_ready())
            replay.append(s.info["replay_s"])
            want = res["info"]["reports_ingested"]
            if s.info["bootstrapped"] or s.info["reports"] != want:
                raise BenchError("restart restored %d reports, expected %d"
                                 % (s.info["reports"], want))
        log("oakbench: restarts (s): " + " ".join("%.3f" % r for r in recovery))
        step("recovery")

        # 4. Admin rule swaps.
        e2e = dict(res["e2e"])
        sw = run_tool(["--port", str(servers[-1].info["port"]),
                       "--time-swaps", str(wl.get("rule_swaps", RULE_SWAPS)),
                       "--rules-dir", rules_dir],
                      gen_cpus, 60)
        if not sw["ok"]:
            raise BenchError("admin rule swap failed")
        e2e["rule_put_ms"] = sw["rule_put_ms"]
        step("rule swaps")
        servers.pop().stop()

        # 5. The rest of the set-up starts.
        for i in range(SETUP_REPS // 2 + 1, SETUP_REPS):
            if servers:
                servers.pop().stop()
            start_fresh(i)
        step("set-up")
    finally:
        for s in servers:
            s.stop()

    e2e["setup_s"] = calm_low(setup)
    e2e["rss_peak_mb"] = rss
    e2e["state_mb"] = state_bytes / 1e6
    e2e["recovery_s"] = calm_low(recovery)
    layers = dict(res["layers"])
    if trace:
        layers["durability.replay_s"] = statistics.median(replay)
        layers["decision_log.snapshot_mb"] = decision_log_mb(snap)
    return res, e2e, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # SIGTERM unwinds through the finally blocks, which reap the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        os.makedirs(OUT, exist_ok=True)
        work = tempfile.mkdtemp(prefix="run-", dir=OUT)
        try:
            res, e2e, layers = one_run(a.workload, a.seed, a.seconds, a.trace,
                                       work)
            for f in os.listdir(work):
                if f.startswith("spans-"):
                    # The hardware and build stamp heads every output.
                    with open(os.path.join(work, f)) as spans, \
                            open(os.path.join(OUT, f), "w") as out:
                        out.write(json.dumps({"stamp": stamp()}) + "\n")
                        shutil.copyfileobj(spans, out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log("oakbench: FAILED: %s" % e)
        return 1

    st = stamp()
    info = res["info"]
    if a.trace:
        metrics = {k: {"value": layers[k], "unit": LAYER_UNITS[k]}
                   for k in sorted(LAYER_UNITS)}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E}
    print("oakbench stamp: cores=%s usable=%s cpu=%r kernel=%s build=%s rev=%s"
          % (st["cores"], st["cpus_usable"], st["cpu_model"], st["kernel"],
             st["build_type"], st["revision"]))
    print("oakbench %s seed=%d seconds=%g trace=%d: attempted=%d failed=%d "
          "fail_frac=%.6f gen_lag_p99_us=%.1f warm_rounds=%d fixed_requests=%d"
          % (a.workload, a.seed, a.seconds, a.trace, res["attempted"],
             res["failed"], res["failed"] / max(1, res["attempted"]),
             info["lag_p99_us"], info["warm_rounds"], info["fixed_requests"]))
    for k, m in metrics.items():
        print("  %-34s %14.6f %s" % (k, m["value"], m["unit"]))
    result = {"correct": True, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(OUT, "result-%s-%d-trace%d.json"
                           % (a.workload, a.seed, a.trace)), "w") as f:
        json.dump(dict(result, stamp=st, info=info), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
