#!/usr/bin/env python3
"""COPS-HTTP ledger: the unmodified COPS-HTTP server under a closed-loop
client in a separate process, end to end and layer by layer.

    python3 ledger/run.py --workload small_keepalive --seed 1 --seconds 15 --trace 0
    python3 ledger/run.py --workload small_keepalive --server baseline
    python3 ledger/run.py --self-check

Run from the repository root.  The first run builds the server, a traced
copy of it and the client into .bench_build/ (see ledger/CMakeLists.txt).
With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, taken from a run of
ledger_traced_server after an untraced run that gives trace.overhead its
denominator.  Human-readable lines come first; build output goes to stderr.
README.md describes the workloads, metrics and measured spreads.
"""

import argparse
import array
import bisect
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
TARGETS = ["cops_http_server", "ledger_traced_server", "ledger_baseline_server",
           "ledger_client"]

CONNECTIONS = min(4, os.cpu_count() or 4)
INSTANCES = 5      # server instances a run takes its medians over
WARMUP_MS = 500    # per instance, before its share of the window
RUN_BUDGET = 1.6   # times --seconds: the most window time one run spends
SETUP_STARTS = 15
SERVER_LIFETIME_S = 170  # servers stop themselves after this, whatever happens

# The paper's SpecWeb99 set (loadgen/fileset.hpp): 41 directories of 36
# files, 4 size classes of 9 files, Zipf over directories and files.
SPECWEB_DIRS = 41
SPECWEB_CLASS_WEIGHTS = (0.35, 0.50, 0.14, 0.01)
SPECWEB_DIR_SKEW = 1.0
SPECWEB_FILE_SKEW = 1.0
SMALL_FILES = 16
SMALL_BYTES = 2048
PLAN_LENGTH = 1 << 18
CONTENT_SEED = 1999  # file bytes; the run's --seed draws the requests

WORKLOADS = {
    "small_keepalive": {"mode": "keepalive", "fileset": "small"},
    "conn_churn": {"mode": "close", "fileset": "small"},
    "specweb_mix": {"mode": "session", "fileset": "specweb", "per_conn": 5},
}

END_TO_END_UNITS = {"rps": "1/s", "goodput_mbps": "MB/s", "p50_us": "us",
                    "cpu_us_per_req": "us", "rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "nserver.dispatcher_cpu_us_per_req": "us", "net.dispatcher_busy": "ratio",
    "nserver.processor_cpu_us_per_req": "us", "nserver.file_io_cpu_us_per_req": "us",
    "server.user_cpu_us_per_req": "us", "server.sys_cpu_us_per_req": "us",
    "net.rw_syscalls_per_req": "count", "nserver.voluntary_switches_per_req": "count",
    "nserver.involuntary_switches_per_req": "count", "http.decode_ns": "ns",
    "http.decode_calls_per_req": "count", "http.encode_ns": "ns",
    "nserver.queue_wait_us": "us", "nserver.fetch_us": "us",
    "nserver.accept_to_decode_us": "us", "common.allocs_per_req": "count",
    "common.alloc_bytes_per_req": "B", "nserver.cache_hit_ratio": "ratio",
    "nserver.bytes_copied_per_req": "B", "nserver.writev_calls_per_req": "count",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


# ---- inputs -----------------------------------------------------------------

def specweb_size(size_class, index):
    return 100 * 10 ** size_class * (index + 1)


def manifest_for(fileset):
    """[(url, size)] of every file in the set; the first is the setup probe."""
    if fileset == "small":
        return [("/small/f%02d.html" % i, SMALL_BYTES) for i in range(SMALL_FILES)]
    return [("/dir%d/class%d_%d.html" % (d, c, i), specweb_size(c, i))
            for d in range(SPECWEB_DIRS) for c in range(4) for i in range(9)]


def zipf_cdf(n, skew):
    weights = [1.0 / (k + 1) ** skew for k in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def plan_for(fileset, seed, length=PLAN_LENGTH):
    """Manifest indices in request order, drawn from `seed`."""
    rng = random.Random(seed)
    if fileset == "small":
        return [rng.randrange(SMALL_FILES) for _ in range(length)]
    dir_cdf = zipf_cdf(SPECWEB_DIRS, SPECWEB_DIR_SKEW)
    file_cdf = zipf_cdf(9, SPECWEB_FILE_SKEW)
    class_cdf, acc = [], 0.0
    for w in SPECWEB_CLASS_WEIGHTS:
        acc += w
        class_cdf.append(acc)
    pick = lambda cdf, u: min(bisect.bisect_left(cdf, u), len(cdf) - 1)
    plan = []
    for _ in range(length):
        d = pick(dir_cdf, rng.random())
        c = pick(class_cdf, rng.random())
        f = pick(file_cdf, rng.random())
        plan.append(d * 36 + c * 9 + f)
    return plan


# ---- processes ----------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("no COPS source tree at %s" % REPO)
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                    "--target"] + TARGETS, stdout=sys.stderr, check=True)


def binary(name):
    return os.path.join(BUILD, name)


def free_port():
    """A loopback port below the ephemeral range that nothing holds."""
    rng = random.SystemRandom()
    for _ in range(200):
        port = rng.randrange(20000, 32000)
        with socket.socket() as s:
            try:
                s.bind(("127.0.0.1", port))
                return port
            except OSError:
                continue
    raise BenchError("no free port")


def wait_listening(port, proc, timeout=10.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise BenchError("server exited with %s before listening" % proc.returncode)
        with socket.socket() as s:
            if s.connect_ex(("127.0.0.1", port)) == 0:
                return
        time.sleep(0.005)
    raise BenchError("server did not listen on %d" % port)


def run_client(args):
    out = subprocess.run([binary("ledger_client")] + args, stdout=subprocess.PIPE,
                         timeout=150, check=False)
    if out.returncode != 0:
        raise BenchError("ledger_client %s exited with %d" % (args[0], out.returncode))
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def server_command(kind, root, port):
    name = {"cops": "cops_http_server", "traced": "ledger_traced_server",
            "baseline": "ledger_baseline_server"}[kind]
    return [binary(name), "--root", root, "--port", str(port),
            "--run-seconds", str(SERVER_LIFETIME_S)]


def measure_setup(kind, work):
    """Median of SETUP_STARTS cold starts (exec -> first correct reply)
    during which the hypervisor stole no CPU; of every start made when
    fewer than half of them were so."""
    port = free_port()
    res = run_client(["setup", "--root", work["root"], "--manifest", work["manifest"],
                      "--port", str(port), "--reps", str(SETUP_STARTS),
                      "--max-reps", str(3 * SETUP_STARTS), "--"]
                     + server_command(kind, work["root"], port))
    quiet = [t for t, stolen in zip(res["setup_s"], res["steal_ticks"]) if stolen == 0]
    starts = quiet if 2 * len(quiet) >= SETUP_STARTS else res["setup_s"]
    return statistics.median(starts), res["setup_s"]


def load_run(kind, workload, work, seconds, warmup_ms):
    """One server instance under one closed-loop client run.  Returns the
    client's result, with the window's latencies and, for the traced
    server, its snapshots."""
    port = free_port()
    traced = kind == "traced"
    latencies = work["latencies"]
    proc = subprocess.Popen(server_command(kind, work["root"], port),
                            stdout=subprocess.PIPE if traced else subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        wait_listening(port, proc)
        spec = WORKLOADS[workload]
        args = ["load", "--root", work["root"], "--manifest", work["manifest"],
                "--plan", work["plan"], "--port", str(port), "--mode", spec["mode"],
                "--per-conn", str(spec.get("per_conn", 1)),
                "--conns", str(CONNECTIONS), "--warmup-ms", str(warmup_ms),
                "--seconds", str(seconds), "--max-seconds", str(2 * seconds),
                "--server-pid", str(proc.pid),
                "--latencies", latencies]
        if traced:
            args.append("--signal-server")
        res = run_client(args)
        res["server_pid"] = proc.pid
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    res["latencies"] = array.array("q")
    with open(latencies, "rb") as f:
        res["latencies"].frombytes(f.read())
    os.unlink(latencies)
    if traced:
        res["snapshots"] = {}
        for line in out.decode().splitlines():
            obj = json.loads(line)
            if "snapshot" in obj:
                res["snapshots"][obj["snapshot"]] = obj
        if set(res["snapshots"]) != {"0", "1", "final"}:
            raise BenchError("traced server printed snapshots %s"
                             % sorted(res["snapshots"]))
        if res["snapshots"]["final"]["replies_sent"] != res["total_ok"]:
            raise BenchError("traced server sent %d replies, client completed %d"
                             % (res["snapshots"]["final"]["replies_sent"], res["total_ok"]))
    return res


def load_runs(kind, workload, work, seconds, warmup_ms):
    """Server instances one after another, each measuring until it has
    seconds / INSTANCES of quiet time (see quiet_window) or twice that in
    all.  Stops at INSTANCES instances that got their quiet time, or when
    the windows add up to RUN_BUDGET times `seconds`.  Returns the
    instances the metrics come from -- those that got their quiet time, or
    every one when fewer than three did -- and every instance made."""
    share = seconds / INSTANCES
    made, full, spent = [], [], 0.0
    while len(full) < INSTANCES and spent < RUN_BUDGET * seconds:
        res = load_run(kind, workload, work, share, warmup_ms)
        check_client(res, "%s %s" % (workload, kind))
        made.append(res)
        spent += res["window_s"]
        if sum(s[0] for s in res["slices"] if s[4] == 0) >= 0.999e9 * share:
            full.append(res)
    return (full if len(full) >= 3 else made), made


def prepare(workload, seed, work_dir):
    """The workload's file set (written once per build directory, its bytes
    fixed by CONTENT_SEED) and its request plan, drawn from `seed`."""
    fileset = WORKLOADS[workload]["fileset"]
    manifest = "".join("%s %d\n" % entry for entry in manifest_for(fileset))
    root = os.path.join(BUILD, "fileset-" + fileset)
    stamp = root + ".manifest"
    if not os.path.isfile(stamp) or open(stamp).read() != manifest:
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        with open(stamp + ".new", "w") as f:
            f.write(manifest)
        run_client(["gen", "--root", root, "--manifest", stamp + ".new",
                    "--seed", str(CONTENT_SEED)])
        os.replace(stamp + ".new", stamp)
    os.makedirs(work_dir)
    work = {"root": root, "manifest": stamp,
            "plan": os.path.join(work_dir, "plan.txt"),
            "latencies": os.path.join(work_dir, "latencies.bin")}
    with open(work["plan"], "w") as f:
        f.write("\n".join(map(str, plan_for(fileset, seed))) + "\n")
    return work


# ---- metrics -------------------------------------------------------------------

def task_cpu_ns(res, tids=None, comm_prefix=None):
    """Server CPU over the window, summed over the chosen threads."""
    start = {t["tid"]: t for t in res["proc_start"]["tasks"]}
    total = 0
    for t in res["proc_end"]["tasks"]:
        if tids is not None and t["tid"] not in tids:
            continue
        if comm_prefix is not None and not t["comm"].startswith(comm_prefix):
            continue
        total += t["cpu_ns"] - start.get(t["tid"], {"cpu_ns": 0})["cpu_ns"]
    return total


def task_sum(res, key):
    start = {t["tid"]: t for t in res["proc_start"]["tasks"]}
    return sum(t[key] - start.get(t["tid"], {key: 0})[key]
               for t in res["proc_end"]["tasks"])


def check_client(res, label):
    if res["wrong"] or res["failures_total"]:
        raise BenchError("%s: %d failed operations (%d wrong replies)"
                         % (label, res["failures_total"], res["wrong"]))
    if res["ok"] == 0:
        raise BenchError("%s: no reply completed in the window" % label)


def quiet_window(res):
    """rps, goodput, p50 and server CPU per reply over the window's quiet
    slices: those in which the hypervisor stole no CPU from this machine
    (or, in a window with none such, the least).  Each stolen 10 ms tick in
    a 100 ms slice costs about 7% of that slice's replies; that time
    belongs to other tenants of the host, not to the server."""
    slices = res["slices"]  # [ns, replies, bytes, first latency, steal, cpu ns]
    cutoff = min(s[4] for s in slices)
    ends = [s[3] for s in slices[1:]] + [len(res["latencies"])]
    quiet = [(s, end) for s, end in zip(slices, ends) if s[4] == cutoff]
    seconds = sum(s[0] for s, _ in quiet) / 1e9
    replies = sum(s[1] for s, _ in quiet)
    if replies == 0:
        raise BenchError("no reply completed in the quiet part of the window")
    latencies = sorted(x for s, end in quiet for x in res["latencies"][s[3]:end])
    return {"rps": replies / seconds,
            "goodput_mbps": sum(s[2] for s, _ in quiet) / seconds / 1e6,
            "p50_us": latencies[(len(latencies) - 1) // 2] / 1e3,
            "cpu_us_per_req": sum(s[5] for s, _ in quiet) / replies / 1e3,
            "quiet_share": len(quiet) / len(slices)}


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def end_to_end(results, setup_s):
    metrics = medians([dict(quiet_window(r), rss_mb=r["proc_end"]["vm_hwm_kb"] / 1024.0)
                       for r in results])
    metrics.pop("quiet_share")
    metrics["setup_s"] = setup_s
    return {name: metrics[name] for name in END_TO_END_UNITS}


def headroom(res):
    window_ns = res["window_s"] * 1e9
    return (res["client_cpu_s"] / res["window_s"],
            task_cpu_ns(res, comm_prefix="dispatch") / window_ns)


def per_layer(res):
    """Per-layer metrics of one traced instance over its whole window."""
    ok = res["ok"]
    window_ns = res["window_s"] * 1e9
    snaps = res["snapshots"]
    a, b, final = snaps["0"], snaps["1"], snaps["final"]
    replies = b["replies_sent"] - a["replies_sent"]
    if replies <= 0:
        raise BenchError("traced server sent no replies in the window")
    roles = {role: set(tids) for role, tids in final["threads"].items()}
    # The file-I/O pool registers only when it opens a file, so it is
    # taken as every thread that is neither main, dispatcher nor processor.
    known = roles["dispatcher"] | roles["processor"] | {res["server_pid"]}
    file_io = {t["tid"] for t in res["proc_end"]["tasks"]} - known
    ticks = os.sysconf("SC_CLK_TCK")
    d = lambda key: res["proc_end"][key] - res["proc_start"][key]
    delta = lambda key: b[key] - a[key]
    med = b["medians"]
    hits, misses = delta("cache_hits"), delta("cache_misses")
    return {
        "nserver.dispatcher_cpu_us_per_req":
            task_cpu_ns(res, tids=roles["dispatcher"]) / ok / 1e3,
        "net.dispatcher_busy": task_cpu_ns(res, tids=roles["dispatcher"]) / window_ns,
        "nserver.processor_cpu_us_per_req":
            task_cpu_ns(res, tids=roles["processor"]) / ok / 1e3,
        "nserver.file_io_cpu_us_per_req": task_cpu_ns(res, tids=file_io) / ok / 1e3,
        "server.user_cpu_us_per_req": d("utime_ticks") / ticks / ok * 1e6,
        "server.sys_cpu_us_per_req": d("stime_ticks") / ticks / ok * 1e6,
        "net.rw_syscalls_per_req": (d("syscr") + d("syscw")) / ok,
        "nserver.voluntary_switches_per_req": task_sum(res, "vcsw") / ok,
        "nserver.involuntary_switches_per_req": task_sum(res, "ivcsw") / ok,
        "http.decode_ns": med["decode_ns"][0],
        "http.decode_calls_per_req": delta("decode_calls") / replies,
        "http.encode_ns": med["encode_ns"][0],
        "nserver.queue_wait_us": med["queue_wait_ns"][0] / 1e3,
        "nserver.fetch_us": med["fetch_ns"][0] / 1e3,
        "nserver.accept_to_decode_us": med["accept_to_decode_ns"][0] / 1e3,
        "common.allocs_per_req": delta("allocs") / replies,
        "common.alloc_bytes_per_req": delta("alloc_bytes") / replies,
        "nserver.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "nserver.bytes_copied_per_req": delta("bytes_copied") / replies,
        "nserver.writev_calls_per_req": delta("writev_calls") / replies,
    }


# ---- one run ---------------------------------------------------------------------

def run(workload, seed, seconds, trace, server="cops", warmup_ms=WARMUP_MS, log=print):
    """Runs one workload; returns the result object the last line prints."""
    if workload not in WORKLOADS:
        raise BenchError("unknown workload %r (have %s)" % (workload, ", ".join(WORKLOADS)))
    build()
    work_dir = os.path.join(BUILD, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        work = prepare(workload, seed, work_dir)
        log("workload %s  seed %d  server %s  trace %d  %d connections  %d instances"
            % (workload, seed, server, trace, CONNECTIONS, INSTANCES))
        if not trace:
            setup_s, starts = measure_setup(server, work)
            log("  cold starts (s): %s" % " ".join("%.4f" % s for s in starts))
            results, made = load_runs(server, workload, work, seconds, warmup_ms)
            metrics = end_to_end(results, setup_s)
            units = END_TO_END_UNITS
        else:
            untraced, _ = load_runs(server, workload, work, seconds, warmup_ms)
            results, made = load_runs("traced", workload, work, seconds, warmup_ms)
            metrics = medians([per_layer(r) for r in results])
            metrics["trace.overhead"] = (
                statistics.median(quiet_window(r)["rps"] for r in results)
                / statistics.median(quiet_window(r)["rps"] for r in untraced))
            units = PER_LAYER_UNITS
        for res in made:
            q = quiet_window(res)
            client_busy, dispatcher_busy = headroom(res)
            log("  instance%s rps %.0f  p50 %.1f us  p99 %.1f us over %d samples (not gated)"
                "  quiet %.0f%%  client busy %.2f  dispatch-0 busy %.2f"
                % (":" if any(res is r for r in results) else " (left out):",
                   q["rps"], q["p50_us"], res["p99_us"], res["samples"],
                   100 * q["quiet_share"], client_busy, dispatcher_busy))
        for name, value in metrics.items():
            log("  %-38s %14.4f %s" % (name, value, units[name]))
        attempted = sum(r["attempted"] for r in made)
        failed = sum(r["failed"] for r in made)
        log("  attempted %d  failed %d" % (attempted, failed))
        return {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# ---- self-check --------------------------------------------------------------------

def check_result(result, spec, trace):
    """Problems with one printed result against BENCHMARK.json (empty = fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    if result.get("failed") != 0:
        problems.append("failed %r" % result.get("failed"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in wanted:
        if m["name"] not in got:
            problems.append("missing metric %s" % m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append("%s unit %s, BENCHMARK.json says %s"
                            % (m["name"], got[m["name"]]["unit"], m["unit"]))
        elif not isinstance(got[m["name"]]["value"], (int, float)):
            problems.append("%s value %r" % (m["name"], got[m["name"]]["value"]))
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % ", ".join(sorted(extra)))
    return problems


def check_spec(spec):
    """Problems with BENCHMARK.json against what this runner measures."""
    problems = []
    rel = os.path.relpath(HERE, REPO)
    if spec.get("command") != ["python3", rel + "/run.py"]:
        problems.append("command %r" % spec.get("command"))
    if spec.get("paths") != [rel]:
        problems.append("paths %r" % spec.get("paths"))
    names = [w["name"] for w in spec.get("workloads", [])]
    if sorted(names) != sorted(WORKLOADS):
        problems.append("workloads %s, runner has %s" % (names, sorted(WORKLOADS)))
    e2e = {m["name"]: m["unit"] for m in spec.get("end_to_end", [])}
    if e2e != END_TO_END_UNITS:
        problems.append("end_to_end %s" % e2e)
    if any(not 0 < m.get("bound", 0) <= 0.25 for m in spec.get("end_to_end", [])):
        problems.append("an end_to_end bound outside (0, 0.25]")
    layers = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    if layers != PER_LAYER_UNITS:
        problems.append("per_layer %s" % layers)
    return problems


def self_check(seconds=2.5):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = check_spec(spec)
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result = run(workload, 1, seconds, trace, warmup_ms=300)
                problems += ["%s trace %d: %s" % (workload, trace, p)
                             for p in check_result(result, spec, trace)]
            except BenchError as e:
                problems.append("%s trace %d: %s" % (workload, trace, e))
    for p in problems:
        print("self-check: " + p)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--server", choices=("cops", "baseline"), default="cops",
                    help="baseline = src/baseline's thread-per-connection "
                         "server, for reference figures")
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload briefly and check the replies, "
                         "the metrics and BENCHMARK.json")
    a = ap.parse_args(argv)
    # Unwind on SIGTERM too, so that the finally clauses stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if a.self_check:
            return self_check()
        if a.workload is None:
            ap.error("--workload is required")
        if a.server == "baseline" and a.trace:
            ap.error("the traced run instruments COPS-HTTP only")
        result = run(a.workload, a.seed, a.seconds, a.trace, server=a.server)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print("ledger: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
