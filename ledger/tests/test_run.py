"""Tests of the ledger runner.

    python3 -m unittest discover -s ledger/tests

The unit tests need nothing built.  The tests marked "needs build" drive the
real server and client and are skipped until a run has built them into
.bench_build/ (any `python3 ledger/run.py ...` does).
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

BUILT = all(os.path.exists(run.binary(t)) for t in run.TARGETS)


def load_spec():
    with open(os.path.join(run.REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_result(spec, trace):
    metrics = spec["per_layer" if trace else "end_to_end"]
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in metrics}}


class InputsTest(unittest.TestCase):
    def test_specweb_set_is_the_papers_204_8_mb(self):
        files = run.manifest_for("specweb")
        self.assertEqual(len(files), 41 * 36)
        self.assertEqual(sum(size for _, size in files), 41 * 4_999_500)
        self.assertEqual(files[0], ("/dir0/class0_0.html", 100))
        self.assertEqual(files[-1], ("/dir40/class3_8.html", 900_000))

    def test_small_set(self):
        files = run.manifest_for("small")
        self.assertEqual(len(files), 16)
        self.assertTrue(all(size == 2048 for _, size in files))

    def test_plan_depends_only_on_seed(self):
        for fileset in ("small", "specweb"):
            a = run.plan_for(fileset, 7, length=1000)
            self.assertEqual(a, run.plan_for(fileset, 7, length=1000))
            self.assertNotEqual(a, run.plan_for(fileset, 8, length=1000))

    def test_specweb_class_weights(self):
        plan = run.plan_for("specweb", 3, length=100_000)
        shares = [sum(1 for k in plan if k % 36 // 9 == c) / len(plan) for c in range(4)]
        for got, want in zip(shares, run.SPECWEB_CLASS_WEIGHTS):
            self.assertAlmostEqual(got, want, delta=0.01)
        # Zipf over directories: directory 0 is the most requested.
        per_dir = [sum(1 for k in plan if k // 36 == d) for d in range(41)]
        self.assertEqual(per_dir.index(max(per_dir)), 0)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        self.assertEqual(run.check_spec(load_spec()), [])

    def test_spec_mismatch_is_reported(self):
        spec = load_spec()
        spec["per_layer"] = spec["per_layer"][1:]
        spec["end_to_end"][0]["bound"] = 0.5
        problems = run.check_spec(spec)
        self.assertTrue(any("per_layer" in p for p in problems))
        self.assertTrue(any("bound" in p for p in problems))

    def test_good_result_passes(self):
        spec = load_spec()
        for trace in (0, 1):
            self.assertEqual(run.check_result(fake_result(spec, trace), spec, trace), [])

    def test_bad_results_are_reported(self):
        spec = load_spec()
        good = fake_result(spec, 0)
        cases = {
            "missing metric": lambda r: r["metrics"].pop("p50_us"),
            "unit": lambda r: r["metrics"]["rps"].update(unit="ops"),
            "not in BENCHMARK.json": lambda r: r["metrics"].update(extra={"value": 1, "unit": "s"}),
            "failed": lambda r: r.update(failed=3),
            "correct": lambda r: r.update(correct=False),
        }
        for needle, mutate in cases.items():
            bad = copy.deepcopy(good)
            mutate(bad)
            problems = run.check_result(bad, spec, 0)
            self.assertTrue(any(needle in p for p in problems), (needle, problems))


class MetricsTest(unittest.TestCase):
    def client_result(self):
        task = lambda tid, comm, cpu, v: {"tid": tid, "comm": comm, "cpu_ns": cpu,
                                          "vcsw": v, "ivcsw": 0}
        start = {"utime_ticks": 100, "stime_ticks": 50, "syscr": 0, "syscw": 0,
                 "vm_hwm_kb": 1000,
                 "tasks": [task(10, "srv", 0, 0), task(11, "dispatch-0", 0, 0),
                           task(12, "srv", 0, 0)]}
        end = {"utime_ticks": 200, "stime_ticks": 150, "syscr": 3000, "syscw": 2000,
               "vm_hwm_kb": 2048,
               "tasks": [task(10, "srv", 1_000_000, 5), task(11, "dispatch-0", 500_000_000, 10),
                         task(12, "srv", 300_000_000, 5)]}
        # Three 0.5 s slices; the middle one lost CPU to the hypervisor.
        slices = [[500_000_000, 400, 800_000, 0, 0, 20_000_000],
                  [500_000_000, 100, 200_000, 400, 3, 9_000_000],
                  [500_000_000, 600, 1_200_000, 500, 0, 30_000_000]]
        latencies = [50_000] * 400 + [900_000] * 100 + [70_000] * 600
        return {"window_s": 1.5, "ok": 1100, "body_bytes": 2_200_000, "p50_us": 70.0,
                "client_cpu_s": 0.75, "proc_start": start, "proc_end": end,
                "server_pid": 10, "slices": slices, "latencies": latencies}

    def test_quiet_window_leaves_out_stolen_slices(self):
        q = run.quiet_window(self.client_result())
        self.assertEqual(q["rps"], 1000.0)
        self.assertEqual(q["goodput_mbps"], 2.0)
        self.assertEqual(q["p50_us"], 70.0)
        self.assertEqual(q["cpu_us_per_req"], 50.0)
        self.assertAlmostEqual(q["quiet_share"], 2 / 3)

    def test_end_to_end_takes_medians_over_instances(self):
        results = [self.client_result() for _ in range(3)]
        results[0]["slices"][0][1] = 900  # one fast instance does not move it
        m = run.end_to_end(results, 0.003)
        self.assertEqual(list(m), list(run.END_TO_END_UNITS))
        self.assertEqual(m["rps"], 1000.0)
        self.assertEqual(m["rss_mb"], 2.0)
        self.assertEqual(m["setup_s"], 0.003)
        self.assertEqual(run.headroom(self.client_result()), (0.5, 500_000_000 / 1.5e9))

    def test_per_layer(self):
        snap = lambda replies, allocs: {
            "replies_sent": replies, "decode_calls": 2 * replies, "bytes_copied": 0,
            "writev_calls": replies, "cache_hits": replies, "cache_misses": 0,
            "allocs": allocs, "alloc_bytes": 100 * allocs,
            "threads": {"dispatcher": [11], "processor": [], "file_io": []},
            "medians": {k: [1000.0, 1] for k in ("decode_ns", "encode_ns", "queue_wait_ns",
                                                 "fetch_ns", "accept_to_decode_ns")}}
        res = self.client_result()
        res["snapshots"] = {"0": snap(0, 0), "1": snap(1000, 20_000),
                            "final": snap(1010, 20_100)}
        m = run.per_layer(res)
        self.assertEqual(set(m) | {"trace.overhead"}, set(run.PER_LAYER_UNITS))
        self.assertAlmostEqual(m["nserver.dispatcher_cpu_us_per_req"], 500_000 / 1100)
        self.assertAlmostEqual(m["nserver.file_io_cpu_us_per_req"], 300_000 / 1100)
        self.assertEqual(m["net.rw_syscalls_per_req"], 5000 / 1100)
        self.assertEqual(m["common.allocs_per_req"], 20.0)
        self.assertEqual(m["http.decode_calls_per_req"], 2.0)
        self.assertEqual(m["nserver.queue_wait_us"], 1.0)


@unittest.skipUnless(BUILT, "needs build")
class LiveTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(dir=run.BUILD)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_client_rejects_a_body_the_generator_did_not_write(self):
        work = run.prepare("small_keepalive", 1, os.path.join(self.dir, "work"))
        other = os.path.join(self.dir, "other")
        os.makedirs(other)
        run.run_client(["gen", "--root", other, "--manifest", work["manifest"],
                        "--seed", str(run.CONTENT_SEED + 1)])
        port = run.free_port()
        proc = subprocess.Popen(run.server_command("cops", work["root"], port),
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            run.wait_listening(port, proc)
            res = run.run_client(["load", "--root", other, "--manifest", work["manifest"],
                                  "--plan", work["plan"], "--port", str(port),
                                  "--mode", "keepalive", "--conns", "2",
                                  "--warmup-ms", "0", "--seconds", "0.2"])
        finally:
            proc.kill()
            proc.wait()
        self.assertGreater(res["wrong"], 0)
        with self.assertRaises(run.BenchError):
            run.check_client(res, "mismatch")

    def test_self_check_passes(self):
        out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                              "--self-check"], cwd=run.REPO, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=600)
        self.assertEqual(out.returncode, 0, out.stdout.decode())
        self.assertIn("self-check passed", out.stdout.decode())


if __name__ == "__main__":
    unittest.main()
