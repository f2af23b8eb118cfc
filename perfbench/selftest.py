"""Self-test of the benchmark's checks and tracer.

    python3 perfbench/selftest.py        (from the root of a checkout)

Not collected by pytest on purpose: the repository's test suite measures
the package, and this file tests the benchmark.  It takes about a minute.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from skewmori import chambers, cli, cones, linalg, verify  # noqa: E402

CHECKOUT = workloads.Checkout(ROOT)


def deadline():
    return perf_counter() + 170


def corrupt(table, index):
    """The chamber table with one ray of chamber `index` changed."""
    out = [set(c) for c in table]
    ray = sorted(out[index])[0]
    out[index] = (out[index] - {ray}) | {tuple(x + 1 for x in ray)}
    return out


def module_bindings():
    """Identity snapshot of everything the tracer may replace."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("skewmori") and mod is not None:
            snap.update({(name, k): id(v) for k, v in vars(mod).items()})
    for cls in (cones.Cone, chambers.VectorConfiguration, chambers.Decomposition):
        snap.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    return snap


class ReferenceTest(unittest.TestCase):
    def test_frozen_tables_match_the_package(self):
        self.assertEqual(reference.A8_CHAMBERS, verify.A8_CHAMBERS)
        self.assertEqual(reference.VERIFY_CHECKS, [c[0] for c in verify.CRITERIA])
        config = chambers.configuration_for(8)
        self.assertEqual(sorted(reference.A8_DEGREES), config.vectors)
        self.assertEqual(reference.A8_NEF_CLASS, config.polarization)


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = module_bindings()
        criteria, dot = verify.CRITERIA, linalg.dot
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(linalg.dot, dot)
            self.assertIsNot(verify.CRITERIA, criteria)
        finally:
            t.uninstall()
        self.assertEqual(module_bindings(), before)
        self.assertIs(verify.CRITERIA, criteria)
        self.assertIs(linalg.dot, dot)
        self.assertEqual(t.missing, [])

    def test_name_bound_in_several_modules_is_counted_everywhere(self):
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIs(sys.modules["skewmori.cones"].dot, linalg.dot)
            self.assertIs(sys.modules["skewmori.chambers"].dot, linalg.dot)
            cones.Cone.from_generators([(1, 0), (1, 1)])
        finally:
            t.uninstall()
        self.assertGreater(t.spans["linalg.dot"][0], 0)
        self.assertGreater(t.spans["cones.double_description"][0], 0)

    def test_missing_target_is_skipped(self):
        tracer.SPANS.append(("x.gone", "skewmori.linalg", "no_such_function"))
        t = tracer.Tracer()
        try:
            t.install()
            t.uninstall()
        finally:
            tracer.SPANS.pop()
        self.assertEqual(t.missing, ["skewmori.linalg.no_such_function"])

    def test_self_time_never_exceeds_total(self):
        t = tracer.Tracer()
        t.install()
        try:
            chambers.gkz_chambers(chambers.configuration_for(6))
        finally:
            t.uninstall()
        for name, (calls, total, own) in t.spans.items():
            self.assertLessEqual(own, total + 1e-9, name)

    def test_exact_counts_repeat(self):
        keys = ("cones.double_description", "chambers.canonical")
        counts = []
        for _ in range(2):
            t = tracer.Tracer()
            t.install()
            try:
                chambers.gkz_chambers(chambers.configuration_for(6))
            finally:
                t.uninstall()
            counts.append(({k: t.spans[k][0] for k in keys}, dict(t.counts)))
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0][1]["chambers.cells"], 0)
        self.assertEqual(counts[0][1]["chambers.chambers"], 5)


class ByteIdenticalTest(unittest.TestCase):
    COMMANDS = [
        ["gkz", "--n", "7", "--json"],
        ["sbl", "--n", "6"],
        ["chamber", "--n", "8", "--point", "10,-6,-3,-1", "--json"],
        ["verify", "--only", "properties", "--json"],
        ["verify", "--only", "secant"],
        ["verify", "--only", "multiplicity", "--n", "6", "--json"],
        ["verify", "--only", "dualities", "--json"],
    ]

    def test_traced_cli_reports_are_byte_identical(self):
        trace_path = CHECKOUT.out / "selftest.trace.json"
        for args in self.COMMANDS:
            plain = CHECKOUT.spawn([sys.executable, "-m", "skewmori.cli"] + args, deadline())
            traced = CHECKOUT.spawn([sys.executable, str(HERE / "traced_cli.py"),
                                     str(trace_path)] + args, deadline())
            self.assertEqual(plain[0], 0, args)
            self.assertEqual(traced[:3], plain[:3], args)  # exit code, stdout, stderr
            self.assertTrue(json.loads(trace_path.read_text())["spans"], args)
        trace_path.unlink()

    def test_traced_chamber_queries_give_identical_cells(self):
        config = chambers.configuration_for(8)
        q = workloads.ChamberQueries(CHECKOUT, seed=7)
        classes = [q.next_class() for _ in range(30)]
        plain = [chambers.chamber_of(config, w) for w in classes]
        t = tracer.Tracer()
        t.install()
        try:
            traced = [chambers.chamber_of(config, w) for w in classes]
        finally:
            t.uninstall()
        for a, b in zip(plain, traced):
            self.assertEqual((a.rays, a.forced, a.signature), (b.rays, b.forced, b.signature))


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["gkz", "--n", "8", "--json"])
        cls.gkz_report = json.loads(out.getvalue())

    def test_gkz_report_passes_and_corruption_fails(self):
        self.assertIsNone(workloads.check_gkz(self.gkz_report))
        self.assertIsNotNone(workloads.check_gkz(self.gkz_report,
                                                 chambers=corrupt(reference.A8_CHAMBERS, 3)))
        merged = [{0, 1, 2}, {3}] + reference.A8_REGIONS[2:]
        self.assertIsNotNone(workloads.check_gkz(self.gkz_report, regions=merged))

    def test_verify_gate(self):
        report = {"command": "verify", "config": {"seed": 4},
                  "results": [{"name": n, "ok": True} for n in reference.VERIFY_CHECKS]}
        self.assertIsNone(workloads.check_verify(report, 4))
        self.assertIsNotNone(workloads.check_verify(report, 5))
        self.assertIsNotNone(workloads.check_verify(report, 4, names=reference.VERIFY_CHECKS[1:]))
        report["results"][6]["ok"] = False
        self.assertIsNotNone(workloads.check_verify(report, 4))

    def test_corrupted_reference_makes_ops_fail(self):
        bad = corrupt(reference.A8_CHAMBERS, 13)
        gkz = workloads.FreshCommand(CHECKOUT, ["gkz", "--n", "8", "--json"],
                                     lambda r: workloads.check_gkz(r, chambers=bad), 1)
        op = gkz.op(deadline())
        self.assertFalse(op.ok)
        self.assertIn("differ", op.reason)

        q = workloads.ChamberQueries(CHECKOUT, seed=1, chambers=bad)
        self.assertIsNotNone(q.setup())  # the warm-up class is inside chamber 13
        w = reference.A8_NEF_CLASS
        self.assertIsNone(workloads.check_face(w, sorted(reference.A8_CHAMBERS[13])))
        self.assertIsNotNone(workloads.check_face(w, sorted(reference.A8_CHAMBERS[13]), bad))

    def test_chamber_queries_pass_at_this_version(self):
        q = workloads.ChamberQueries(CHECKOUT, seed=3)
        self.assertIsNone(q.setup())
        ops = [q.op(deadline()) for _ in range(40)]
        self.assertEqual([o.reason for o in ops if not o.ok], [])


class ProbeTest(unittest.TestCase):
    def test_slowdown_averages_the_samples_near_the_interval(self):
        probe = pace.Probe()
        ref = pace.REFERENCE_CHUNK_S
        probe.samples = [(t / 10, ref) for t in range(100)]  # 0.0 .. 9.9 s
        probe.samples += [(20 + t / 10, 2 * ref) for t in range(100)]  # 20.0 .. 29.9 s
        self.assertAlmostEqual(probe.slowdown(2.0, 3.0), 1.0)
        self.assertAlmostEqual(probe.slowdown(22.0, 23.0), 2.0)
        # Too few samples in the window: the nearest ones are used instead.
        self.assertAlmostEqual(probe.slowdown(40.0, 40.1), 2.0)
        with self.assertRaises(RuntimeError):
            pace.Probe().slowdown(0.0, 1.0)

    def test_probe_samples_while_running_and_stops(self):
        with pace.Probe(gap=0.005) as probe:
            t0 = perf_counter()
            while len(probe.samples) < 5 and perf_counter() - t0 < 10:
                pace.chunk()
        self.assertFalse(probe._thread.is_alive())
        self.assertGreaterEqual(len(probe.samples), 5)
        self.assertTrue(all(c > 0 for _, c in probe.samples))


class RunnerTest(unittest.TestCase):
    def test_refuses_a_directory_without_the_program(self):
        bare = CHECKOUT.out / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gkz-a8",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
