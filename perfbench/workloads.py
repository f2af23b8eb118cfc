"""The benchmark's workloads: set-up, one op, and the check of each answer.

Every op's answer is checked against `reference` (tables frozen in the
benchmark) or against the simplex oracle `cones.nonneg_combination`, never
against the code the op times.  An op whose answer is wrong, that raises, or
whose process exits nonzero is a failed op; it is counted, and its time is
left out of the timing statistics.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import reference
from tracer import Tracer, merge


@dataclass
class Op:
    """One measured op: wall and CPU seconds, peak RSS in KiB, verdict, start time."""
    wall: float
    cpu: float
    rss_kb: int
    reason: str | None = None  # None when the answer checked out
    traced: bool = False
    start: float = 0.0  # perf_counter when the op began

    @property
    def ok(self):
        return self.reason is None


class Checkout:
    """Paths and child-process launching, relative to the checkout root."""

    def __init__(self, root):
        self.root = Path(root)
        self.src = self.root / "src"
        self.out = self.root / ".bench_out"
        self.out.mkdir(exist_ok=True)

    def env(self):
        env = dict(os.environ)
        env.pop("SKEWMORI_THREADS", None)  # measure the default configuration
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    def spawn(self, argv, deadline):
        """Run argv to completion; returns (exit code, stdout, stderr, wall, rusage).

        The child is reaped with wait4, which gives its own CPU time and peak
        RSS and returns as soon as it exits.  A watchdog kills it if it runs
        past the deadline (a perf_counter value).
        """
        # Output goes to files, not pipes: a full pipe would block the child
        # while this process blocks in wait4.
        out_path = self.out / f"op-{os.getpid()}.stdout"
        err_path = self.out / f"op-{os.getpid()}.stderr"
        env = self.env()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.root)
            watchdog = threading.Timer(max(deadline - perf_counter(), 0.1), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, stdout, stderr, wall, usage


# -- checks ------------------------------------------------------------------

def check_gkz(report, chambers=reference.A8_CHAMBERS, regions=reference.A8_REGIONS):
    """None if `report` (parsed `gkz --n 8 --json`) matches the reference."""
    if report.get("command") != "gkz" or report["results"].get("n") != 8:
        return "not an A(8) gkz report"
    res = report["results"]
    got = [frozenset(tuple(r) for r in ch["rays"]) for ch in res["chambers"]]
    want = [frozenset(c) for c in chambers]
    if Counter(got) != Counter(want):
        return f"chamber ray sets differ from the reference ({len(got)} reported)"
    index = {c: i for i, c in enumerate(want)}
    partition = []
    for k, region in enumerate(res["regions"]):
        members = region["chambers"]
        if any(res["chambers"][c]["region"] != k for c in members):
            return f"region {k} disagrees with its chambers' region field"
        partition.append(frozenset(index[got[c]] for c in members))
    if Counter(partition) != Counter(frozenset(r) for r in regions):
        sizes = sorted(len(p) for p in partition)
        return f"regions differ from the reference (merge sizes {sizes})"
    return None


def check_verify(report, seed, names=reference.VERIFY_CHECKS):
    """None if `report` (parsed `verify --json`) passed every reference check."""
    if report.get("command") != "verify" or report["config"].get("seed") != seed:
        return "not a verify report for this seed"
    results = report["results"]
    got = sorted(c["name"] for c in results)
    if got != sorted(names):
        return f"checks {got} differ from the reference list"
    failed = [c["name"] for c in results if c["ok"] is not True]
    return f"checks failed: {failed}" if failed else None


def check_face(w, rays, chambers=reference.A8_CHAMBERS):
    """None if `rays` span the cell of the chamber fan whose relative interior holds w.

    The reference chambers are simplicial, so w has unique coordinates in
    the rays of any reference chamber that contains it, and the cell of w is
    the face spanned by the rays with positive coordinates.
    """
    from skewmori.cones import nonneg_combination
    if nonneg_combination(list(rays), w) is None:
        return f"class {w} is not in the returned cone"
    for chamber in chambers:
        chamber = sorted(chamber)
        coeffs = nonneg_combination(chamber, w)
        if coeffs is not None:
            face = {r for r, c in zip(chamber, coeffs) if c > 0}
            if set(rays) != face:
                return f"class {w}: rays {sorted(rays)} != reference face {sorted(face)}"
            return None
    return f"class {w} lies in no reference chamber"


def _parse(stdout):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"report is not JSON: {exc}"


def _checked(check, *args):
    """Run a check, turning a malformed report into a failure reason."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"


# -- workloads ---------------------------------------------------------------

class FreshCommand:
    """A skewmori command run in a fresh interpreter, one process per op."""

    setup_code = "import skewmori.cli"

    def __init__(self, checkout, argv, check, trace_pairs):
        self.checkout = checkout
        self.trace_pairs = trace_pairs
        self.args = argv
        self.check = check
        self.dumps = []

    def setup(self):
        return None

    def op(self, deadline, traced=False):
        co = self.checkout
        if traced:
            trace_path = co.out / f"op-{os.getpid()}.trace.json"
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(co.root / "perfbench" / "traced_cli.py"),
                    str(trace_path)] + self.args
        else:
            argv = [sys.executable, "-m", "skewmori.cli"] + self.args
        start = perf_counter()
        code, stdout, stderr, wall, usage = co.spawn(argv, deadline)
        op = Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, traced=traced,
                start=start)
        if code != 0:
            op.reason = f"exit code {code}: {stderr[-300:].decode(errors='replace')}"
            return op
        report, op.reason = _parse(stdout)
        if op.reason is None:
            op.reason = _checked(self.check, report)
        if traced:
            if op.ok:
                self.dumps.append(json.loads(trace_path.read_text()))
            trace_path.unlink(missing_ok=True)
        return op

    def trace(self):
        """What the traced ops recorded, summed over the ops that passed."""
        return merge(self.dumps)


class ChamberQueries:
    """`chamber_of` on seeded random A(8) classes, in this process."""

    setup_code = ("from skewmori import chambers\n"
                  "c = chambers.configuration_for(8)\n"
                  f"chambers.chamber_of(c, {reference.A8_NEF_CLASS})")
    trace_pairs = 100

    def __init__(self, checkout, seed, chambers=reference.A8_CHAMBERS):
        self.checkout = checkout
        self.rng = random.Random(f"chamber-queries:{seed}")
        self.reference = chambers
        self.tracer = Tracer()

    def next_class(self):
        """A nonnegative integer combination of 1-4 distinct degree vectors."""
        rng = self.rng
        vectors = rng.sample(reference.A8_DEGREES, rng.randint(1, 4))
        coeffs = [rng.randint(1, 9) for _ in vectors]
        return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(4))

    def setup(self):
        """Build the configuration and run the warm-up query; returns a failure or None."""
        if str(self.checkout.src) not in sys.path:
            sys.path.insert(0, str(self.checkout.src))
        from skewmori import chambers
        self.chambers = chambers
        self.config = chambers.configuration_for(8)
        warm = chambers.chamber_of(self.config, reference.A8_NEF_CLASS)
        return check_face(reference.A8_NEF_CLASS, warm.rays, self.reference)

    def op(self, deadline, traced=False):
        w = self.next_class()
        if traced:
            self.tracer.install()
        c0, t0 = process_time(), perf_counter()
        try:
            cell = self.chambers.chamber_of(self.config, w)
            reason = None
        except (ValueError, ArithmeticError, KeyError) as exc:
            cell, reason = None, f"class {w}: {exc!r}"
        finally:
            wall, cpu = perf_counter() - t0, process_time() - c0
            if traced:
                self.tracer.uninstall()
        if cell is not None:
            reason = check_face(w, cell.rays, self.reference)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return Op(wall, cpu, rss_kb, reason, traced, t0)

    def trace(self):
        """What the traced ops recorded (failed ones included)."""
        return self.tracer.dump()


WORKLOADS = ("gkz-a8", "chamber-queries", "verify")


def make(name, checkout, seed):
    if name == "gkz-a8":
        return FreshCommand(checkout, ["gkz", "--n", "8", "--json"], check_gkz, 3)
    if name == "verify":
        return FreshCommand(checkout, ["verify", "--json", "--seed", str(seed)],
                            lambda report: check_verify(report, seed), 2)
    if name == "chamber-queries":
        return ChamberQueries(checkout, seed)
    raise ValueError(f"unknown workload {name!r}")
