"""The eqsing benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload is a closed loop: one
case (or CLI request) at a time, the next sent only when the previous one
has answered, from this one runner process.  Batch workloads run their
cases in a worker process (perfbench/worker.py); the cli workload starts a
fresh eqsing process per request.  The runner enforces each case's time
budget by killing the worker, checks every answer against an oracle, and
prints one JSON line with the metrics named in BENCHMARK.json: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.
See perfbench/README.md.
"""
import argparse
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "eqsing" / "fixtures"

# set-up is measured this many times per untraced run, at start-ups spread
# evenly over the --seconds window, so that they do not all fall into one
# speed state of a shared machine
SETUP_SPAWNS = 7
SETUP_LIMIT_S = 60
MIN_BUDGET_S = 2  # so that a scheduling stall cannot kill a millisecond case
TIMEOUT_BUDGET_S = 10  # cases that do not finish at the seed
# A case is visited several times per pass, at shuffled places, and reports
# the median of its visits: about VISIT_TARGET_S of work, at most MAX_VISITS
# visits, and at least two unless one visit takes SINGLE_VISIT_S or more.
VISIT_TARGET_S = 2.5
MAX_VISITS = 15
SINGLE_VISIT_S = 3
# mu's cases are all short, so a pass would last only about 12 s; more
# visits stretch it to about 16 s
MU_VISIT_TARGET_S = 4.5
# A shared machine's speed drifts by up to 1.7x, in phases tens of seconds
# long, so a whole run can fall into a slow phase.  The runner therefore
# reads a speed probe next to every timed visit and start-up, and reports
# times scaled to the probe's reference time: work inside a process by a
# fixed pure-Python loop, process start-up (set-up, CLI requests) by a bare
# interpreter start.  The reference times are about the probes' medians on
# the 2-CPU container the benchmark was tuned on.  A loop reading older than
# PROBE_EVERY_S is renewed; the interpreter start is read afresh before every
# start-up and request.
LOOP_REF_S = 0.002
SPAWN_REF_S = 0.05
PROBE_EVERY_S = 0.25
DEFAULT_CAP = 10**6
# what the installed `eqsing` console script runs
ENTRY_POINT = "import sys; from eqsing.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark could not run (as opposed to a case failing)."""


def _loop_seconds():
    """Best of 3 runs of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(20000):
            total += i * i % 7
            table[i & 255] = total
        best = min(best, time.perf_counter() - start)
    return best


def _spawn_seconds():
    """Time to start and stop a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


class SpeedProbe:
    """Readings of one speed probe.  They are taken by the runner, which
    runs no eqsing code, so that no change to eqsing can move them."""

    def __init__(self, measure, reference_s, every_s):
        self.measure = measure
        self.reference_s = reference_s
        self.every_s = every_s
        self.readings = []
        self._at = None

    def reading(self):
        """A probe time no older than `every_s`."""
        if self._at is None or time.perf_counter() - self._at >= self.every_s:
            self.readings.append(self.measure())
            self._at = time.perf_counter()
        return self.readings[-1]

    def scale(self, before):
        """Factor to reference speed for work that began at reading `before`.

        Work that outlasted a reading is bracketed by a second reading."""
        return self.reference_s / ((before + self.reading()) / 2)


# --------------------------------------------------------------------------
# cases: pure data; the worker builds the inputs and runs the oracles


def _timing(seed_s, target_s=VISIT_TARGET_S):
    """Budget and visits per pass for a case that took `seed_s` seconds at
    the seed; None means it does not finish."""
    if seed_s is None:
        return {"budget_s": TIMEOUT_BUDGET_S, "visits": 1}
    least = 1 if seed_s >= SINGLE_VISIT_S else 2
    return {"budget_s": max(MIN_BUDGET_S, round(3 * seed_s)),
            "visits": max(least, min(MAX_VISITS, round(target_s / seed_s)))}


def _simple(symbol, k, seed_s):
    return {"name": f"{symbol}{k or ''}", "run": "analysis", "symbol": symbol, "k": k,
            "cap": DEFAULT_CAP, **_timing(seed_s),
            "expect": {"verdicts": ["finite"], "simple": True}}


def _star(*arms, isolated=0):
    """Vertex 1 with chains of the given lengths hanging off it."""
    vertices, edges = [[1, -2]], []
    for length in arms:
        prev = 1
        for _ in range(length):
            v = len(vertices) + 1
            vertices.append([v, -2])
            edges.append([prev, v, 1])
            prev = v
    for _ in range(isolated):
        vertices.append([len(vertices) + 1, -2])
    return {"vertices": vertices, "edges": edges}


def _not_simple(name, seed_s, verdicts, cap=DEFAULT_CAP, diagram=None,
                inertia=None, word=None):
    case = {"name": name, "run": "analysis", "cap": cap, **_timing(seed_s),
            "expect": {"verdicts": verdicts, "simple": False}}
    if diagram is None:
        case["symbol"] = name
    else:
        case["diagram"] = diagram
        case["expect"]["inertia"] = inertia
    if word is not None:
        case["expect"]["word"] = word
    return case


def _mu(symbol, seed_s, k=None, m=None, n=None, modulus=None):
    name = f"{symbol}{k or ''}" + (f"(m={m},n={n})" if m is not None else "")
    form = {"symbol": symbol, "k": k, "m": m, "n": n, "modulus": modulus}
    return {"name": name, "run": "mu", "form": form,
            **_timing(seed_s, MU_VISIT_TARGET_S), "expect": {}}


def _quartic(name, corner, dims):
    """x1^4 + x2^4 + x1^2 x2^2 with the Z2 (T20) or corner (S20) action."""
    germ = {"terms": [[[4, 0], 1], [[0, 4], 1], [[2, 2], 1]], "m": 2, "n": 0,
            "corner": corner}
    return {"name": name, "run": "mu", "germ": germ, **_timing(0.001, MU_VISIT_TARGET_S),
            "expect": {"weights": ["1/4", "1/4"], "dims": dims}}


def _request(name, argv, expect, seed_s=0.3, **extra):
    # the mix itself is repeated pass after pass, so one visit per pass
    return {"name": name, "run": "cli", "argv": argv, **_timing(seed_s), "visits": 1,
            "expect": expect, **extra}


# Seed times are single runs on a 2-CPU x86-64 container, Python 3.11.7,
# numpy 2.4.6; None marks E7, E8 and the affine E8 + A1 stress case, which
# do not finish.
WEYL = [
    _simple("A", 1, 0.001), _simple("A", 2, 0.001), _simple("A", 3, 0.002),
    _simple("A", 4, 0.005), _simple("A", 5, 0.02), _simple("A", 6, 0.16),
    _simple("A", 7, 1.45), _simple("A", 8, 17.5),
    _simple("D", 4, 0.006), _simple("D", 5, 0.04), _simple("D", 6, 0.64),
    _simple("B", 2, 0.001), _simple("B", 3, 0.003), _simple("B", 4, 0.015),
    _simple("C", 2, 0.001), _simple("C", 3, 0.003), _simple("C", 4, 0.01),
    _simple("E6", None, 1.4), _simple("E7", None, None), _simple("E8", None, None),
    _simple("F4", None, 0.03),
]

CERTIFY = [
    _not_simple("M5", 0.02, ["infinite"], word="h2*h1*h3*h1"),
    _not_simple("M4", 0.02, ["infinite"], word="h4*h1"),
    _not_simple("X9", 0.9, ["infinite"]),
    # affine E6 = T(3,3,3): semidefinite path, Infinite
    _not_simple("affine-E6", 3.9, ["infinite"], diagram=_star(2, 2, 2),
                inertia=[0, 1, 6]),
    # affine E8 = T(2,3,6), plus a disjoint A1: the semidefinite path ignores
    # the cap today, so it may become Unknown once the cap holds there
    _not_simple("affine-E8+A1", None, ["infinite", "unknown"], cap=1000,
                diagram=_star(1, 2, 5, isolated=1), inertia=[0, 1, 9]),
    # hyperbolic T(2,3,7) on the general path: Unknown at the cap, or an
    # Infinite certificate, never Finite
    _not_simple("T237", 6.1, ["unknown", "infinite"], cap=100,
                diagram=_star(1, 2, 6), inertia=[1, 0, 9]),
    _not_simple("triangle-w2", 0.01, ["infinite"],
                diagram={"vertices": [[1, -2], [2, -2], [3, -2]],
                         "edges": [[1, 2, 2], [1, 3, 2], [2, 3, 2]]},
                inertia=[1, 0, 2]),
]

MU = (
    [_mu("A", 0.0001, k=k) for k in range(1, 9)]
    + [_mu("D", 0.0004, k=k) for k in (4, 5, 6)]
    + [_mu(s, 0.0004) for s in ("E6", "E7", "E8")]
    + [_mu("B", 0.0001, k=k) for k in (2, 3, 4)]
    + [_mu("C", 0.0002, k=k) for k in (2, 3, 4)]
    + [_mu("F4", 0.0002)]
    # confining families at the moduli of acceptance criterion 5
    + [_mu(s, 0.002, modulus=a) for s, a in (("P8", "0"), ("X9", "1"), ("J10", "1"),
                                             ("F10", "1"), ("K42", "1"), ("L6", "0"),
                                             ("M5", "1"), ("M4", "1"))]
    # stabilised large forms, where the truncation degree grows
    + [_mu("A", 0.70, k=16, m=1, n=3), _mu("A", 2.16, k=20, m=0, n=4),
       _mu("D", 0.59, k=16, m=1, n=3), _mu("B", 0.50, k=8, m=2, n=2),
       _mu("J10", 0.06, m=2, n=3, modulus="1"), _mu("F10", 0.07, m=2, n=3, modulus="1")]
    + [_quartic("T20", False, [[[1], 5]]), _quartic("S20", True, [[[1, 1], 4]])]
)

_MACHINE = ["--format", "machine"]
CLI = [
    _request("analyze-m5", ["analyze", "m5.diagram", *_MACHINE],
             {"exit": 1, "golden": "tests/golden/m5_analyze.machine"}),
    _request("analyze-m4", ["analyze", "m4.diagram", *_MACHINE],
             {"exit": 1, "lines": {"monodromy.verdict": "infinite",
                                   "monodromy.certificate.word": "h4*h1",
                                   "simple": "false"}}),
    _request("verdict-F4", ["catalog", "verdict", "F4", *_MACHINE],
             {"exit": 0, "weyl": ["F4", None],
              "lines": {"monodromy.verdict": "finite", "simple": "true"}}),
    _request("verdict-B3", ["catalog", "verdict", "B", "--k", "3", *_MACHINE],
             {"exit": 0, "weyl": ["B", 3],
              "lines": {"monodromy.verdict": "finite", "simple": "true"}}),
    _request("verdict-E6", ["catalog", "verdict", "E6", *_MACHINE],
             {"exit": 0, "weyl": ["E6", None],
              "lines": {"monodromy.verdict": "finite", "simple": "true"}},
             seed_s=1.8),
    _request("mu-X9", ["mu", "{scratch}/x9.poly", "--oracle", "1/4,1/4"],
             {"exit": 0, "lines": {"oracle.agrees": "true"}},
             poly={"symbol": "X9", "modulus": "1"}, poly_file="x9.poly"),
]

WORKLOADS = {"weyl": WEYL, "certify": CERTIFY, "mu": MU, "cli": CLI}

# helpers that equivariant_generators calls inside the monodromy layer
GENERATOR_FNS = ("equivariant_generators", "orbit_generator", "orbit_cycle",
                 "restrict_operator", "pl_reflection")


# --------------------------------------------------------------------------
# processes


class Worker:
    """A worker process for one batch workload, ready to take cases."""

    def __init__(self, init):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        self._buf = b""
        try:
            self._send(init)
            ready = self._read(start + SETUP_LIMIT_S)
        except EOFError:
            ready = None
        if not ready or not ready.get("ready"):
            self.kill()
            raise BenchError("worker failed to start (is src/eqsing present?)")
        self.setup_s = time.perf_counter() - start
        self.oracle = ready["oracle"]

    def _send(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def _read(self, deadline):
        """The next reply, or None when the deadline passes first."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError("worker exited")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def ask(self, case, traced, budget_s):
        """The worker's reply for one case; None when it overran its budget."""
        start = time.perf_counter()
        self._send({"case": case, "traced": traced})
        return self._read(start + budget_s)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class BatchRun:
    """Cases of a batch workload, sent to one worker at a time."""

    def __init__(self, cases, scratch):
        self.cases = cases
        self.init = {"src": str(SRC), "cases": cases, "scratch": str(scratch)}
        self.worker = None

    def respawn(self):
        """Replace the worker by a fresh one; its set-up seconds."""
        self.close()
        self.worker = Worker(self.init)
        return self.worker.setup_s

    def execute(self, i, traced):
        if self.worker is None:
            self.worker = Worker(self.init)
        try:
            reply = self.worker.ask(i, traced, self.cases[i]["budget_s"])
        except EOFError:
            reply = {"status": "crash", "why": "worker exited during the case"}
        if reply is None:
            reply = {"status": "timeout"}
        if reply["status"] in ("timeout", "crash"):
            self.worker.kill()
            self.worker = None
        return reply

    def close(self):
        if self.worker is not None:
            self.worker.close()
            self.worker = None


class CliRun:
    """CLI requests, each in a fresh eqsing process."""

    def __init__(self, cases, scratch):
        self.cases = cases
        self.scratch = scratch
        # a worker builds the oracle values; its start-up is the set-up time
        self.init = {"src": str(SRC), "cases": cases, "scratch": str(scratch)}
        self.oracle = None
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def respawn(self):
        """Start and stop one worker for the oracle values; its set-up seconds."""
        worker = Worker(self.init)
        worker.close()
        self.oracle = worker.oracle
        return worker.setup_s

    def close(self):
        pass

    def execute(self, i, traced):
        spec = self.cases[i]
        argv = [a.replace("{scratch}", str(self.scratch)) for a in spec["argv"]]
        spans = self.scratch / "spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY_POINT, *argv]
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=FIXTURES, env=self.env, stdout=out, stderr=err)

            def overrun():
                killed.set()
                proc.kill()

            timer = threading.Timer(spec["budget_s"], overrun)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            return {"status": "timeout"}
        reply = {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024,
                 "exit": proc.returncode}
        problem = self._check(spec, self.oracle[i], out_path.read_bytes(),
                              err_path.read_text(errors="replace"), proc.returncode)
        if problem is None and traced:
            reply["spans"] = json.loads(spans.read_text())
        reply["decided"] = proc.returncode in (0, 1)
        if problem is None:
            reply["status"] = "ok"
        else:
            reply["status"] = "error" if problem == "traceback" else "wrong"
            reply["why"] = problem
        return reply

    @staticmethod
    def _check(spec, oracle, stdout, stderr, code):
        expect = spec["expect"]
        if "Traceback" in stderr:
            return "traceback"
        if code != expect["exit"]:
            return f"exit code {code}, expected {expect['exit']}"
        if "golden" in expect and stdout != (ROOT / expect["golden"]).read_bytes():
            return f"output differs from {expect['golden']}"
        lines = dict(l.split("=", 1) for l in stdout.decode().splitlines() if "=" in l)
        wanted = dict(expect.get("lines", {}))
        if "order" in oracle:
            wanted["monodromy.order"] = str(oracle["order"])
        if "mu" in oracle:
            wanted["mu"] = str(oracle["mu"])
        for key, value in wanted.items():
            if lines.get(key) != value:
                return f"{key}={lines.get(key)}, expected {value}"
        return None


# --------------------------------------------------------------------------
# metrics


def _percentile(samples, q):
    """Nearest rank, so the value is always one measured sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _layer_values(rec):
    """Per-layer quantities of one traced execution (see README)."""
    s, t, c = rec["self_s"], rec["total_s"], rec["calls"]
    return {
        "monodromy.closure_s": s.get("monodromy.generate_group", 0.0),
        "monodromy.generate_group_s": t.get("monodromy.generate_group", 0.0),
        "monodromy.generators_s": sum(s.get(f"monodromy.{f}", 0.0) for f in GENERATOR_FNS),
        "monodromy.validate_s": t.get("monodromy.Infinite.validate", 0.0),
        "linalg.mat_mul_calls": c.get("linalg.mat_mul", 0),
        "linalg.mat_mul_s": t.get("linalg.mat_mul", 0.0),
        "linalg.charpoly_calls": c.get("linalg.charpoly", 0),
        "linalg.charpoly_s": t.get("linalg.charpoly", 0.0),
        "linalg.cyclotomic_s": t.get("linalg.strip_cyclotomic_factors", 0.0),
        "linalg.int_kernel_s": t.get("linalg.int_kernel", 0.0),
        "linalg.in_closure_s": rec["linalg_in_closure_s"],
        "action.validate_s": t.get("action.validate_action", 0.0),
        "action.validate_calls": c.get("action.validate_action", 0),
        "action.isotypic_s": t.get("action.isotypic_sublattice", 0.0),
        "action.orbits_s": t.get("action.orbit_decomposition", 0.0),
        "lattice.restrict_s": t.get("lattice.restrict", 0.0),
        "lattice.inertia_s": t.get("lattice.inertia", 0.0),
        "lattice.kernel_s": t.get("lattice.kernel_basis", 0.0),
        "diagram.parse_s": t.get("diagram.parse_file", 0.0),
        "catalog.fixture_s": t.get("catalog.fixture_file", 0.0),
        "localalg.mu_s": t.get("localalg.milnor_number", 0.0),
        "localalg.truncation_degree_sum": rec["counters"]["truncation_degree_sum"],
        "cli.import_s": rec.get("import_s", 0.0),
        "cli.main_s": t.get("cli.main", 0.0),
        "finite_order_sum": rec["counters"]["finite_order_sum"],
    }


def _case_seconds(spec, recs):
    """Median of a case's visits at reference speed, or its budget if any
    visit was not ok."""
    if all(r["status"] == "ok" for r in recs):
        return statistics.median(r["seconds"] * r["scale"] for r in recs)
    return spec["budget_s"]


def end_to_end(cases, results, setup_times, workload):
    wall, rss, latencies = 0.0, [], []
    for spec, recs in zip(cases, results):
        seconds = _case_seconds(spec, recs)
        wall += seconds
        ok = [r for r in recs if r["status"] == "ok"]
        rss += [r["rss_mb"] for r in ok]
        if len(ok) == len(recs):
            latencies.append(seconds)
    if workload != "cli":
        # A batch client asks for the whole case matrix at once: one request
        # per run.  (Percentiles over its few, very unequal cases pick one
        # small case, whose time swings far more than the total.)
        latencies = [wall]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "latency_p50_s": _percentile(latencies, 50) if latencies else None,
        "latency_p90_s": _percentile(latencies, 90) if latencies else None,
        "peak_rss_mb": max(rss) if rss else None,
        # each case weighs the same, however often it was visited
        "ok_frac": statistics.mean(
            sum(r["status"] == "ok" for r in recs) / len(recs) for recs in results),
        "decided_frac": statistics.mean(
            sum(r["status"] == "ok" and r.get("decided", False) for r in recs) / len(recs)
            for recs in results),
    }


def per_layer(results):
    totals, overhead = {}, 0.0
    for recs in results:
        traced = [r["traced"] for r in recs if r["status"] == "ok"
                  and r.get("traced", {}).get("status") == "ok"]
        if not traced:
            continue
        values = [_layer_values(t["spans"]) for t in traced]
        for key in values[0]:
            totals[key] = totals.get(key, 0) + statistics.median_low(v[key] for v in values)
        # best traced visit minus best untraced visit, in raw seconds
        overhead += (min(t["seconds"] for t in traced)
                     - min(r["seconds"] for r in recs if r["status"] == "ok"))
    closure = totals.get("monodromy.closure_s", 0.0)
    totals["monodromy.order_per_s"] = (totals.get("finite_order_sum", 0) / closure
                                       if closure else 0.0)
    totals.pop("finite_order_sum", None)
    totals["trace.overhead_s"] = overhead
    return totals


# --------------------------------------------------------------------------
# runner


def run_workload(workload, seed, seconds, trace, cases=None):
    """Run one workload and return the result object that run.py prints."""
    if not (SRC / "eqsing" / "__init__.py").is_file():
        raise BenchError(f"no eqsing sources under {SRC}")
    cases = WORKLOADS[workload] if cases is None else cases
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    rng = random.Random(seed)
    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    runner_cls = CliRun if workload == "cli" else BatchRun
    runner = None
    results = [[] for _ in cases]
    passes = 0
    spawn_probe = SpeedProbe(_spawn_seconds, SPAWN_REF_S, 0)
    # the probe for visits: a CLI request is a process start-up
    probe = (spawn_probe if workload == "cli"
             else SpeedProbe(_loop_seconds, LOOP_REF_S, PROBE_EVERY_S))
    setup_times = []
    try:
        runner = runner_cls(cases, scratch)
        spawns = 1 if trace else SETUP_SPAWNS

        def respawn():
            before = spawn_probe.reading()
            setup_times.append(runner.respawn() * spawn_probe.scale(before))

        respawn()
        start, last = time.perf_counter(), 0.0
        # whole passes only: stop before a pass that would overrun --seconds
        while passes == 0 or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            # traced runs pair each case's untraced visit with a traced one
            order = [i for i, c in enumerate(cases) for _ in range(1 if trace else c["visits"])]
            rng.shuffle(order)
            for i in order:
                # the k-th set-up is due k/spawns of the way through --seconds
                if (len(setup_times) < spawns and time.perf_counter() - start
                        >= len(setup_times) * seconds / spawns):
                    respawn()
                before = probe.reading()
                rec = runner.execute(i, traced=False)
                rec["scale"] = probe.scale(before)
                if trace and rec["status"] == "ok":
                    rec["traced"] = runner.execute(i, traced=True)
                results[i].append(rec)
            passes += 1
            last = time.perf_counter() - began
        while len(setup_times) < spawns:
            respawn()
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    probes = [spawn_probe] if probe is spawn_probe else [probe, spawn_probe]
    _report(workload, seed, passes, cases, results, setup_times, probes, trace)
    execs = [r for recs in results for rec in recs
             for r in (rec, rec.get("traced")) if r is not None]
    failed = sum(r["status"] in ("wrong", "error", "crash") for r in execs)
    if trace:
        values = per_layer(results)
    else:
        values = end_to_end(cases, results, setup_times, workload)
    missing = [k for k in units if values.get(k) is None]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}: no case completed")
    return {
        "correct": failed == 0,
        "attempted": len(execs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def _report(workload, seed, passes, cases, results, setup_times, probes, trace):
    """One line per case on stderr, for people reading the run."""
    err = sys.stderr
    print(f"perfbench {workload} seed={seed} passes={passes}", file=err)
    if not trace:
        visits = [len(recs) for recs in results]
        if workload == "cli":
            count = (f"{min(visits)}" if min(visits) == max(visits)
                     else f"{min(visits)} to {max(visits)}")
            latency = f"over {len(cases)} request kinds, each the median of its {count} visits"
        else:
            latency = "equal to wall_s (one request per run)"
        print(f"  samples: setup_s is the median of {len(setup_times)} start-ups; "
              f"latency_p50_s and latency_p90_s are {latency}", file=err)
        for probe in probes:
            print(f"  speed probe {probe.measure.__name__}: median "
                  f"{statistics.median(probe.readings) * 1000:.3f} ms over "
                  f"{len(probe.readings)} readings (reference "
                  f"{probe.reference_s * 1000:g} ms)", file=err)
    for spec, recs in zip(cases, results):
        for tag, runs in (("", recs), ("traced", [r["traced"] for r in recs if "traced" in r])):
            if not runs:
                continue
            ok = [r for r in runs if r["status"] == "ok"]
            line = f"  {spec['name']:<16} {tag:<6} ok {len(ok)}/{len(runs)}"
            if ok:
                answer = " ".join(f"{k}={ok[-1][k]}" for k in
                                  ("verdict", "order", "word", "mu", "exit") if k in ok[-1])
                if tag != "traced":
                    line += ("  median at reference speed "
                             f"{statistics.median(r['seconds'] * r['scale'] for r in ok):.4f} s")
                line += (f"  best {min(r['seconds'] for r in ok):.4f} s"
                         f"  worker peak {max(r['rss_mb'] for r in ok):.1f} MB  {answer}")
            for r in runs:
                if r["status"] == "timeout":
                    line += f"  timeout (budget {spec['budget_s']} s)"
                elif r["status"] != "ok":
                    line += f"  {r['status']}: " + r.get("why", "").strip().replace("\n", " | ")
            print(line, file=err)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
