"""The three workloads: verify-all, orbit-tall and cli-cold.

Each is a closed loop with one client: the next operation starts when
the previous one has finished, in one process with at most one child
process at a time.  Each workload function takes a ``Context`` and the
benchmark directory and returns an ``Outcome``: the end-to-end metrics
when ``ctx.trace`` is false, the per-layer ones when it is true.  Output
checks run outside the timed regions.
"""
from __future__ import annotations

import compileall
import gc
import hashlib
import heapq
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

import inputs
from tracer import (LAYER_TARGETS, PACKAGE, ROOT_SPAN, SUITE_NAMES, TRACE_MARK,
                    VERIFY_TARGETS, Tracer)

SETUPS = 3             # set-ups before the first timed operation
SETUP_SHARE = 0.1      # then set-ups between operations, for up to this share of their time
PROBE_INTERVAL = 0.02  # seconds between speed samples during an in-process operation
PROBE_SHARE = 0.1      # speed-sampling time per unit of time of a CLI call, after it
PROBE_NEAR = 4         # fewest speed samples an operation is divided by
MIN_PASSES = 3         # timed passes per run even when one pass outlasts --seconds
CALL_TIMEOUT_S = 60


@dataclass
class Context:
    root: Path          # checkout root, holding src/pvi_moduli
    seed: int
    seconds: float
    trace: bool
    out_dir: Path       # where traces and generated files go


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)    # name -> (value, unit)
    notes: list = field(default_factory=list)      # human-readable lines
    problems: list = field(default_factory=list)   # first failures, for the log

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def unload_package() -> None:
    """Drop every loaded pvi_moduli module and free it, so the next import
    starts cold and repeated set-ups do not raise the peak RSS."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()


def import_module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def timed_loop(seconds: float, minimum: int):
    """Indices 0, 1, ... until `seconds` have passed and `minimum` were given."""
    start = perf_counter()
    i = 0
    while i < minimum or perf_counter() - start < seconds:
        yield i
        i += 1


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def sha256(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def load_expected(bench_dir: Path) -> dict:
    with open(bench_dir / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# Times are reported relative to a short reference loop that is timed
# while each operation runs or, for a CLI call, right after it.  On a
# shared host the speed of one core swings by up to 2x from one second to
# the next and drifts over minutes (measured on a 2-vCPU x86_64 VM: a loop
# of small Fraction operations took 8 ms in one second and 15 ms in the
# next, and a 30 s run's median verify-all pass ranged from 1.9 to 3.0 s
# across runs).  Dividing each operation by the loop's time in the same
# moments cancels most of that swing.  The loops do not touch pvi_moduli; each
# does the kind of arithmetic its workload spends its time on.
_PROBE_A = 3 ** 12000
_PROBE_B = 7 ** 10000 + 1


def small_fraction_loop() -> None:
    """About 600 small Fraction operations, as in verify-all and the CLI."""
    acc = Fraction(0)
    for i in range(150):
        acc = (acc + Fraction(i % 17 + 1, i % 13 + 2)) * Fraction(i % 7 + 1, i % 11 + 3)
        if i % 8 == 7:
            acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)


def big_int_loop() -> None:
    """A product and a gcd of integers of about 20k-50k bits, as in orbit-tall."""
    gcd(_PROBE_A * _PROBE_B + 1, _PROBE_A + _PROBE_B)


# Each loop's median time on the host the benchmark was written on (a
# 2-vCPU x86_64 VM, Python 3.11.7); setup_s is reported at this speed.
NOMINAL_S = {small_fraction_loop: 0.00115, big_int_loop: 0.0030}


class SpeedProbe:
    """Samples the host's speed by timing a reference loop.

    `timed(op, log)` runs op() and appends (start, end, seconds) to `log`.
    An in-process operation is sampled while it runs, by a SIGALRM timer
    every PROBE_INTERVAL seconds, and its seconds exclude the sampling.  An
    operation that waits for a child process (`in_process` false) is
    sampled right after it ends, for PROBE_SHARE of its time, so that no
    sample competes with the child for a core.  `ratios(log)` divides each
    operation by the mean of the samples taken during it or, when fewer
    than PROBE_NEAR were, by the mean of the PROBE_NEAR nearest in time.
    """

    def __init__(self, loop, in_process: bool):
        self.loop = loop
        self.nominal_s = NOMINAL_S[loop]
        self.in_process = in_process
        self.samples = []   # (start, seconds)

    def sample(self) -> float:
        t0 = perf_counter()
        self.loop()
        dt = perf_counter() - t0
        self.samples.append((t0, dt))
        return dt

    def timed(self, op, log: list):
        """(seconds, value) of op()."""
        n = len(self.samples)
        if self.in_process:
            old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        t0 = perf_counter()
        try:
            value = op()
            t1 = perf_counter()
        finally:
            if self.in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        seconds = t1 - t0 - sum(dt for start, dt in self.samples[n:] if start < t1)
        log.append((t0, t1, seconds))
        owed = 0.0 if self.in_process else PROBE_SHARE * seconds
        while owed > 0:
            owed -= self.sample()
        return seconds, value

    def ratios(self, log):
        out = []
        for start, end, seconds in log:
            near = [dt for t, dt in self.samples if start <= t < end]
            if len(near) < PROBE_NEAR:
                near = [dt for t, dt in heapq.nsmallest(
                    PROBE_NEAR, self.samples,
                    key=lambda x: start - x[0] - x[1] if x[0] < start else x[0] - end)]
            out.append(seconds / statistics.mean(near))
        return out


class Setups:
    """A workload's set-up, repeated: SETUPS times before the first timed
    operation and, in an untraced run, again between operations for up to
    SETUP_SHARE of their time.  Each starts from an unloaded package.
    `step()` returns the set-up's value; the operations use the latest.
    setup_s is the median set-up relative to the probe, at the loop's
    nominal speed."""

    def __init__(self, step, probe: SpeedProbe, trace: bool):
        self.step = step
        self.probe = probe
        self.share = 0.0 if trace else SETUP_SHARE
        self.log = []
        self.value = None
        self._owed = 0.0
        for _ in range(SETUPS):
            self._once()

    def _once(self) -> float:
        self.value = None   # lets unload_package free the previous set-up
        unload_package()
        dt, self.value = self.probe.timed(self.step, self.log)
        return dt

    def after(self, op_seconds: float) -> None:
        """At most one set-up after each operation."""
        self._owed += self.share * op_seconds
        if self._owed > 0:
            self._owed -= self._once()

    def seconds(self) -> float:
        return statistics.median(self.probe.ratios(self.log)) * self.probe.nominal_s


def end_to_end(out: Outcome, setup: Setups, ops: list, rss_mb: float) -> None:
    """The end-to-end metrics from the set-ups and the logged operations."""
    probe = setup.probe
    out.metric("setup_s", setup.seconds(), "s")
    out.metric("op_ref.p50", statistics.median(probe.ratios(ops)), "ref")
    out.metric("peak_rss_mb", rss_mb, "MB")
    out.metric("success_ratio", (out.attempted - out.failed) / out.attempted, "ratio")
    out.notes.append(
        "set-ups %d, raw median %.4f s; timed operations %d; reference loop %.3f ms "
        "(median of %d samples)" % (len(setup.log), statistics.median(t for *_, t in setup.log),
                                    len(ops), 1e3 * statistics.median(t for _, t in probe.samples),
                                    len(probe.samples)))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for _, _, span in LAYER_TARGETS:
        names += [(f"{span}.calls", "count"), (f"{span}.busy_s", "s"),
                  (f"{span}.self_s", "s"), (f"{span}.errors", "count")]
    for s in SUITE_NAMES:
        names += [(f"verify.suite_{s}.self_s", "s"), (f"verify.{s}.checks", "count"),
                  (f"verify.{s}.rejections", "count"), (f"suite.{s}_s", "s")]
    names += [("fraction.ops", "count"), ("fraction.max_bits", "bits"),
              ("sampling.accept_ratio", "ratio"),
              ("cli.interp_s", "s"), ("cli.import_s", "s"), ("cli.work_ms", "ms"),
              ("cli_ms.p50", "ms"), ("cli_ms.p90", "ms"), ("orbit.end_bits", "bits"),
              ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
              ("trace.spans", "count")]
    return names


def _snapshot(tracer: Tracer, wall_s: float, reports=None):
    """(exact counts, times) of one traced pass."""
    counts, times = {}, {}
    spans = [(span, tracer.stats.get(span, (0, 0.0, 0.0, 0))) for _, _, span in LAYER_TARGETS]
    for span, (calls, busy, self_s, errors) in spans:
        counts[f"{span}.calls"] = calls
        counts[f"{span}.errors"] = errors
        times[f"{span}.busy_s"] = busy
        times[f"{span}.self_s"] = self_s
    for s in SUITE_NAMES:
        times[f"verify.suite_{s}.self_s"] = tracer.stats.get(f"verify.suite_{s}", (0, 0.0, 0.0))[2]
    for r in reports or ():
        counts[f"verify.{r.suite}.checks"] = len(r.checks)
        counts[f"verify.{r.suite}.rejections"] = r.rejections
    counts["fraction.ops"] = tracer.fraction_ops
    counts["fraction.max_bits"] = tracer.fraction_max_bits
    counts["sample_attempts"] = tracer.sample_attempts
    counts["sample_accepts"] = tracer.sample_accepts
    counts["trace.spans"] = len(tracer.spans)
    times["wall_s"] = wall_s
    # the time no package span covers: the self time of the root span
    times["trace.unattributed_s"] = tracer.stats.get(ROOT_SPAN, (0, 0.0, 0.0))[2]
    return counts, times


def _merge_snapshots(out: Outcome, snaps, extra) -> None:
    """Per-layer metrics: the exact counts, which must repeat across passes,
    and the median of each time."""
    first = snaps[0][0]
    for counts, _ in snaps[1:]:
        if counts != first:
            changed = sorted(k for k in first if counts.get(k) != first[k])
            out.fail(f"exact counts differ between traced passes: {changed[:5]}")
    values = dict(first)
    for key in snaps[0][1]:
        values[key] = statistics.median(t[key] for _, t in snaps)
    attempts = values.pop("sample_attempts")
    accepts = values.pop("sample_accepts")
    values["sampling.accept_ratio"] = accepts / attempts if attempts else 0.0
    values.update(extra)
    for name, unit in per_layer_names():
        out.metric(name, values.get(name, 0), unit)


def _write_trace(ctx: Context, workload: str, spans) -> Path:
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    path = ctx.out_dir / f"trace-{workload}-seed{ctx.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    return path


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def reports_digest(reports) -> str:
    """sha256 of the stdout `pvi verify` prints for these reports."""
    payload = {"reports": [r.to_json_dict() for r in reports],
               "passed": all(r.passed for r in reports)}
    return sha256(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check_reports(reports, expected_digest: str):
    """None when every report passed and the JSON matches the recording."""
    failing = [r.suite for r in reports if not r.passed]
    if failing:
        return f"reports not passed: {failing}"
    if reports_digest(reports) != expected_digest:
        return "report JSON differs from the recorded digest"
    return None


def _verify_pass(verify, suite_seed: int, out: Outcome):
    """One run_suite("all") pass; returns the reports, or None when it raised."""
    out.attempted += 1
    try:
        return verify.run_suite("all", seed=suite_seed, samples=inputs.SAMPLES,
                                bound=inputs.BOUND)
    except Exception as exc:  # any exception is a failed operation
        out.fail(f"suite seed {suite_seed}: {type(exc).__name__}: {exc}")
        return None


def _suite_timed_pass(verify, suite_seed: int, out: Outcome, per_suite: dict):
    """_verify_pass, appending each suite's time to `per_suite`; the times
    come from a Tracer of the verify suites alone."""
    tracer = Tracer()
    tracer.install(VERIFY_TARGETS)
    try:
        reports = _verify_pass(verify, suite_seed, out)
    finally:
        tracer.uninstall()
    if reports:
        for s in SUITE_NAMES:
            per_suite[s].append(tracer.stats[f"verify.suite_{s}"][1])
    return reports


def _verify_check(reports, suite_seed: int, expected: dict, out: Outcome) -> None:
    problem = check_reports(reports, expected[str(suite_seed)])
    if problem:
        out.fail(f"suite seed {suite_seed}: {problem}")


def _verify_setup(suite_seed: int):
    """Import of the package and a samples=2 warm-up pass."""
    verify = import_module("verify")
    if tuple(verify.SUITES) != SUITE_NAMES:
        raise RuntimeError(f"verify.SUITES is {tuple(verify.SUITES)}, expected {SUITE_NAMES}")
    verify.run_suite("all", seed=suite_seed, samples=2, bound=inputs.BOUND)
    return verify


def verify_all(ctx: Context, bench_dir: Path) -> Outcome:
    out = Outcome()
    expected = load_expected(bench_dir)["verify"]
    suite_seed = inputs.verify_suite_seed(ctx.seed)
    probe = SpeedProbe(small_fraction_loop, in_process=True)
    setup = Setups(lambda: _verify_setup(suite_seed), probe, ctx.trace)

    if not ctx.trace:
        times, ops = [], []
        for _ in timed_loop(ctx.seconds, MIN_PASSES):
            dt, reports = probe.timed(lambda: _verify_pass(setup.value, suite_seed, out), ops)
            if reports:
                _verify_check(reports, suite_seed, expected, out)
                times.append(dt)
            reports = None   # so that a set-up can free the modules it unloads
            setup.after(dt)
        end_to_end(out, setup, ops, peak_rss_mb())
        out.notes.append("verify_s %.4f s (median of %d passes, suite seed %d)"
                         % (statistics.median(times), len(times), suite_seed))
        return out

    # Traced run: untraced passes first, which also give each suite's time,
    # then traced ones.
    verify = setup.value
    start = perf_counter()
    base, per_suite = [], {s: [] for s in SUITE_NAMES}
    for _ in range(2):
        t0 = perf_counter()
        reports = _suite_timed_pass(verify, suite_seed, out, per_suite)
        dt = perf_counter() - t0
        if reports:
            _verify_check(reports, suite_seed, expected, out)
            base.append(dt)
    tracer = Tracer()
    tracer.count_fractions()
    tracer.count_samples()
    tracer.install(LAYER_TARGETS + VERIFY_TARGETS)
    snaps = []
    try:
        for _ in timed_loop(ctx.seconds - (perf_counter() - start), 2):
            tracer.reset()
            t0 = perf_counter()
            with tracer.span(ROOT_SPAN):
                reports = _verify_pass(verify, suite_seed, out)
            wall = perf_counter() - t0
            if reports:
                snaps.append(_snapshot(tracer, wall, reports))
                _verify_check(reports, suite_seed, expected, out)
    finally:
        tracer.uninstall()
    traced = statistics.median(t["wall_s"] for _, t in snaps)
    extra = {f"suite.{s}_s": statistics.median(v) for s, v in per_suite.items()}
    extra["trace.overhead_s"] = traced - statistics.median(base)
    _merge_snapshots(out, snaps, extra)
    path = _write_trace(ctx, "verify-all", tracer.spans)
    out.notes.append(f"suite seed {suite_seed}: {len(base)} untraced and {len(snaps)} traced "
                     f"passes; spans of the last traced pass in {path}")
    return out


# ---------------------------------------------------------------------------
# orbit-tall
# ---------------------------------------------------------------------------

def _orbit_pass(bk, states, out: Outcome):
    """Iterate WORD_SHIFT_12 from each state; returns the endpoints, with
    None in place of an orbit that raised."""
    ends = []
    for s in states:
        out.attempted += 1
        try:
            for _ in range(inputs.ORBIT_STEPS):
                s = bk.apply_word(bk.WORD_SHIFT_12, s)
        except Exception as exc:  # any exception is a failed operation
            out.fail(f"orbit raised {type(exc).__name__}: {exc}")
            s = None
        ends.append(s)
    return ends


def _orbit_values(end):
    """An endpoint as plain values, comparable across fresh imports."""
    return None if end is None else (end.t, end.kappa.all4, end.q, end.p)


class OrbitChecker:
    """Checks endpoints: kappa shifted by (N, N, 0, 0), the closed-form
    Schlesinger composite equal to its word at the endpoint (once per run),
    and every later pass ending where the first did."""

    def __init__(self):
        self.reference = None

    def check(self, bk, states, ends, out: Outcome) -> None:
        values = [_orbit_values(e) for e in ends]
        if self.reference is not None:
            for ref, end in zip(self.reference, values):
                if end is not None and end != ref:
                    out.fail("orbit endpoint differs from the first pass")
            return
        self.reference = values
        n = inputs.ORBIT_STEPS
        for start, end in zip(states, ends):
            if end is None:
                continue
            k = start.kappa
            if end.kappa.all4 != (k.k1 + n, k.k2 + n, k.k3, k.k4):
                out.fail("orbit endpoint kappa is not (k1+N, k2+N, k3, k4)")
            elif bk.schlesinger_composite_qp(end) != bk.apply_word(bk.WORD_SCHLESINGER, end):
                out.fail("closed-form Schlesinger composite differs from its word at the endpoint")

    def end_bits(self) -> int:
        return max(max(x.numerator.bit_length(), x.denominator.bit_length())
                   for v in self.reference if v is not None for x in (v[2], v[3]))


def _orbit_setup(seed: int):
    """Import of the package, the starting states and a short warm-up."""
    bk = import_module("backlund")
    states = [bk.SymState.make(t, kappa, q, p) for t, kappa, q, p in inputs.orbit_states(seed)]
    for s in states:
        for _ in range(inputs.ORBIT_WARMUP_STEPS):
            s = bk.apply_word(bk.WORD_SHIFT_12, s)
    return bk, states


def orbit_tall(ctx: Context, bench_dir: Path) -> Outcome:
    out = Outcome()
    probe = SpeedProbe(big_int_loop, in_process=True)
    setup = Setups(lambda: _orbit_setup(ctx.seed), probe, ctx.trace)
    checker = OrbitChecker()

    if not ctx.trace:
        times, ops = [], []
        for _ in timed_loop(ctx.seconds, MIN_PASSES):
            dt, ends = probe.timed(lambda: _orbit_pass(*setup.value, out), ops)
            times.append(dt)
            checker.check(*setup.value, ends, out)
            ends = None   # so that a set-up can free the modules it unloads
            setup.after(dt)
        end_to_end(out, setup, ops, peak_rss_mb())
        out.notes.append("orbit_s %.4f s (median of %d passes of %d orbits x %d steps), "
                         "endpoints up to %d bits" % (statistics.median(times), len(times),
                                                      inputs.ORBIT_STATES, inputs.ORBIT_STEPS,
                                                      checker.end_bits()))
        return out

    bk, states = setup.value
    start = perf_counter()
    base = []
    for _ in range(2):
        t0 = perf_counter()
        ends = _orbit_pass(bk, states, out)
        base.append(perf_counter() - t0)
        checker.check(bk, states, ends, out)
    tracer = Tracer()
    tracer.count_fractions()
    tracer.install(LAYER_TARGETS)
    snaps = []
    try:
        for _ in timed_loop(ctx.seconds - (perf_counter() - start), 2):
            tracer.reset()
            t0 = perf_counter()
            with tracer.span(ROOT_SPAN):
                ends = _orbit_pass(bk, states, out)
            snaps.append(_snapshot(tracer, perf_counter() - t0))
            checker.check(bk, states, ends, out)
    finally:
        tracer.uninstall()
    extra = {"orbit.end_bits": checker.end_bits(),
             "trace.overhead_s": statistics.median(t["wall_s"] for _, t in snaps)
             - statistics.median(base)}
    _merge_snapshots(out, snaps, extra)
    path = _write_trace(ctx, "orbit-tall", tracer.spans)
    out.notes.append(f"{len(base)} untraced and {len(snaps)} traced passes; "
                     f"spans of the last traced pass in {path}")
    return out


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

class CliRunner:
    """Runs CLI queries as fresh child processes, one at a time, and checks
    each exit code and stdout against the recording."""

    def __init__(self, ctx: Context, bench_dir: Path, expected: list, queries: list):
        self.ctx = ctx
        self.bench_dir = bench_dir
        self.expected = expected
        self.queries = queries
        env = dict(os.environ)
        src = str(ctx.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=self.ctx.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CALL_TIMEOUT_S)
        return perf_counter() - t0, proc

    def call(self, index: int, out: Outcome, traced: bool = False):
        """Query `index`; returns (seconds, trace dict or None), or None on failure."""
        argv = self.queries[index]
        prefix = ([sys.executable, str(self.bench_dir / "clitrace.py")] if traced
                  else [sys.executable, "-m", f"{PACKAGE}.cli"])
        out.attempted += 1
        try:
            dt, proc = self.run(prefix + argv)
        except subprocess.TimeoutExpired:
            out.fail(f"{' '.join(argv)}: no exit within {CALL_TIMEOUT_S} s")
            return None
        want = self.expected[index]
        if proc.returncode != want["exit"] or sha256(proc.stdout) != want["stdout_sha256"]:
            out.fail(f"{' '.join(argv)}: exit {proc.returncode}, stdout differs from the "
                     f"recording or the exit code does: {proc.stderr.decode()[-300:]}")
            return None
        trace = None
        if traced:
            lines = [ln for ln in proc.stderr.decode().splitlines() if ln.startswith(TRACE_MARK)]
            if not lines:
                out.fail(f"{' '.join(argv)}: traced child printed no trace")
                return None
            trace = json.loads(lines[-1][len(TRACE_MARK):])
        return dt, trace


def cli_setup(ctx: Context, bench_dir: Path):
    index = ctx.seed % inputs.POOL
    files, queries = inputs.cli_inputs(index)
    work = ctx.out_dir / f"cli-{index}"
    work.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    rel = os.path.relpath(work, ctx.root)
    compileall.compile_dir(str(ctx.root / "src" / PACKAGE), quiet=1)
    return index, queries, [[a.replace("{dir}", rel) for a in q] for q in queries]


def _cli_cold_setup(ctx: Context, bench_dir: Path, recorded: dict, out: Outcome):
    """Input files, the bytecode cache and one warm-up call."""
    index, templates, queries = cli_setup(ctx, bench_dir)
    expected = recorded[str(index)]
    if [e["argv"] for e in expected] != templates:
        raise RuntimeError(f"cli-cold inputs of set {index} differ from expected.json")
    runner = CliRunner(ctx, bench_dir, expected, queries)
    runner.call(0, out)
    return index, runner


def cli_cold(ctx: Context, bench_dir: Path) -> Outcome:
    out = Outcome()
    recorded = load_expected(bench_dir)["cli"]
    probe = SpeedProbe(small_fraction_loop, in_process=False)
    setup = Setups(lambda: _cli_cold_setup(ctx, bench_dir, recorded, out), probe, ctx.trace)
    index, runner = setup.value
    n = len(runner.queries)

    if not ctx.trace:
        lat, ops = [], []
        for i in timed_loop(ctx.seconds, 2 * n):
            dt, done = probe.timed(lambda: runner.call(i % n, out), ops)
            if done:
                lat.append(dt)
            setup.after(dt)
        end_to_end(out, setup, ops, peak_rss_mb(resource.RUSAGE_CHILDREN))
        out.notes.append("cli_ms.p50 %.2f ms, cli_ms.p90 %.2f ms (%d calls over %d queries, "
                         "input set %d)" % (1e3 * statistics.median(lat), 1e3 * p90(lat),
                                            len(lat), n, index))
        return out

    start = perf_counter()
    interp = [runner.run([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    imported = [runner.run([sys.executable, "-c", f"import {PACKAGE}.cli"])[0] for _ in range(5)]
    lat = {q: [] for q in range(n)}
    for i in timed_loop(ctx.seconds / 2, 2 * n):
        done = runner.call(i % n, out)
        if done:
            lat[i % n].append(done[0])
    snaps, traced_lat = [], {q: [] for q in range(n)}
    for _ in timed_loop(ctx.seconds - (perf_counter() - start), 2):
        cycle = Tracer()
        wall = 0.0
        for q in range(n):
            done = runner.call(q, out, traced=True)
            if done:
                traced_lat[q].append(done[0])
                _add_child_trace(cycle, done[1])
                wall += done[1]["wall_s"]
        snaps.append(_snapshot(cycle, wall))
    every = [v for vs in lat.values() for v in vs]
    interp_s = statistics.median(interp)
    import_s = statistics.median(imported)
    extra = {"cli.interp_s": interp_s, "cli.import_s": import_s - interp_s,
             "cli.work_ms": 1e3 * (statistics.median(every) - import_s),
             "cli_ms.p50": 1e3 * statistics.median(every), "cli_ms.p90": 1e3 * p90(every),
             "trace.overhead_s": sum(statistics.median(v) for v in traced_lat.values() if v)
             - sum(statistics.median(v) for v in lat.values() if v)}
    _merge_snapshots(out, snaps, extra)
    path = _write_trace(ctx, "cli-cold", cycle.spans)
    out.notes.append(f"{len(every)} untraced calls, {len(snaps)} traced cycles of {n} queries; "
                     f"spans of the last traced cycle in {path}")
    return out


def _add_child_trace(total: Tracer, child: dict) -> None:
    """Add one traced child's counts, times and spans into `total`."""
    for name, st in child["stats"].items():
        acc = total.stats.setdefault(name, [0, 0.0, 0.0, 0])
        for k in range(4):
            acc[k] += st[k]
    total.fraction_ops += child["fraction_ops"]
    total.fraction_max_bits = max(total.fraction_max_bits, child["fraction_max_bits"])
    total.sample_attempts += child["sample_attempts"]
    total.sample_accepts += child["sample_accepts"]
    offset = len(total.spans)
    total.spans.extend([name, start, end, parent + offset if parent >= 0 else -1]
                       for name, start, end, parent in child["spans"])


WORKLOADS = {"verify-all": verify_all, "orbit-tall": orbit_tall, "cli-cold": cli_cold}
