"""padicu benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload unitary_pipeline --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer metrics of a separate traced run.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; lines
before it are informational.  The library is imported from src/ next to
this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("unitary_pipeline", "unitary_small", "formal_group", "cli_process")
MIN_TIMED_OPS = 100  # so at least ten samples lie beyond the 90th percentile
SETUP_PROBES = 9
# rounds of the fixed-size measurements: each pass of the traced run, so that its counts
# repeat exactly, and the start of the timed run that peak_rss_mb covers, so that the
# benchmark's own per-operation records weigh the same whatever the throughput
FIXED_ROUNDS = {"unitary_pipeline": 2, "unitary_small": 12, "formal_group": 3, "cli_process": 1}
CHILD_TIMEOUT_S = 60  # a CLI child still running after this is killed and its document fails


def import_padicu():
    """Import padicu from ROOT/src, or exit 1 when the checkout has none."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import padicu
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import padicu from {src}: {exc}")
    if not Path(padicu.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: padicu resolved outside {src}: {padicu.__file__}")
    return padicu


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if q < 100 else ordered[-1]


class Tally:
    def __init__(self):
        self.times = speed.Scaler()  # latencies of the operations that returned
        self.attempted = 0
        self.failed = 0  # operations that raised or gave no document
        self.wrong = 0  # operations whose output failed its check
        self.notes: list[str] = []
        self.rounds = 0

    def note(self, message: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(message)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes += other.notes


# -- in-process workloads ------------------------------------------------------------


def _distinct_steps(items):
    """The leading items of a round that together cover every step name once."""
    seen, out = set(), []
    for item in items:
        names = {name for name, _, _ in item}
        if not names <= seen:
            seen |= names
            out.append(item)
    return out


class InProcess:
    def __init__(self, workload: str, seed: int):
        import gen
        import workloads

        self.padicu = import_padicu()
        self.src = gen.Source(seed, workload)
        self.make_round = workloads.ROUNDS[workload]
        workloads.warm_up_rings(self.padicu, workload)
        # untimed warm-up, one chain per step name, on inputs of a fixed seed (so that
        # set-up costs the same for every seed) which the timed rounds never repeat
        warm = gen.Source(0, f"{workload}/warm-up")
        self.run_items(Tally(), _distinct_steps(self.make_round(self.padicu, warm)))
        self.src.seen |= warm.seen

    def run_round(self, tally: Tally) -> None:
        self.run_items(tally, self.make_round(self.padicu, self.src))
        tally.rounds += 1

    def run_items(self, tally: Tally, items) -> None:
        clock = time.perf_counter
        for item in items:
            for index, (name, call, verify) in enumerate(item):
                tally.attempted += 1
                start = clock()
                try:
                    out = call()
                except Exception as exc:  # a raising operation fails with the rest of its chain
                    skipped = len(item) - index - 1
                    tally.attempted += skipped
                    tally.failed += 1 + skipped
                    tally.note(f"{name} raised {type(exc).__name__}: {exc}")
                    break
                tally.times.add(clock() - start)
                try:
                    verify(out)
                except Exception as exc:  # a failed check, or an output the check cannot read
                    tally.wrong += 1
                    tally.note(f"{name}: {type(exc).__name__}: {exc}")
            tally.times.tick()
        tally.times.tick(force=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- CLI workload ------------------------------------------------------------------------


class CliProcess:
    """One `python -m padicu.cli COMMAND` process per document."""

    def __init__(self, workload: str, seed: int):
        import corpus
        import gen

        self.corpus = corpus
        self.src = gen.Source(seed, workload)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.child_stats: dict[str, int] = {}
        self.traced_children = False
        self.max_rss_kb = 0
        warm = gen.Source(0, f"{workload}/warm-up")
        self.run_docs(Tally(), corpus.warm_up_docs(warm))
        self.src.seen |= warm.seen
        self.max_rss_kb = 0  # the figure covers timed children only

    def _spawn(self, command: str, document: str):
        """Run one child; returns (seconds, exit code, stdout, stderr, peak RSS in KB)."""
        if self.traced_children:
            argv = [sys.executable, str(HERE / "cli_child.py"), command]
        else:
            argv = [sys.executable, "-m", "padicu.cli", command]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=ROOT, env=self.env)
        # stderr drains in a thread so that a child filling that pipe cannot block on it
        # while stdout is read; communicate() would reap the child and lose its rusage
        err_parts: list[bytes] = []
        drain = threading.Thread(target=lambda: err_parts.append(proc.stderr.read()))
        drain.start()
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        with proc.stdin:
            proc.stdin.write(document.encode())
        with proc.stdout, proc.stderr:
            out = proc.stdout.read()
            drain.join()
        _, status, usage = os.wait4(proc.pid, 0)  # reaps the child and keeps its own rusage
        elapsed = time.perf_counter() - start
        killer.cancel()
        err = err_parts[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, out.decode(), err.decode(), usage.ru_maxrss

    def run_round(self, tally: Tally) -> None:
        self.run_docs(tally, self.corpus.round_docs(self.src))
        tally.rounds += 1

    def run_docs(self, tally: Tally, docs) -> None:
        for command, document, verify in docs:
            tally.attempted += 1
            elapsed, code, out, err, rss_kb = self._spawn(command, json.dumps(document))
            tally.times.add(elapsed)
            self.max_rss_kb = max(self.max_rss_kb, rss_kb)
            if self.traced_children:
                self._absorb(err)
            lines = out.splitlines()
            tally.times.tick()
            if len(lines) != 1:
                tally.failed += 1
                tally.note(f"{command}: {len(lines)} output lines, exit {code}: {err[-300:]}")
                continue
            try:
                verify(code, json.loads(lines[0]))
            except Exception as exc:  # a failed check, or an output the check cannot read
                tally.wrong += 1
                tally.note(f"{command}: {type(exc).__name__}: {exc}")
        tally.times.tick(force=True)

    def _absorb(self, err: str) -> None:
        for line in err.splitlines():
            if line.startswith(tracing.CHILD_MARKER):
                for key, value in json.loads(line[len(tracing.CHILD_MARKER):]).items():
                    self.child_stats[key] = self.child_stats.get(key, 0) + value

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024


# -- measurement ---------------------------------------------------------------------------


def make(workload: str, seed: int):
    return (CliProcess if workload == "cli_process" else InProcess)(workload, seed)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Medians (scaled, raw) over fresh processes of the time from spawn to ready-to-time."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = speed.probe_ms()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - start)
        scaled.append(speed.scale(raw[-1], before, speed.probe_ms()))
        with proc.stdout:
            proc.stdout.read()
        proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            sys.exit(f"perfbench: setup probe failed with exit {proc.returncode}")
    return statistics.median(scaled), statistics.median(raw)


def timed_run(bench, workload: str, seconds: float) -> tuple[Tally, float]:
    """The timed rounds, and the peak RSS in MB after the first FIXED_ROUNDS of them."""
    tally = Tally()
    fixed = FIXED_ROUNDS[workload]
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or tally.times.count() < MIN_TIMED_OPS
           or tally.rounds < fixed):
        bench.run_round(tally)
        if tally.rounds == fixed:
            peak_rss_mb = bench.peak_rss_mb()
    return tally, peak_rss_mb


def timing_metrics(lat: list[float]) -> dict:
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float):
    setup_s, setup_raw = measure_setup(workload, seed)
    bench = make(workload, seed)
    tally, peak_rss_mb = timed_run(bench, workload, seconds)
    times = tally.times
    print(f"rounds {tally.rounds}, timed operations {len(times.scaled)}; spectral inputs drawn "
          f"{bench.src.drawn}, filtered for residue degree > 4: {bench.src.filtered}")
    print(f"probe_ms median {statistics.median(times.readings):.3f} "
          f"min {min(times.readings):.3f} max {max(times.readings):.3f} "
          f"(reference {speed.REFERENCE_MS})")
    raw = {"setup_s": setup_raw, **{k: v for k, (v, _) in timing_metrics(times.raw).items()}}
    print("raw " + " ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    metrics = {
        "setup_s": (setup_s, "s"),
        **timing_metrics(times.scaled),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally, metrics


def per_layer(workload: str, seed: int):
    bench = make(workload, seed)
    rounds = FIXED_ROUNDS[workload]
    plain = Tally()
    for _ in range(rounds):
        bench.run_round(plain)
    recorder = tracing.Recorder()
    if isinstance(bench, CliProcess):
        bench.traced_children = True
    else:
        for name, where in tracing.install(recorder).items():
            print(f"wrapped {name} in {', '.join(w.removeprefix('padicu.') for w in where)}")
    traced = Tally()
    for _ in range(rounds):
        bench.run_round(traced)
    plain_rate = len(plain.times.scaled) / sum(plain.times.scaled)
    traced_rate = len(traced.times.scaled) / sum(traced.times.scaled)
    print(f"untraced ops_per_s {plain_rate:.4f}, traced ops_per_s {traced_rate:.4f} over {rounds} rounds each")
    totals = bench.child_stats if isinstance(bench, CliProcess) else recorder.as_totals()
    metrics = {}
    for name, unit, _ in tracing.metric_names():
        if name == "trace.ops_per_s":
            value = traced_rate
        elif name == "trace.overhead_pct":
            value = (plain_rate / traced_rate - 1) * 100
        else:
            value = totals.get(name, 0) / rounds
        metrics[name] = (value, unit)
    plain.add(traced)
    return plain, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if not args.setup_probe:
        # byte-compile as an installed package is, whatever PYTHONDONTWRITEBYTECODE says,
        # so that every process of every workload loads the same kind of module; in a
        # child, before padicu is imported here, so that compiling does not count in this
        # process's peak RSS (a missing src/padicu fails in import_padicu below)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "padicu"),
                        str(HERE)], cwd=ROOT)
    import_padicu()  # exits 1 before any measurement when the checkout has no src/padicu
    if args.setup_probe:
        make(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "cli_process":
        # the speed probe runs here and the work in child processes: keep both on one CPU,
        # whose speed is what the probe reads (children inherit the affinity)
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError as exc:
            print(f"not pinned to one CPU: {exc}")
    if args.trace:
        tally, metrics = per_layer(args.workload, args.seed)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for message in tally.notes:
        print(f"error: {message}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
