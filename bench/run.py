"""Benchmark harness for the savanna CLI.

Run from the repository root:

    python3 bench/run.py --workload floquet_orbits --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One single-threaded process calls ``savanna.cli.main(argv)`` in a closed
loop: the next command starts when the last has returned.  Commands come in
a fixed set of seeded groups (see ``workloads.py``).  The first command runs
once untimed as warm-up; then every group runs once, in order, and the set is
cycled again, a whole group at a time, until the commands have taken
``--seconds``.  Outputs go to a temporary directory under ``.bench_build/``.
The first output of each command is checked after the timed loop; every
other execution must write the same bytes and its files are deleted at once.
``attempted`` and ``failed`` count distinct commands, so for one seed they do
not depend on how fast the machine ran.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1`` runs
every command twice, plain and with timing spans around the layer functions
(``spans.py``), reports the per-layer metrics and the tracing overhead, and
re-runs the first command to assert that its exact work counters repeat.

Every run writes a results file with the generated argv, per-command
latencies, outcomes and counters, and the machine (nproc, Python, numpy) to
``.bench_build/bench/results/``.  The last line on stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"

WORKLOADS = ("floquet_orbits", "threshold_sweep", "trajectory", "rho_tg_sweep")

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_s_p50": "s",
    "peak_rss_mb": "MB",
}
# what one unit of work_per_s is on each workload
THROUGHPUT = {
    "floquet_orbits": ("orbits_per_s", "orbits/s", "converged, checked orbits per second"),
    "threshold_sweep": ("cells_per_s", "cells/s", "sweep cells written per second"),
    "rho_tg_sweep": ("cells_per_s", "cells/s", "sweep cells written per second"),
    "trajectory": ("steps_per_s", "steps/s", "integration steps written per second"),
}
PER_LAYER = {
    "floquet.floquet_report.s": "s",
    "floquet.locate_savanna_orbit.self_s": "s",
    "floquet.fp_iterations": "count",
    "floquet.newton_iterations": "count",
    "floquet.period_maps": "count",
    "floquet.s_per_period_map": "s",
    "floquet.monodromy.calls": "count",
    "floquet.monodromy.s": "s",
    "floquet.cubic_eigenvalues.calls": "count",
    "floquet.cubic_eigenvalues.s": "s",
    "floquet.grassland_agreement.s": "s",
    "floquet.converged_frac": "frac",
    "sweep.scan.self_s": "s",
    "sweep.cells": "count",
    "sweep.defined_frac": "frac",
    "sweep.s_per_cell": "s",
    "sweep.level_curve.s": "s",
    "sweep.to_csv.s": "s",
    "thresholds.compute_thresholds.calls": "count",
    "thresholds.compute_thresholds.s": "s",
    "thresholds.critical_values.calls": "count",
    "thresholds.critical_values.s": "s",
    "integrate.simulate.s": "s",
    "integrate.steps": "count",
    "integrate.s_per_step": "s",
    "integrate.to_csv.s": "s",
    "model.require_valid.calls": "count",
    "model.require_valid.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "frac",
}

SETUP_REPEATS = 5           # fresh interpreters per setup_s measurement
COMMAND_TIMEOUT_S = 60      # a command still running after this counts as failed
NUMERICAL_ERROR = 3         # CLI exit code for a numerical failure it reports itself


class SourceTreeMissing(RuntimeError):
    pass


def use_source_tree() -> None:
    """Import savanna from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "savanna" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no savanna sources under {SRC}")
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout


@dataclass
class Execution:
    batch: int              # groups the run had started before this one; -1 for warm-up
    group: int              # index of the group in the generated list
    index: int              # index of the command in its group
    latency_s: float
    exit: int | None        # None when the command raised or timed out
    error: str
    out: str
    curves: str
    output_bytes: int = 0
    digest: str = ""
    run_id: int = -1

    @property
    def key(self) -> tuple[int, int]:
        return self.group, self.index

    def files(self):
        return [Path(p) for p in (self.out, self.curves) if Path(p).exists()]


def _execute(main, cmd, tmp: Path, batch: int, group: int, index: int, tag: str = "") -> Execution:
    """Run one command through ``main`` under a deadline; never raises."""
    stem = tmp / f"{batch}-{index}{tag}"
    out, curves = f"{stem}.out", f"{stem}.curves"
    argv = cmd.argv_for(out, curves)
    err = io.StringIO()
    code, error = None, ""
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except CommandTimeout:
        error = f"timed out after {COMMAND_TIMEOUT_S} s"
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        error = f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = perf_counter() - start
    e = Execution(batch, group, index, latency, code, error or err.getvalue().strip(), out, curves)
    h = hashlib.sha256()
    for path in e.files():
        data = path.read_bytes()
        e.output_bytes += len(data)
        h.update(data)
    e.digest = h.hexdigest()
    return e


class Outputs:
    """The files of each command's first completed execution, kept for the
    checks.  Every other execution of the command must write the same bytes;
    its files are deleted at once."""

    def __init__(self):
        self.first: dict[tuple[int, int], Execution] = {}
        self.digests: dict[tuple[int, int], str] = {}
        self.errors: list[str] = []

    def add(self, e: Execution, keep: bool = True) -> None:
        if e.exit != 0:
            return
        if self.digests.setdefault(e.key, e.digest) != e.digest:
            self.errors.append(f"group {e.group} command {e.index}: "
                               "outputs differ between executions")
        if keep and e.key not in self.first:
            self.first[e.key] = e
        else:
            for path in e.files():
                path.unlink()


def _run_groups(groups, seconds, run_group) -> float:
    """Run every group once, in order, then cycle through them again until
    the commands have taken ``seconds``; returns the time they took."""
    spent, g = 0.0, 0
    while g < len(groups) or spent < seconds:
        spent += run_group(g % len(groups), groups[g % len(groups)], g)
        g += 1
    return spent


def _check(workload, groups, outputs: Outputs, execs) -> dict:
    """One outcome per generated command.  Every group has run at least once;
    a command fails if any of its executions failed or its kept output fails
    the workload's check."""
    from workloads import Outcome, check_group

    outcomes = {}
    for gi, group in enumerate(groups):
        kept = [outputs.first.get((gi, i)) for i in range(len(group))]
        try:
            got = check_group(workload, group, [k.out if k else None for k in kept],
                              [k.curves if k else "" for k in kept])
        except Exception as exc:  # a malformed output fails its group, the run goes on
            got = [Outcome(False, reason=f"check raised {exc!r}")] * len(group)
        for i, o in enumerate(got):
            outcomes[(gi, i)] = o
    for e in execs:
        o = outcomes[e.key]
        if e.exit != 0 and (o is None or o.ok):
            outcomes[e.key] = Outcome(False, reason=f"exit {e.exit}: {e.error}",
                                      known=e.exit == NUMERICAL_ERROR)
    return outcomes


def measure_setup(workload: str, seed: int, size: str) -> float:
    """Median wall time of fresh interpreters that import savanna.cli and
    generate this run's inputs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            "import savanna.cli, workloads; "
            f"workloads.generate({workload!r}, {seed}, workloads.SIZES[{size!r}])")
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdin=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def _layer_metrics(tracer, run_ids, c, pairs) -> dict[str, float]:
    """Per-layer values from the spans of ``run_ids`` and their summed work
    counters ``c``; the overhead uses every plain/traced pair."""
    t = tracer.totals(run_ids)

    def ratio(a, b):
        return a / b if b else 0.0

    locate = t["floquet.locate_savanna_orbit"]
    scan = t["sweep.scan"]
    return {
        "floquet.floquet_report.s": t["floquet.floquet_report"]["s"],
        "floquet.locate_savanna_orbit.self_s": locate["self_s"],
        "floquet.fp_iterations": c.get("fp_iterations", 0),
        "floquet.newton_iterations": c.get("newton_iterations", 0),
        "floquet.period_maps": c.get("period_maps", 0),
        "floquet.s_per_period_map": ratio(locate["self_s"], c.get("period_maps", 0)),
        "floquet.monodromy.calls": t["floquet.monodromy"]["calls"],
        "floquet.monodromy.s": t["floquet.monodromy"]["s"],
        "floquet.cubic_eigenvalues.calls": t["floquet.cubic_eigenvalues"]["calls"],
        "floquet.cubic_eigenvalues.s": t["floquet.cubic_eigenvalues"]["s"],
        "floquet.grassland_agreement.s": t["floquet.grassland_agreement"]["s"],
        "floquet.converged_frac": ratio(c.get("converged_orbits", 0), locate["calls"]),
        "sweep.scan.self_s": scan["self_s"],
        "sweep.cells": c.get("cells", 0),
        "sweep.defined_frac": ratio(c.get("defined_cells", 0), c.get("cells", 0)),
        "sweep.s_per_cell": ratio(scan["s"], c.get("cells", 0)),
        "sweep.level_curve.s": t["sweep.level_curve"]["s"],
        "sweep.to_csv.s": t["sweep.to_csv"]["s"],
        "thresholds.compute_thresholds.calls": t["thresholds.compute_thresholds"]["calls"],
        "thresholds.compute_thresholds.s": t["thresholds.compute_thresholds"]["s"],
        "thresholds.critical_values.calls": t["thresholds.critical_values"]["calls"],
        "thresholds.critical_values.s": t["thresholds.critical_values"]["s"],
        "integrate.simulate.s": t["integrate.simulate"]["s"],
        "integrate.steps": c.get("steps", 0),
        "integrate.s_per_step": ratio(t["integrate.simulate"]["s"], c.get("steps", 0)),
        "integrate.to_csv.s": t["integrate.to_csv"]["s"],
        "model.require_valid.calls": t["model.require_valid"]["calls"],
        "model.require_valid.s": t["model.require_valid"]["s"],
        "cli.self_s": t["cli.main"]["self_s"],
        "cli.output_bytes": c.get("output_bytes", 0),
        "trace.overhead_frac": ratio(sum(tr.latency_s for _, tr in pairs),
                                     sum(pl.latency_s for pl, _ in pairs)) - 1.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the results record (also written to disk)."""
    use_source_tree()
    import spans
    import workloads
    from savanna import cli

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    groups = workloads.generate(workload, seed, workloads.SIZES[size])
    setup_s = None if trace else measure_setup(workload, seed, size)
    signal.signal(signal.SIGALRM, _alarm)
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    stem = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}"
    outputs = Outputs()
    errors: list[str] = []

    with tempfile.TemporaryDirectory(dir=WORK) as tmpdir:
        tmp = Path(tmpdir)
        # warm-up: the first command once, untimed, its output only compared
        outputs.add(_execute(cli.main, groups[0][0], tmp, -1, 0, 0, "-warm"), keep=False)
        if not trace:
            execs: list[Execution] = []

            def timed_group(gi, group, g):
                spent = 0.0
                for i, cmd in enumerate(group):
                    e = _execute(cli.main, cmd, tmp, g, gi, i)
                    outputs.add(e)
                    execs.append(e)
                    spent += e.latency_s
                return spent

            elapsed = _run_groups(groups, seconds, timed_group)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            outcomes = _check(workload, groups, outputs, execs)
            work = sum(outcomes[e.key].work for e in execs if outcomes[e.key].ok)
            values = {
                "setup_s": setup_s,
                "work_per_s": work / elapsed,
                "latency_s_p50": statistics.median(e.latency_s for e in execs),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
            counters = None
        else:
            tracer = spans.Tracer()
            traced_main = tracer.wrap("cli.main", cli.main)
            pairs: list[tuple[Execution, Execution]] = []

            def traced_run(cmd, g, gi, i, tag=""):
                run_id = len(pairs) + 1
                tracer.begin_run(run_id)
                with tracer.installed():
                    e = _execute(traced_main, cmd, tmp, g, gi, i, tag)
                e.run_id = run_id
                return e

            def paired_group(gi, group, g):
                spent = 0.0
                for i, cmd in enumerate(group):
                    plain = _execute(cli.main, cmd, tmp, g, gi, i, "-plain")
                    outputs.add(plain)
                    traced = traced_run(cmd, g, gi, i)
                    outputs.add(traced)
                    pairs.append((plain, traced))
                    spent += plain.latency_s + traced.latency_s
                return spent

            elapsed = _run_groups(groups, seconds, paired_group)
            first = pairs[0][1]
            again = traced_run(groups[0][0], -2, 0, 0, "-repeat")
            outputs.add(again, keep=False)
            counters = {}
            for e in [tr for _, tr in pairs] + [again]:
                counters[e.run_id] = dict(tracer.run_counts(e.run_id),
                                          output_bytes=e.output_bytes)
            if counters[first.run_id] != counters[again.run_id]:
                errors.append(f"work counters did not repeat: {counters[first.run_id]} "
                              f"then {counters[again.run_id]}")
            execs = [e for pair in pairs for e in pair]
            outcomes = _check(workload, groups, outputs, execs)
            # the per-layer metrics cover the first pass over the groups, so
            # they compare across runs of one seed and across commits
            run_ids = [tr.run_id for _, tr in pairs if tr.batch < len(groups)]
            total = {}
            for rid in run_ids:
                for k, v in counters[rid].items():
                    total[k] = total.get(k, 0) + v
            values = _layer_metrics(tracer, run_ids, total, pairs)
            units = PER_LAYER
            tracer.save(f"{stem}.spans.npz")

    errors += outputs.errors
    failed = {key: o for key, o in outcomes.items() if not o.ok}
    unexpected = [f"group {g} command {i}: {o.reason}" for (g, i), o in failed.items()
                  if not o.known]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "why": workloads.WHY[workload], "machine": _machine(),
        "elapsed_s": elapsed,
        "commands": {f"{g}.{i}": list(groups[g][i].argv) for g, i in outcomes},
        "outcomes": {f"{g}.{i}": {"ok": o.ok, "known_failure": o.known, "reason": o.reason,
                                  "work": o.work}
                     for (g, i), o in outcomes.items()},
        "executions": [
            {"command": f"{e.group}.{e.index}", "latency_s": e.latency_s, "exit": e.exit,
             **({"counters": counters[e.run_id]} if counters and e.run_id in counters else {})}
            for e in execs],
        "attempted": len(outcomes),
        "failed": len(failed),
        "fail_frac": len(failed) / len(outcomes),
        "errors": errors + unexpected,
        "correct": not errors and not unexpected,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    if not trace:
        name, unit, what = THROUGHPUT[workload]
        record["throughput"] = {"name": name, "value": values["work_per_s"], "unit": unit,
                                "what": what}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report_lines(record: dict) -> list[str]:
    """The human-readable summary printed before the JSON line."""
    n, runs = record["attempted"], len(record["executions"])
    lines = [f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{n} distinct commands, {runs} executions taking {record['elapsed_s']:.2f} s"]
    for name, m in record["metrics"].items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        if name == "latency_s_p50":
            line += f"  (median of {runs} executions)"
        elif name == "setup_s":
            line += f"  (median of {SETUP_REPEATS} fresh interpreters)"
        lines.append(line)
        if name == "work_per_s":
            t = record["throughput"]
            lines.append(f"  {t['name']} = {t['value']:.6g} {t['unit']}  ({t['what']})")
    lines.append(f"  fail_frac = {record['fail_frac']:.6g} frac  "
                 f"({record['failed']} of {n} operations failed)")
    lines += [f"  error: {e}" for e in record["errors"]]
    return lines


def _result_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except SourceTreeMissing as exc:
        print(f"bench: {exc}; run from a savanna checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report_lines(record)))
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
