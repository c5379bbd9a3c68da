"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload desk_mc --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. The run
repeats whole rounds of the workload's operations until ``--seconds``
have passed (see ``workloads.py`` and the README). With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced rounds and prints the per-layer metrics. Reports, configs,
spans and the result go to ``.perfbench_out/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4
# The calibration kernel's time on the machine the bounds were set on (2 vCPUs, Python 3.11).
CAL_REF_S = 0.040
CAL_SAMPLES = 2

# Imports and builds the configs in a fresh interpreter; prints the seconds taken.
_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = [{src!r}, {here!r}]; "
    "import rsasian.cli, workloads; workloads.make({workload!r}, {seed}); "
    "print(time.perf_counter() - t0)"
)


def _set_threads() -> dict:
    """Cap ``PRICER_THREADS`` and the BLAS pool at the usable core count.

    Both default to one thread. One is the program's own default for
    ``PRICER_THREADS``; on a shared 2-vCPU host the two-thread time of the
    500k-path put spread about three times as widely across runs as
    the one-thread commands. For the BLAS pool, a second thread saved
    about 7 % of a series_probe round while widening the spread of round
    times across runs about threefold. Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    pricer = max(1, min(int(os.environ.get("PRICER_THREADS") or 1), nproc))
    blas = max(1, min(int(os.environ.get("OPENBLAS_NUM_THREADS") or 1), nproc))
    os.environ["PRICER_THREADS"] = str(pricer)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return {"nproc": nproc, "PRICER_THREADS": pricer, "blas_threads": blas}


def _calibration_s() -> float:
    """Seconds for a fixed kernel shaped like the program's work.

    This host's speed drifts by up to a quarter over minutes, so raw
    times of one workload spread by about a fifth across runs. Each
    round's times are scaled by ``CAL_REF_S`` over the median kernel time
    in that round, which follows the drift and not the program. The
    arrays are as long as an MC batch of 100k paths and the table is
    larger than a core's L2 cache, like the switch table: a kernel that
    stayed in L2 followed the MC commands' times less closely.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 100_000)
    for _ in range(40):  # elementwise updates, like the MC path steps
        x = x * 0.999 + np.exp(-0.5 * x) * 1e-3
    table = np.linspace(0.0, 1.0, 2_000_000)
    rng = np.random.default_rng(0)
    for _ in range(10):  # random gathers, like the switch-table lookups
        x += table[rng.integers(0, table.size, x.size)]
    a = np.linspace(0.0, 1.0, 400 * 400).reshape(400, 400)
    for _ in range(16):  # small dense products, like the HAM steps
        a @ a[:, :100]
    total = 0
    for i in range(100_000):  # the interpreter itself
        total += i * i
    return time.perf_counter() - start


def _calibration_samples() -> list[float]:
    """``CAL_SAMPLES`` kernel times in a row: one sample is noisy, their median less so."""
    return [_calibration_s() for _ in range(CAL_SAMPLES)]


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing the package and making the configs.

    Scaled like the rounds, by kernels run before and after each probe.
    """
    code = _PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    samples, cal = [], _calibration_samples()
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        cal += _calibration_samples()
    return statistics.median(samples) * CAL_REF_S / statistics.median(cal)


def _run_round(ops, refs, paths, cli, ham, verdict) -> dict:
    """One pass over the operations, each a CLI command plus its checks.

    The calibration kernel runs ``CAL_SAMPLES`` times before the first
    command and after each one; the round's times are scaled by
    ``CAL_REF_S`` over the median of those kernel times. ``raw_wall`` keeps the unscaled total. A command
    that raises or exits non-zero is a problem and a failed operation,
    and its round is left out of the timings.
    """
    ham._SURFACES_CACHE.clear()  # every round starts cold, as a fresh CLI process does
    reports, raw, verdicts = {}, [], []
    cal = _calibration_samples()
    for op, ref, (cfg_path, report_path) in zip(ops, refs, paths):
        t0 = time.perf_counter()
        try:
            code = cli.main([op.command, "--config", str(cfg_path)])
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - t0)
        cal += _calibration_samples()
        if code != 0:
            verdicts.append(verdict(problems=[f"{op.name}: exit {code}"], crashed=True))
            continue
        with open(report_path, encoding="utf-8") as f:
            reports[op.name] = json.load(f)
        verdicts.append(op.check(reports[op.name], reports, ref, raw[-1]))
    scale = CAL_REF_S / statistics.median(cal)
    for v in verdicts:
        if v.s_at_1c is not None:
            v.s_at_1c *= scale
    return {"wall": math.fsum(raw) * scale, "raw_wall": math.fsum(raw),
            "seconds": [x * scale for x in raw], "verdicts": verdicts,
            "crashed": any(v.crashed for v in verdicts),
            "report_bytes": sum(os.path.getsize(p) for _, p in paths if p.exists())}


def _end_to_end(ops, rounds, setup_s) -> dict:
    """End-to-end values; times are medians over the rounds."""
    bulk = [i for i, op in enumerate(ops) if op.role == "bulk"]
    check = [i for i, op in enumerate(ops) if op.role == "check"]
    at_1c = [math.fsum(v.s_at_1c for v in r["verdicts"] if v.s_at_1c is not None) for r in rounds]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bulk_cmd_s": statistics.median(statistics.fmean(r["seconds"][i] for i in bulk)
                                        for r in rounds),
        "check_cmd_s": statistics.median(sum(r["seconds"][i] for i in check) for r in rounds),
        "s_at_1c": statistics.median(at_1c),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rsasian" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    threads = _set_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    setup_s = _setup_seconds(args.workload, args.seed)

    import reference
    import workloads
    from rsasian import cli, ham

    if not ham.__file__.startswith(str(SRC)):
        print(f"rsasian imported from {ham.__file__}, not {SRC}", file=sys.stderr)
        return 2
    reference.self_test()
    ops = workloads.make(args.workload, args.seed)
    refs = [op.reference() for op in ops]

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    paths = []
    for op in ops:
        cfg_path, report_path = out / f"{op.name}.config.json", out / f"{op.name}.report.json"
        output = {"format": "json", "path": str(report_path), "timings": op.timings}
        cfg_path.write_text(json.dumps(dict(op.config, output=output), indent=2) + "\n")
        paths.append((cfg_path, report_path))

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    rounds, traced = [], []  # every round; per-layer metrics of the traced ones
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(rounds) % 2 == 1
        if on:
            tracer.start_round()
        result = _run_round(ops, refs, paths, cli, ham, workloads.Verdict)
        if on:
            tracer.stop_round()
            traced.append(spans.layer_metrics(tracer.rounds[-1], result["report_bytes"]))
        result["traced"] = on
        rounds.append(result)
        if time.perf_counter() - start >= args.seconds and (tracer is None or len(rounds) % 2 == 0):
            break

    verdicts = [v for r in rounds for v in r["verdicts"]]
    problems = [p for v in verdicts for p in v.problems]
    faults = [v.fault for v in verdicts if v.fault]
    # Times come from rounds in which every command ran; if none did, the
    # run is not correct anyway and all rounds are used.
    timed = [r for r in rounds if not r["crashed"]] or rounds
    plain = [r for r in timed if not r["traced"]] or [r for r in rounds if not r["traced"]]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if tracer else "end_to_end"]
    if tracer is None:
        values = _end_to_end(ops, plain, setup_s)
    else:
        values = spans.median_layers(traced)
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in rounds if r["traced"])
                                      - statistics.median(r["wall"] for r in plain))
        tracer.dump(out / "trace.json")
        exact = [m["name"] for m in listed if m["unit"] == "count"]
        counts = [{k: t[k] for k in exact} for t in traced]
        if any(c != counts[0] for c in counts):
            problems.append(f"per-layer counts differ between traced rounds: {counts!r}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print("# round seconds, scaled/raw: "
          + " ".join(f"{r['wall']:.3f}/{r['raw_wall']:.3f}" + "t" * r["traced"] for r in rounds),
          file=sys.stderr)
    for message in problems + sorted(set(faults)):
        print(f"# {message}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(verdicts),
              "failed": sum(v.failed for v in verdicts), "metrics": metrics}
    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          + " ".join(f"{k}={v}" for k, v in threads.items()))
    line = json.dumps(result)
    (out / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
