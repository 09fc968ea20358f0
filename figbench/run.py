"""Figure-sweep benchmark for the DVS-EDF simulator.

Run from the repository root::

    python3 figbench/run.py --workload fig1-compiled --seed 2002 \\
        --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` (in
(cell, seed) units) and ``metrics``.  ``--repeat K`` is the steadiness
self-check: it runs the end-to-end mode K times with seeds
``seed .. seed+K-1`` and prints each metric's spread.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import build
from layers import unit_of
from stats import spread
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
FIGURES = Path("src/repro/experiments/figures.py")
E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Fresh-interpreter set-up probes taken before and after the sweep
#: (the reported ``setup_s`` is their median).
SETUP_PROBES = 3
#: The measuring child gets this long beyond ``--seconds``.
MEASURE_GRACE = 120.0
#: Shown as a steadiness warning when a spread exceeds this share of
#: its bound.
STEADY_SHARE = 1 / 3


def child_env(workload) -> dict[str, str]:
    """The caller's environment minus any ``REPRO_*`` switches, plus
    the workload's backend selection."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(workload.env())
    return env


def setup_probe(workload, fastcore: Path | None) -> float:
    """Seconds from starting a fresh interpreter until ``repro`` and the
    figure drivers are imported and the backend is chosen."""
    code = ("import sys\n"
            "sys.path[:0] = [sys.argv[1], 'src']\n"
            "import build\n"
            "if len(sys.argv) > 2:\n"
            "    build.install_finder(sys.argv[2])\n"
            "import repro, repro.experiments.figures\n"
            "from repro.sim import fastcore\n"
            f"sys.exit(fastcore.compiled_enabled() is not {workload.compiled})\n")
    argv = [sys.executable, "-c", code, str(HERE)]
    if fastcore is not None:
        argv.append(str(fastcore))
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(workload), check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure(workload, args, fastcore: Path | None) -> dict:
    argv = [sys.executable, str(HERE / "measure.py"),
            "--workload", workload.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if fastcore is not None:
        argv += ["--fastcore", str(fastcore)]
    # Own session, so a timeout can take the pool workers down too.
    proc = subprocess.Popen(argv, env=child_env(workload),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + MEASURE_GRACE)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measure.py failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_once(args) -> int:
    workload = WORKLOADS[args.workload]
    if not FIGURES.is_file():
        print(f"error: {FIGURES} not found; run from the repository root",
              file=sys.stderr)
        return 1
    fastcore = build.ensure_built() if workload.compiled else None
    setup = [] if args.trace else [setup_probe(workload, fastcore)
                                   for _ in range(SETUP_PROBES)]
    result = measure(workload, args, fastcore)
    if not args.trace:
        setup += [setup_probe(workload, fastcore)
                  for _ in range(SETUP_PROBES)]
        result["metrics"]["setup_s"] = statistics.median(setup)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("diagnostics " + json.dumps(result["diagnostics"]))
    metrics = {}
    for name, value in result["metrics"].items():
        unit = E2E_UNITS.get(name) or unit_of(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:30s} {value:14.6g} {unit}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def steadiness(args) -> int:
    """Repeat the end-to-end run and print every metric's spread."""
    bounds = {m["name"]: m["bound"] for m in json.loads(
        Path("BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for i in range(args.repeat):
        argv = [sys.executable, str(HERE / "run.py"),
                "--workload", args.workload, "--seed", str(args.seed + i),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, check=False, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"run {i} failed (exit {proc.returncode})",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        diag = next(json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("diagnostics "))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.seed + i}: correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.4g}"
                         for n, m in result["metrics"].items())
              + f" raw_sweep_s={diag['sweep_raw_s']:.4g}"
              f" ref_probe_ms={diag['ref_probe_ms']:.2f}"
              f" samples={diag['samples']}", flush=True)
    report = {}
    for name, series in values.items():
        s = spread(series)
        bound = bounds.get(name)
        # set-up time is judged by its median only, not its spread
        steady = (bound is None or name == "setup_s"
                  or s <= bound * STEADY_SHARE)
        report[name] = {"median": statistics.median(series), "spread": s,
                        "bound": bound, "steady": steady}
        print(f"{name:14s} median {statistics.median(series):.4g} "
              f"spread {s:.3f} bound {bound} "
              f"{'ok' if steady else 'NOT STEADY'}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": report}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness self-check: repeat K runs")
    args = parser.parse_args(argv)
    try:
        return steadiness(args) if args.repeat else run_once(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
