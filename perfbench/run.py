"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload analyze-random --seed 1 \\
        --seconds 15 --trace 0

Run it from the repository root (it reads `src/`).  Workloads:

- ``analyze-random``: the paper's survey experiment.  Each op is one
  `repro.api.run_comparison` call (all four comparison analyzers, tree
  engine) on a seeded random open program.
- ``analyze-blowup``: the Section 6.2 duplication families on the
  compiled-plan engine, where the work is the engine's pc-loop and the
  store joins.
- ``serve-zipf``: `python -m repro serve` under a closed loop of two
  connections replaying a seeded Zipf stream of request bodies.

A run is a fixed number of whole input cycles (more with a larger
``--seconds``), never a fixed duration.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (NOTES.md says
how each is measured).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
from metrics import SETUPS, latency_metrics, src_env  # noqa: E402

OUT_DIR = ".perfbench_out"
MAX_VISITS = 200_000
WORKLOADS = ("analyze-random", "analyze-blowup", "serve-zipf")
#: nominal seconds of one input cycle of any workload at the machine's
#: fast speed; fixes how many whole cycles a run of ``--seconds`` makes
CYCLE_SECONDS = 2.0

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MiB",
}


def repo_root_ok() -> bool:
    return os.path.isfile(os.path.join("src", "repro", "__init__.py"))


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------


def library_inputs(workload: str, seed: int) -> tuple[list, str]:
    if workload == "analyze-random":
        return gen.analyze_random_inputs(seed), "tree"
    return gen.analyze_blowup_inputs(seed), "plan"


def spawn_child(job: dict) -> tuple[float, subprocess.Popen]:
    """Start a child on ``job``; returns (its set-up time at reference
    speed, proc).  Both processes read the same monotonic clock."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "libchild.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=src_env(),
        text=True, encoding="utf-8")
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
    except BrokenPipeError:
        pass  # the child died; the read below sees it
    line = proc.stdout.readline().split()
    if not line or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("child failed during set-up")
    started, scale, setup_s = (float(x) for x in line[1:4])
    return (started - start) * scale + setup_s, proc


def finish_child(proc: subprocess.Popen) -> dict:
    text = proc.stdout.read()
    code = proc.wait()
    if code != 0:
        raise RuntimeError(f"child exited with {code}")
    return json.loads(text.strip().splitlines()[-1])


def run_library(workload: str, seed: int, cycles: int, traced: bool) -> dict:
    programs, engine = library_inputs(workload, seed)
    job = {
        "mode": "trace" if traced else "time",
        "cpu": calibrate.cpus()[0],
        "cycles": cycles,
        "max_visits": MAX_VISITS,
        "default_analyzers": list(gen.COMPARISON_ANALYZERS),
        "programs": [{"source": p.source, "free": list(p.free),
                      "analyzers": (None if p.analyzers is None
                                    else list(p.analyzers)),
                      "engine": engine} for p in programs],
    }
    setups = []
    if not traced:
        for _ in range(SETUPS - 1):
            ready, proc = spawn_child({**job, "mode": "setup"})
            finish_child_setup(proc)
            setups.append(ready)
    ready, proc = spawn_child(job)
    setups.append(ready)
    out = finish_child(proc)

    bad = failures(programs, out)
    good = [i for i in range(len(programs)) if i not in bad]
    result = {
        "workload": workload, "seed": seed, "cycles": cycles,
        "ops_per_cycle": len(programs),
        "attempted": len(programs) * cycles,
        "failed": len(bad) * cycles,
        "problems": sorted(bad.values()),
    }
    if not traced:
        result["raw"] = {
            "wall_ops_per_s": len(programs) * cycles
            / sum(out["cycle_wall_s"]),
            "cycle_wall_s": out["cycle_wall_s"],
        }
    if not good:
        return result
    op_wall = [out["op_wall_s"][i] for i in good]
    if traced:
        from tracing import library_layers, self_times

        result["layers"] = library_layers(out, good, op_wall)
        result["self_times"] = self_times(out["spans"], cycles)
        result["spans"] = out["spans"]
        return result
    metrics, result["tail"] = latency_metrics(op_wall, concurrency=1)
    metrics["setup_s"] = statistics.median(setups)
    op_cpu = [out["op_cpu_s"][i] for i in good]
    metrics["cpu_ms_per_op"] = 1000.0 * sum(op_cpu) / len(op_cpu)
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    result["metrics"] = metrics
    result["setups_s"] = setups
    return result


def failures(programs, out: dict) -> dict[int, str]:
    """Ops that failed: an error (typed error, `BudgetExceeded`), an
    answer that changed between cycles, or one the check rejects."""
    bad: dict[int, str] = {}
    for index, program in enumerate(programs):
        problem = (out["errors"].get(str(index))
                   or out["mismatched"].get(str(index)))
        if problem is None:
            problem = check.check_answer(out["answers"][index],
                                         program.expect)
        if problem is not None:
            bad[index] = f"{program.pid} ({program.family}): {problem}"
    return bad


def finish_child_setup(proc: subprocess.Popen) -> None:
    proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}")


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def emit(result: dict, traced: bool, seconds: float) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{result['workload']}-seed{result['seed']}"
        + ("-trace" if traced else ""))
    spans = result.pop("spans", None)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, ensure_ascii=False) + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, ensure_ascii=False)

    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"cycles {result['cycles']} x {result['ops_per_cycle']} ops  "
          f"(--seconds {seconds:g})")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")
    metrics: dict = {}
    if traced:
        from tracing import PER_LAYER, print_layers

        layers = result.get("layers", {})
        print_layers(layers, result.get("self_times", {}))
        for name, unit in PER_LAYER.items():
            value = layers.get(name)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = result.get("metrics", {})
        for name, unit in END_TO_END.items():
            if name in values:
                print(f"  {name:18} {values[name]:12.4f} {unit}")
                metrics[name] = {"value": values[name], "unit": unit}
        if "tail" in result:
            t = result["tail"]
            print(f"  (tail = p{t['percentile']:g} of {t['samples']} "
                  f"per-op times, {t['beyond']} beyond it)")
        raw = result["raw"]
        print(f"  (wall-clock ops/s over all cycles: "
              f"{raw['wall_ops_per_s']:.2f})")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line, ensure_ascii=False), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not repo_root_ok():
        print("perfbench: run from the repository root (src/repro not"
              " found)", file=sys.stderr)
        return 2
    cycles = max(4, round(args.seconds / CYCLE_SECONDS))
    traced = bool(args.trace)
    if traced:
        # untraced and traced passes share the run's time
        cycles = max(2, cycles // 2)
    if args.workload == "serve-zipf":
        # the answer references are computed in this process
        sys.path.insert(0, os.path.abspath("src"))
        from servebench import run_serve

        result = run_serve(args.seed, cycles, traced)
    else:
        result = run_library(args.workload, args.seed, cycles, traced)
    emit(result, traced, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
