"""End-to-end benchmark of the victr pipeline on planted-truth corpora.

Usage, from the repository root:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 35 --trace 0

One process runs one workload: it plans the corpus from the seed, sets
up (imports victr and writes the inputs, several times, median reported),
then runs one untimed warm-up round and whole measured rounds of the seven
CLI stages through ``victr.cli.main`` for at most ``--seconds`` (at least
one). The run starts from an empty ``perfbench/work/<workload>``; the
warm-up round creates the output files, and every later round rewrites
them after they have been emptied. Each stage invocation, the warm-up
round's too, is one operation; it fails on a non-zero exit code, on an
exception, or when its summary lines disagree with the plan, and the last
round's files are checked in full against the plan. The
last line of stdout is a JSON object with correct, attempted, failed and
metrics: the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
"""

import os
import shutil
import sys

BLAS_THREADS = 1  # one BLAS thread plus the interpreter stay within two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402

STAGES = (
    ("parse", ["parse"]),
    ("build-graphs", ["build-graphs"]),
    ("train", ["train", "--graph", "all"]),
    ("compose", ["compose"]),
    ("fuse", ["fuse"]),
    ("project", ["project"]),
    ("stats", ["stats"]),
)
SETUP_REPEATS = 9
PROGRAM_SETTINGS = {"basic_width": 200, "positional_width": 50, "text_width": 256,
                    "epochs": 200}
VICTR_MODULES = ("binio", "ingest", "sceneparse", "geometry", "graphstore", "gcn",
                 "embedding", "fusion", "cli")


def _import_victr() -> dict:
    """Import victr afresh (module code runs again; numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "victr" or m.startswith("victr.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"victr.{m}") for m in VICTR_MODULES}


def _tree_size(path):
    n = size = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            n += 1
            size += os.path.getsize(os.path.join(dirpath, f))
    return n, size


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def empty_outputs(out) -> None:
    """Truncate every file under out to zero length."""
    for dirpath, _, files in os.walk(out):
        for f in files:
            os.truncate(os.path.join(dirpath, f), 0)


def run_stage(cli, argv, config, out):
    """Run one CLI stage in-process; returns (exit code, start, end, cpu s, stdout)."""
    buf = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--config", config, "--out-dir", out])
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        rc = -1
    end = time.perf_counter()
    return rc, start, end, time.process_time() - cpu, buf.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "victr", "cli.py")):
        print("perfbench: src/victr not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)  # nothing from an earlier run or commit

    wl = corpus.WORKLOADS[args.workload](args.seed)
    settings = {**PROGRAM_SETTINGS, **wl.config, "seed": args.seed}
    wl.config = settings
    truth = checks.Truth(wl, settings)
    # the plan and truth stay alive all run; frozen, the program's garbage
    # collections do not scan them, as they would not in a standalone run
    gc.collect()
    gc.freeze()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = _import_victr()
        config = corpus.write_inputs(wl, os.path.join(work, "inputs"), args.seed)
        setup_times.append(time.perf_counter() - start)
    cli = modules["cli"]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(modules)

    # Round 0 is an untimed warm-up: it creates the output files, which on
    # the reference machine costs 0.3-0.5 ms of kernel time per file and
    # varies from minute to minute. Before every measured round the
    # files are emptied, untimed, so the round rewrites existing inodes and
    # does not wait on the file system freeing and discarding the previous
    # round's blocks. No measured round starts that would end past
    # --seconds at the mean pace so far; at least one always runs.
    rounds, failed_ops, failures = [], set(), []
    out = os.path.join(work, "out")
    begin = None
    while True:
        r = len(rounds)
        if r:
            empty_outputs(out)
        round_start = time.time() - 0.5  # file times lag the clock by a tick
        if tracer:
            tracer.reset()
        times, cpu = {}, {}
        for stage, stage_argv in STAGES:
            if tracer:
                tracer.stage = f"{stage}#{r}"
            rc, start, end, cpu[stage], stdout = run_stage(cli, stage_argv, config, out)
            if tracer:
                tracer.spans.append((f"cli.{stage}", start, end, None))
            times[stage] = end - start
            bad = [f"{stage}: exit code {rc}"] if rc else checks.check_stdout(truth, stage, stdout, out)
            if bad:
                failed_ops.add((r, stage))
                failures += bad
        rounds.append({"times": times, "cpu": cpu,
                       "layers": tracer.round_metrics(times) if tracer else None})
        if begin is None:
            begin = time.perf_counter()
            continue
        n_measured = len(rounds) - 1
        elapsed = time.perf_counter() - begin
        if elapsed * (n_measured + 1) / n_measured > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    files, size = _tree_size(out)

    # the pipeline is deterministic, so a stage whose files fail the checks
    # after the last round failed in every round
    for stage, bad in checks.check_artifacts(truth, out, round_start).items():
        if bad:
            failed_ops.update((r, stage) for r in range(len(rounds)))
            failures += bad[:5]
    for line in failures[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    def med(values):
        return float(statistics.median(values))

    # The rates and fit_s are totals over all measured rounds (work done ÷
    # time taken): the machine's speed drifts in spells longer than a round,
    # and a total averages over them where a median of rounds picks one.
    measured = rounds[1:]
    n_in, n_kept, n_rounds = len(wl.captions), len(truth.kept), len(measured)

    def total(*stages):
        return sum(r["times"][s] for r in measured for s in stages)

    all_stages = [stage for stage, _ in STAGES]
    if tracer:
        metrics = {name: {"value": med(r["layers"][name][0] for r in measured),
                          "unit": unit} for name, (_, unit) in measured[0]["layers"].items()}
        metrics["trace.captions_per_s"] = {"value": n_in * n_rounds / total(*all_stages), "unit": "1/s"}
    else:
        metrics = {
            "captions_per_s": (n_in * n_rounds / total(*all_stages), "1/s"),
            "fit_s": (total("parse", "build-graphs", "train") / n_rounds, "s"),
            "encode_captions_per_s": (n_kept * n_rounds / total("compose", "fuse"), "1/s"),
            "setup_s": (med(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "artifact_mb": (size / 2**20, "MiB"),
            "artifact_files": (files, "count"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": _environment(), "setup_s": setup_times,
              "rounds": [r["times"] for r in rounds], "cpu": [r["cpu"] for r in rounds],
              "metrics": metrics, "failures": failures}
    suffix = "-trace" if tracer else ""
    with open(os.path.join(results, f"{args.workload}{suffix}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if tracer:
        with open(os.path.join(results, f"{args.workload}-spans.json"), "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, f)
    print(json.dumps({"correct": not failed_ops, "attempted": len(STAGES) * len(rounds),
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
