"""Benchmark of the dualbayes CLI, one workload per run.

Run from the root of a checkout (``src/dualbayes`` must be there)::

    python3 benchmarks/run.py --workload disc-real --seed 1 --seconds 36 --trace 0

The benchmark is a closed loop with one client: it runs the workload's
command sequence, one CLI invocation at a time, each in a fresh child
interpreter, and repeats the whole sequence while the next repetition is
expected to end within ``--seconds`` (at least once).  A command's time is
its minimum over the repetitions; the sequence's time is the sum of those.
Gated times are scaled by a start-up probe (see ``PROBE``).
Inputs come from ``--seed`` (see ``workloads.py``); outputs are checked
outside the timed region after each repetition.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics plus
the tracing overhead.  The line before the last is a JSON run record
(environment, the per-command metrics of the workload, failure reasons);
the last line is the result object.  Exits 2 without a result when the
checkout holds no ``src/dualbayes``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent

# name -> unit; reported by --trace 0 on every workload
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "main_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per-command metrics of the run record: name -> (unit, op-name prefix).
# Seconds are time inside ``cli.main``; rates divide rows or steps by it.
COMMAND_METRICS = {
    "fit_s": ("s", "fit"),
    "predict_generative_rows_per_s": ("rows/s", "predict-generative"),
    "predict_columns_rows_per_s": ("rows/s", "predict-columns"),
    "predict_discnb_rows_per_s": ("rows/s", "predict-discnb"),
    "predict_logreg_rows_per_s": ("rows/s", "predict-logreg"),
    "hmm_fb_steps_per_s": ("steps/s", "fb-"),
    "hmm_efb_steps_per_s": ("steps/s", "efb-"),
    "verify_s": ("s", "verify-"),
}

# name -> unit; reported by --trace 1 on every workload, 0 where the layer
# does not run.  Names are <layer>.<function>.<stat>; see tracing.py.
PER_LAYER = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "model_io.load_model.s": "s",
    "model_io.save_model.s": "s",
    "core.ProbabilityVector.calls": "count",
    "core.ProbabilityVector.per_row": "count/row",
    "core.ProbabilityVector.s": "s",
    "core.normalize_log.calls": "count",
    "core.logsumexp.calls": "count",
    "naive_bayes.nb_fit_mle.s": "s",
    "naive_bayes.nb_sufficient_statistics.calls": "count",
    "naive_bayes.nb_sufficient_statistics.s": "s",
    "naive_bayes.nb_to_discriminative.s": "s",
    "naive_bayes.nb_generative_posterior.calls": "count",
    "naive_bayes.nb_generative_posterior.us_per_call": "us",
    "naive_bayes.nb_discriminative_posterior.calls": "count",
    "naive_bayes.nb_discriminative_posterior.us_per_call": "us",
    "naive_bayes.disc_nb_posterior.calls": "count",
    "naive_bayes.disc_nb_posterior.us_per_call": "us",
    "naive_bayes.disc_nb_log_posterior_batch.calls": "count",
    "naive_bayes.disc_nb_log_posterior_batch.s": "s",
    "logreg.lr_posterior.calls": "count",
    "logreg.lr_posterior.us_per_call": "us",
    "logreg.lr_log_posterior_batch.calls": "count",
    "logreg.lr_log_posterior_batch.s": "s",
    "logreg.nb_to_lr.s": "s",
    "train.fit_discriminative.s": "s",
    "train.fit_discriminative.ms_per_epoch": "ms",
    "train._log_posterior_matrix.calls": "count",
    "train._log_posterior_matrix.s": "s",
    "hmm.forward_backward.calls": "count",
    "hmm.forward_backward.failed": "count",
    "hmm.forward_backward.us_per_step": "us",
    "hmm.entropic_forward_backward.calls": "count",
    "hmm.entropic_forward_backward.failed": "count",
    "hmm.entropic_forward_backward.us_per_step": "us",
    "hmm._entropic_recursion.calls": "count",
    "hmm._entropic_recursion.s": "s",
    "hmm.derive_hmm_posteriors.s": "s",
    "oracle.joint_enumeration_nb.calls": "count",
    "oracle.joint_enumeration_nb.s": "s",
    "oracle.joint_enumeration_hmm.calls": "count",
    "oracle.joint_enumeration_hmm.s": "s",
    "verify.nb_agreement_suite.s": "s",
    "verify.logreg_equivalence_suite.s": "s",
    "verify.fb_efb_suite.s": "s",
    "verify.fb_enumeration_suite.s": "s",
    "trace.overhead_frac": "ratio",
}

# The machine's speed drifts by tens of percent over minutes, for every
# workload at once.  Starting an interpreter that imports numpy, and nothing
# of dualbayes, follows most of that drift, so it is timed before every command and
# the gated times are scaled to a machine on which it takes NOMINAL_PROBE_S.
PROBE = [sys.executable, "-c", "import numpy"]
NOMINAL_PROBE_S = 0.15

# stat suffix -> (statistics field dividing the time, scale); see layer_metrics
RATES = {"us_per_call": ("calls", 1e6), "us_per_step": ("units", 1e6),
         "ms_per_epoch": ("units", 1e3)}


@dataclass
class OpResult:
    """What one child process did: exit code, clocks, memory and trace."""

    rc: int
    wall_s: float
    setup_s: float | None
    main_s: float
    rss_mb: float
    stdout_bytes: int
    stats: dict | None
    error: str


def launch(op, work: Path, src: Path, trace: bool) -> OpResult:
    """Run one CLI invocation in a fresh interpreter and wait for it to end."""
    spec, result, stderr = work / "spec.json", work / "result.json", work / "stderr.txt"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"argv": op.argv, "result": str(result), "trace": trace}))
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(op.stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        rc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec)],
                            stdout=out, stderr=err, env=env, cwd=work).returncode
        wall = time.perf_counter() - start
    try:
        child = json.loads(result.read_text())
    except (OSError, ValueError):
        child = {}
    lines = stderr.read_text(errors="replace").strip().splitlines()
    return OpResult(
        rc=rc,
        wall_s=wall,
        setup_s=child["imported"] - start if child else None,
        main_s=child.get("main_s", wall),
        rss_mb=child.get("peak_rss_kb", 0) / 1024.0,
        stdout_bytes=op.stdout.stat().st_size,
        stats=child.get("stats"),
        error=lines[-1] if lines else "",
    )


def run_sequence(workload, work, src, trace, probes):
    """One repetition of the command sequence, then its output check.

    Appends the probe time taken before each command to ``probes``.
    """
    for op in workload.ops:
        op.stdout.unlink(missing_ok=True)
        if "-o" in op.argv:
            Path(op.argv[op.argv.index("-o") + 1]).unlink(missing_ok=True)
    results = []
    for op in workload.ops:
        start = time.perf_counter()
        subprocess.run(PROBE, check=True)
        probes.append(time.perf_counter() - start)
        results.append(launch(op, work, src, trace))
    wrong = workload.check(workload.state, workload.ops, results)
    failures = [(k, f"exit {r.rc}: {r.error}") for k, r in enumerate(results) if r.rc != 0]
    return results, failures, wrong


def command_metrics(ops, inside):
    """The per-command metrics that apply to this workload, from each op's main_s."""
    out = {}
    for name, (unit, prefix) in COMMAND_METRICS.items():
        chosen = [k for k, op in enumerate(ops) if op.name.startswith(prefix)]
        if not chosen:
            continue
        seconds = sum(inside[k] for k in chosen)
        work = sum(ops[k].rows + ops[k].steps for k in chosen)
        out[name] = seconds if unit == "s" else work / seconds
    return out


def layer_metrics(ops, results):
    """Per-layer values of one traced repetition, summed over its invocations."""
    merged = {}
    for result in results:
        for name, stat in (result.stats or {}).items():
            total = merged.setdefault(name, dict.fromkeys(stat, 0))
            for key, value in stat.items():
                total[key] += value
    empty = {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0, "units": 0}
    rows = sum(op.rows for op in ops)
    vectors_in_predict = sum(
        (r.stats or {}).get("core.ProbabilityVector", empty)["calls"]
        for op, r in zip(ops, results) if op.rows)
    out = {
        "cli.self_s": merged.get("cli.main", empty)["self_s"],
        "cli.output_bytes": sum(r.stdout_bytes for r in results),
        "core.ProbabilityVector.per_row": vectors_in_predict / rows if rows else 0.0,
    }
    for name in PER_LAYER:
        if name in out or name.startswith("trace."):
            continue
        key, stat = name.rsplit(".", 1)
        entry = merged.get(key, empty)
        if stat in RATES:
            field, scale = RATES[stat]
            out[name] = entry["s"] / entry[field] * scale if entry[field] else 0.0
        else:
            out[name] = entry[stat]
    return out


def run_record(root: Path, args) -> dict:
    """Environment of the run, enough to trace an unsteady pair of runs to its cause."""
    commit = ""
    if (root / ".git").exists():  # a plain source tree has no commit
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dualbayes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git_commit": commit or None, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "dualbayes" / "cli.py").is_file():
        print(f"error: no src/dualbayes/cli.py under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    record = run_record(root, args)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
        # fills the bytecode caches; not an operation and not timed
        warm = launch(workloads.Op("warm-up", ["--help"], work / "warm.out"), work, src, False)
        if warm.rc != 0:
            print(f"error: the CLI does not start: {warm.error}", file=sys.stderr)
            return 2

        plain, traced, failures, wrong, probes = [], [], [], [], []
        started = time.perf_counter()
        while True:
            for runs, trace in ((plain, False), (traced, True))[: 1 + args.trace]:
                results, failed, bad = run_sequence(workload, work, src, trace, probes)
                runs.append(results)
                failures.append(failed)
                wrong.append(bad)
            elapsed = time.perf_counter() - started
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = workload.ops
    attempted = len(ops) * (len(plain) + len(traced))
    failed = sum(len({k for k, _ in a} | {k for k, _ in b}) for a, b in zip(failures, wrong))

    def per_op(reps, field, pick=min):
        """Each invocation's value over the repetitions, in sequence order.

        Times take the minimum: the host's other tenants only ever add to a
        command's time, and the least disturbed repetition varies least
        between runs.
        """
        return [pick(getattr(results[k], field) for results in reps) for k in range(len(ops))]

    wall, inside = per_op(plain, "wall_s"), per_op(plain, "main_s")
    raw = {
        "setup_s": statistics.median(
            r.setup_s for results in plain for r in results if r.setup_s is not None),
        "job_s": sum(wall),
        "main_s": sum(inside),
    }
    scale = NOMINAL_PROBE_S / statistics.median(probes)
    end_to_end = {name: value * scale for name, value in raw.items()}
    end_to_end["peak_rss_mb"] = max(per_op(plain, "rss_mb", statistics.median))
    end_to_end["ok_frac"] = 1.0 - failed / attempted
    per_command = {name: {"value": value, "unit": COMMAND_METRICS[name][0]}
                   for name, value in command_metrics(ops, [t * scale for t in inside]).items()}
    per_command["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    record.update(
        loadavg_end=list(os.getloadavg()), probe_s=statistics.median(probes),
        unscaled=raw,
        job_s_per_repetition=[sum(r.wall_s for r in results) for results in plain],
        traced_repetitions=len(traced),
        command_metrics=per_command,
        failures=sorted({f"{ops[k].name}: {why}" for rep in failures + wrong for k, why in rep}),
    )

    if args.trace:
        layers = [layer_metrics(ops, results) for results in traced]
        values = {name: statistics.median_low(layer[name] for layer in layers)
                  for name in PER_LAYER if not name.startswith("trace.")}
        values["trace.overhead_frac"] = sum(per_op(traced, "wall_s")) / sum(wall) - 1.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not any(wrong), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
