"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {campaign,dataset_build,serve}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  It drives the program in ``src/``
from outside (``plan_campaign`` + ``CampaignEngine.run``, the
``repro serve`` process and its HTTP API, ``ArtifactStore``), checks
the outputs, prints every metric with its unit and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
the ``per_layer`` ones with ``--trace 1``.  A failed output check
prints ``correct: false`` and exits 1.  Each run's record (environment
block, every number, the span files of a traced run) is kept under
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.envinfo import environment, pin_blas_threads  # noqa: E402

WORKLOADS = ("campaign", "dataset_build", "serve")


def _prepare() -> dict:
    """Pin BLAS threads and put ``src`` on the path, here and in children.

    Returns ``BENCHMARK.json``; raises ``FileNotFoundError`` when the
    program or the benchmark definition is not in the checkout.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        definition = json.load(handle)
    pin_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    # Anything resolving the default store stays inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench" / "default-store")
    sys.path.insert(0, str(ROOT / "src"))
    return definition


def _print_numbers(title: str, numbers: dict, units: dict) -> None:
    print(f"\n== {title}")
    for name, value in numbers.items():
        print(f"  {name:28s} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        definition = _prepare()
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot run here: {error}", file=sys.stderr)
        return 2

    from perfbench import spans
    from perfbench.batch import SCALE
    from perfbench.workloads import REPORT_UNITS, CheckFailed, RunDir, run_batch, run_serve

    section = "per_layer" if args.trace else "end_to_end"
    units = dict(REPORT_UNITS)
    units.update(
        (metric["name"], metric["unit"])
        for key in ("end_to_end", "per_layer") for metric in definition[key]
    )
    run = RunDir(ROOT, ROOT / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    ))
    env = environment(ROOT, args.workload, args.seed, SCALE)
    print("== environment")
    print(json.dumps(env, indent=2))
    try:
        if args.workload == "serve":
            outcome = run_serve(run, args.seed, args.seconds, bool(args.trace))
        else:
            outcome = run_batch(run, args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as error:
        print(f"\nOUTPUT CHECK FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        for path in run.path.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)

    print(f"\n== output checks passed ({args.workload}, seed {args.seed})")
    if outcome.rungs:
        print(f"\n== ladder (open loop, {len(outcome.rungs)} rungs)")
        for rung in outcome.rungs:
            print("  " + "  ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in rung.items()
            ))
    if args.trace:
        print("\n== self time per layer")
        print(spans.format_table(outcome.table, outcome.per_layer["trace.overhead_ratio"]))
        values = outcome.per_layer
    else:
        _print_numbers("end-to-end", outcome.report, units)
        values = outcome.e2e
    # A layer a workload does not exercise reads 0; an end-to-end metric
    # a workload fails to produce is an error.
    metrics = {
        metric["name"]: {
            "value": float(values[metric["name"]] if section == "end_to_end"
                           else values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in definition[section]
    }
    if args.trace:
        _print_numbers("per layer", {k: v["value"] for k, v in metrics.items()}, units)
    with open(run.path / "result.json", "w", encoding="utf-8") as handle:
        json.dump({
            "environment": env, "report": outcome.report, "rungs": outcome.rungs,
            "self_time": outcome.table, "metrics": metrics,
            "attempted": outcome.attempted, "failed": outcome.failed,
        }, handle, indent=2)
    print(json.dumps({
        "correct": True, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
