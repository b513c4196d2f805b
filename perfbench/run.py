"""Benchmark entry point for hopfpbw.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/``; nothing is installed.  One process, one thread, closed loop: each
operation starts after the previous one returns.

With ``--trace 0`` the run sets up several times, then repeats passes of the
workload for S seconds (at least one pass), and reports the end-to-end
metrics listed in BENCHMARK.json.  With ``--trace 1`` it does the same untraced
measurement, then one traced pass (layer spans, written to
``.bench_build/perfbench/``) and one count-only pass (Scalar operation
counts), and reports the per-layer metrics.  The last line of standard
output is the JSON result.  See perfbench/README.md for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter as now
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MODULES = ("cli", "deform", "exactla", "hopf", "modalg", "oracle", "presets", "scalar", "smash")


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"hopfpbw.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != src / "hopfpbw":
        raise SystemExit(f"imported hopfpbw from {mods['cli'].__file__}, not from {src}")
    return SimpleNamespace(**mods)


def measure(wl, seconds: float):
    """Closed-loop passes for `seconds`: at least one, and no pass that the
    median pass so far says would end after the deadline."""
    from workloads import Tally

    passes = []
    start = now()
    while True:
        tally = Tally()
        t0 = now()
        wl.run_pass(tally)
        passes.append((now() - t0, tally))
        median_pass = statistics.median(wall for wall, _ in passes)
        if now() - start + median_pass > seconds:
            return passes


def merged_times(passes) -> dict:
    out: dict = {}
    for _, tally in passes:
        for key, vals in tally.times.items():
            out.setdefault(key, []).extend(vals)
    return out


def typical(times: dict, n_passes: int, stage: str = "") -> float:
    """Seconds of a typical pass spent in `stage` (all stages when empty):
    each operation key at its median time, times its count per pass.  The
    medians over many operations keep one slow stretch of the host from
    moving the figure."""
    return sum((len(v) / n_passes * statistics.median(v) for k, v in times.items()
                if not stage or k.split(":")[0] == stage), 0.0)


def end_to_end(import_s, setup_times, passes) -> dict:
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "pass_s": typical(merged_times(passes), len(passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(hp, wl, passes, seed: int) -> tuple[dict, int, int]:
    """Traced and count-only passes, plus the untraced stage figures.
    Returns (metrics, attempted, failed)."""
    from tracing import ScalarCounter, Tracer, install_layer_spans, scalar_op_ns
    from workloads import Tally

    m: dict = {}
    untraced = statistics.median(wall for wall, _ in passes)
    times = merged_times(passes)
    for stage in ("load", "solve", "check", "oracle", "falsify", "koszul"):
        m[f"stage.{stage}_s"] = typical(times, len(passes), stage)

    tracer = Tracer()
    traced = Tally(tracer=tracer)
    install_layer_spans(tracer, hp)
    try:
        t0 = now()
        wl.run_pass(traced)
        traced_wall = now() - t0
    finally:
        tracer.restore()
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"spans-{wl.name}-seed{seed}.jsonl")

    st = tracer.self_times()

    def self_s(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(st.get(n, (0, 0.0))[0] for n in names)

    m["hopf.validate_s"] = self_s("hopf.validate_hopf")
    m["modalg.validate_action_s"] = self_s("modalg.validate_action")
    m["cli.load_self_s"] = self_s("cli.problem_from_json")
    m["deform.solve_self_s"] = self_s("deform.solve_kappa")
    m["smash.adjoint_vh_calls"] = calls("smash.adjoint_on_VH")
    m["smash.adjoint_vh_s"] = self_s("smash.adjoint_on_VH")
    m["hopf.adjoint_calls"] = calls("hopf.adjoint_on_H")
    m["hopf.adjoint_s"] = self_s("hopf.adjoint_on_H")
    m["exactla.sparse_kernel_s"] = self_s("exactla.sparse_kernel")
    m["exactla.dense_s"] = self_s("exactla.dense")
    m["deform.check_pbw_self_s"] = self_s("deform.check_pbw")
    m["deform.check_invariance_s"] = self_s("deform.check_invariance")
    m["deform.check_overlap_s"] = self_s("deform.check_overlap")
    m["modalg.koszul_calls"] = calls("modalg.koszul_component")
    m["modalg.koszul_s"] = self_s("modalg.koszul_component")
    m["modalg.graded_dim_s"] = self_s("modalg.graded_dim")
    m["smash.straighten_s"] = self_s("smash.straighten", "oracle.straighten")
    m["oracle.filtered_dims_self_s"] = self_s("oracle.filtered_dims")
    m["oracle.straighten_calls"] = calls("oracle.straighten")
    inserts = tracer.counts["exactla.echelon_inserts"]
    m["exactla.echelon_inserts"] = inserts
    m["exactla.echelon_kept_ratio"] = tracer.counts["exactla.echelon_kept"] / inserts if inserts else 0.0
    m["oracle.rank"] = traced.oracle_rank
    m["trace.overhead_ratio"] = traced_wall / untraced
    m["trace.covered_ratio"] = sum(total for _calls, total in st.values()) / traced_wall

    counter = ScalarCounter(hp.scalar.Scalar)
    counted = Tally()
    counter.install()
    try:
        wl.run_pass(counted)
    finally:
        counter.restore()
    m["scalar.mul_count"] = counter.counts["mul"]
    m["scalar.add_count"] = counter.counts["add"]
    m["scalar.inv_count"] = counter.counts["inv"]

    operands = sorted(set(wl.scalar_operands()), key=lambda s: (s.order, s.den, s.num))
    by_field: dict = {}
    for s in operands:
        by_field.setdefault(s.order, []).append(s)
    pairs = [(a, b) for group in by_field.values() for a, b in zip(group, group[1:] + group[:1])]
    m["scalar.mul_ns"] = scalar_op_ns(pairs, lambda a, b: a * b)
    m["scalar.inv_ns"] = scalar_op_ns(pairs, lambda a, b: a.inverse())
    return m, traced.attempted + counted.attempted, traced.failed + counted.failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "hopfpbw" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'hopfpbw'}; "
              "run from the root of a hopfpbw checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed hash seed, so set iteration order (and with it every exact
        # count) repeats from run to run; bytecode is not written into src/
        os.environ["PYTHONHASHSEED"] = "0"
        os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from workloads import WORKLOADS

    t0 = now()
    hp = import_program()
    import_s = now() - t0
    wl = WORKLOADS[args.workload](hp, args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        wl.setup()
        setup_times.append(now() - t0)

    passes = measure(wl, args.seconds)
    attempted = sum(t.attempted for _, t in passes)
    failed = sum(t.failed for _, t in passes)
    if args.trace:
        values, extra_attempted, extra_failed = per_layer(hp, wl, passes, args.seed)
        attempted += extra_attempted
        failed += extra_failed
        wanted = spec["per_layer"]
    else:
        values = end_to_end(import_s, setup_times, passes)
        wanted = spec["end_to_end"]
    names = [w["name"] for w in wanted]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations, {failed} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
