"""perfbench — the repository benchmark (see ``BENCHMARK.json``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/workloads.py``): ``construct``, ``improve``,
``online``, ``campaign``.  Every op is pinned to the compiled ``cext``
engine; the extension is built in place first when it is not
importable (outside every timing).

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median of several set-ups: interpreter + imports +
extension load in a fresh process, then input generation),
``peak_rss_mb``, the op latency median and 90th percentile
(``op_ms.p50`` / ``op_ms.p90``) and the work rate ``work_per_s``.
Every time in them is read at the reference host speed
(``perfbench/pace.py``): a reference pass runs between ops, and each
measured span is scaled by the reference's nominal over its measured
duration nearby, which takes the host's drift in speed out of the
figures but not a change in the program.  The unscaled figures are
printed and written next to them.
What "op" and "work" are per workload, and the names the issue and
later PRs use for them (``run_ms.p50``, ``moves_per_s``, ...), are in
``perfbench/predictions.json`` and printed above the result line.

``--trace 1`` runs the workload's fixed traced op list twice untraced,
once traced (every layer entry point of ``perfbench/layers.py``
wrapped) and once under a ``repro.obs`` collector for the program's own
counters; all four must produce the same outputs.  It reports the
per-layer metrics: self time per op of every layer, counts, and ``residual_ms``
(traced wall time covered by no layer), so that the layer self times
plus the residual equal ``traced_wall_ms``.  The spans are written as
Chrome-trace JSON (open in Perfetto) under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(environment stamp, extension build info, seed, sample counts, every
failure) is written to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from pace import NEIGHBOURS, NOMINAL_S, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BUILD = ROOT / ".bench_build"
#: Per-run scratch space (campaign result caches), removed at exit.
SCRATCH = OUT / "tmp" / f"run-{os.getpid()}"

WORKLOADS = ("construct", "improve", "online", "campaign")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: What a fresh process imports before it can run any workload.
IMPORTS = ("import repro.campaign, repro.online, repro.search, "
           "repro.kernel._cext, repro.kernel.cext_backend")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_probe() -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)


def ensure_extension() -> str | None:
    """Make ``repro.kernel._cext`` importable; an error message on failure.

    Builds in place (``setup.py build_ext``) with every intermediate
    under ``.bench_build/``; the built module lands next to its source,
    where ``.gitignore`` keeps it untracked.
    """
    if _import_probe().returncode == 0:
        return None
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(BUILD / "cext-temp"), "--build-lib", str(BUILD / "cext-lib")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=600,
    )
    probe = _import_probe()
    if probe.returncode == 0:
        return None
    return (f"cannot build repro.kernel._cext:\n{build.stdout[-2000:]}{build.stderr[-2000:]}"
            f"{probe.stderr[-2000:]}")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``samples`` (0 for none)."""
    if not samples:
        return 0.0
    xs = sorted(samples)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def top_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90/p50 with at least 10 samples beyond it."""
    for q in (0.999, 0.99, 0.9, 0.5):
        if n * (1 - q) >= 10 - 1e-9:  # 1 - 0.9 is a hair below 0.1
            return q
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def make_workload(name: str):
    import workloads

    if name == "campaign":
        return workloads.Campaign(SCRATCH)
    return {"construct": workloads.Construct, "improve": workloads.Improve,
            "online": workloads.Online}[name]()


def timed_setup(workload, seed: int, pace: Pace):
    """Median set-up time over ``SETUP_REPS`` (at the reference speed,
    and as measured) and the last inputs."""
    spans, inputs = [], None
    for _ in range(SETUP_REPS):
        pace.calibrate(NEIGHBOURS)
        t0 = perf_counter()
        probe = _import_probe()
        if probe.returncode != 0:
            raise RuntimeError(f"import probe failed: {probe.stderr[-500:]}")
        inputs = workload.inputs(seed)
        spans.append((t0, perf_counter()))
    pace.calibrate(NEIGHBOURS)
    return (statistics.median(pace.seconds(*s) for s in spans),
            statistics.median(pace.raw(*s) for s in spans), inputs)


def cycle_metrics(cycles, span_s) -> dict[str, float]:
    """Op latency p50/p90 (ms) over every op sample of ``cycles`` and the
    median work rate over cycles (every cycle does the same work);
    spans read with ``span_s``."""
    samples = [s for c in cycles for s in c.samples(span_s)]
    rates = [c.work / c.busy_s(span_s) for c in cycles]
    return {"op_ms.p50": quantile(samples, 0.5) * 1e3,
            "op_ms.p90": quantile(samples, 0.9) * 1e3,
            "work_per_s": statistics.median(rates) if rates else 0.0}


def end_to_end(workload, seed: int, seconds: float, predictions: dict):
    pace = Pace()
    setup_s, setup_raw_s, inputs = timed_setup(workload, seed, pace)
    tally = workload.measure(inputs, seconds, pace)
    cycles = [c for c in tally.cycles if c.ops and c.busy]
    samples = [s for c in cycles for s in c.samples(pace.seconds)]
    scaled, raw = cycle_metrics(cycles, pace.seconds), cycle_metrics(cycles, pace.raw)
    raw["setup_s"] = setup_raw_s

    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "op_ms.p50": (scaled["op_ms.p50"], "ms", len(samples)),
        "op_ms.p90": (scaled["op_ms.p90"], "ms", len(samples)),
        "work_per_s": (scaled["work_per_s"], "1/s", sum(c.work for c in cycles)),
    }
    info = predictions["workloads"][workload.name]
    aliases = info["aliases"]
    passes = pace.durations
    lines = [f"  {len(cycles)} cycles, {len(samples)} op samples; op quantiles over all "
             f"samples, work rate a median over cycles, at the reference host speed "
             f"({len(passes)} reference passes, median {statistics.median(passes) * 1e3:.3f} ms, "
             f"nominal {NOMINAL_S * 1e3:g} ms; raw = as measured)"]
    for name, (value, unit, n) in metrics.items():
        alias = aliases.get(name, name)
        measured = f" raw {raw[name]:.4f}" if name in raw else ""
        lines.append(f"  {alias:<18} {value:14.4f} {info['units'].get(name, unit):<9} "
                     f"n={n:<6} [{name}]{measured}")
    top = top_percentile(len(samples))
    if top is not None and top > 0.9:
        op_alias = aliases["op_ms.p50"].rsplit(".", 1)[0]
        lines.append(f"  {op_alias}.p{top * 100:g}".ljust(21)
                     + f"{quantile(samples, top) * 1e3:14.4f} ms        n={len(samples)}")
    ref = tally.extra.get("ref_run")
    if ref:
        lines.append(f"  {'ref_run_ms.p50':<18} {quantile(ref, 0.5) * 1e3:14.4f} ms        "
                     f"n={len(ref)} [python tier]")
    fail_ratio = len(tally.failures) / tally.attempted if tally.attempted else 1.0
    lines.append(f"  {'fail_ratio':<18} {fail_ratio:14.4f} ratio     n={tally.attempted}")
    extra = {"fail_ratio": fail_ratio, "ref_run_ms.p50": quantile(ref, 0.5) * 1e3 if ref else None,
             "raw": raw,
             "pace": {"nominal_ms": NOMINAL_S * 1e3, "passes_ms": [d * 1e3 for d in passes]},
             "cycles": [{**cycle_metrics([c], pace.seconds),
                         "raw": cycle_metrics([c], pace.raw)} for c in cycles]}
    return metrics, tally, lines, extra


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _timed_pass(workload, seed: int):
    t0 = perf_counter()
    ops, outputs, tally = workload.trace_pass(seed)
    wall = perf_counter() - t0
    return wall, ops, _fingerprint(workload, outputs), tally


def _fingerprint(workload, outputs):
    digest = getattr(workload, "fingerprint", None)
    return outputs if digest is None else digest(outputs)


def traced(workload, seed: int):
    import layers
    from spans import SpanRecorder

    from repro.obs import collect

    # two untraced passes: the first also absorbs one-time warm-up
    untraced_wall, ops, untraced, _ = min(
        _timed_pass(workload, seed), _timed_pass(workload, seed), key=lambda p: p[0])
    recorder = SpanRecorder()
    layers.install(recorder, workload.name)
    try:
        origin = perf_counter()
        _, outputs, tally = workload.trace_pass(seed)
        wall = perf_counter() - origin
    finally:
        recorder.uninstall()
    prints = _fingerprint(workload, outputs)
    # The obs counters come from the program's own collector, in a pass
    # of their own so its cost stays out of the span times.  The
    # campaign skips it: it would switch per-cell collection on in the
    # pool workers.
    with nullcontext() if workload.name == "campaign" else collect() as stats:
        _, _, counted, _ = _timed_pass(workload, seed)
    spans = recorder.closed_spans()
    for label, other in (("untraced", untraced), ("obs-collecting", counted)):
        if other != prints:
            tally.fail("decision neutrality", f"traced outputs differ from the {label} pass")
    counters = dict(stats.counters) if stats is not None else {}
    metrics = layer_metrics(spans, wall, ops, counters, tally.extra)
    metrics["trace_overhead"] = wall / untraced_wall
    return metrics, tally, spans, origin, wall


def layer_metrics(spans, wall: float, ops: int, counters: dict, extra: dict) -> dict:
    """Every per-layer metric from one traced pass (zeros where unused)."""
    from spans import call_counts, durations, residual, self_times

    own = self_times(spans)
    calls = call_counts(spans)

    def ms(*names):
        return sum(own.get(n, 0.0) for n in names) * 1e3 / ops

    def per_op(*names):
        return sum(calls.get(n, 0) for n in names) / ops

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    def pct_ms(name, q):
        return quantile(durations(spans, name), q) * 1e3

    cells = extra.get("cell_runtimes", [])
    workers = extra.get("workers", 1)
    runs = durations(spans, "campaign.run")
    executes = durations(spans, "campaign.execute")
    leftover = residual(spans, wall)
    return {
        "graphs.generate_ms": ms("graphs.generate"),
        "kernel.statics.compile_ms": ms("kernel.statics.compile", "kernel.statics.flatten"),
        "kernel.statics.compiles": per_op("kernel.statics.compile"),
        "core.ranking.ms": ms("core.ranking"),
        "core.ranking.calls": per_op("core.ranking"),
        "heuristics.queue_ms": ms("heuristics.queue"),
        "heuristics.queue_ops": per_op("heuristics.queue"),
        "heuristics.state_init_ms": ms("heuristics.state_init"),
        "heuristics.sweep_ms": ms("heuristics.sweep"),
        "heuristics.sweep_calls": per_op("heuristics.sweep"),
        "heuristics.commit_ms": ms("heuristics.commit"),
        "heuristics.commits": per_op("heuristics.commit"),
        "heuristics.journal_ms": ms("heuristics.journal"),
        "heuristics.run_self_ms": ms("heuristics.run"),
        "heuristics.commits_per_candidate": ratio("builder.commits", "builder.candidates"),
        "core.schedule.materialize_ms": ms("core.schedule.materialize"),
        "core.schedule.records": per_op("core.schedule.materialize"),
        "simulate.extract_ms": ms("simulate.extract"),
        "simulate.replay_self_ms": ms("simulate.replay"),
        "kernel.timed.compile_ms": ms("kernel.timed.compile"),
        "kernel.timed.propagate_ms": ms("kernel.timed.propagate"),
        "kernel.timed.propagate_calls": per_op("kernel.timed.propagate"),
        "kernel.timed.patch_ms": ms("kernel.timed.patch"),
        "kernel.timed.patched_nodes": ratio("search.patched_nodes", "search.previews"),
        "search.load_ms": ms("search.load"),
        "search.propose_ms": ms("search.propose"),
        "search.preview_ms.p50": pct_ms("search.preview", 0.5),
        "search.preview_self_ms": ms("search.preview"),
        "search.commit_ms": ms("search.commit"),
        "search.critical_ms": ms("search.critical"),
        "search.run_self_ms": ms("search.run"),
        "search.accept_ratio": ratio("search.commits", "search.previews"),
        "online.replan_ms.p50": pct_ms("online.replan", 0.5),
        "online.replan_ms.p90": pct_ms("online.replan", 0.9),
        "online.replans": per_op("online.replan"),
        "online.replan_self_ms": ms("online.replan"),
        "online.loop_self_ms": ms("online.loop"),
        "online.port_waits": counters.get("online.port_waits", 0) / ops,
        "campaign.run_self_ms": ms("campaign.run"),
        "campaign.triage_ms": ms("campaign.triage"),
        "campaign.execute_ms": ms("campaign.execute"),
        "campaign.cell_ms.p50": quantile(cells, 0.5) * 1e3,
        "campaign.transport_ms": (ms("campaign.execute") - sum(cells) * 1e3 / workers / ops
                                  if cells else 0.0),
        "campaign.occupancy": (sum(cells) / (workers * executes[0])
                               if cells and executes else 0.0),
        "campaign.cache_put_ms": ms("campaign.cache_put"),
        "campaign.cache_load_ms": ms("campaign.cache_load"),
        "campaign.reassemble_ms": ms("campaign.reassemble"),
        "campaign.warm_ms": runs[1] * 1e3 / ops if len(runs) > 1 else 0.0,
        "traced_wall_ms": wall * 1e3 / ops,
        "residual_ms": leftover * 1e3 / ops,
        "residual_share": leftover / wall,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _bench_env() -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from _harness import bench_env
    except ImportError as exc:  # the stamp is provenance, not measurement
        return {"error": f"benchmarks/_harness unavailable: {exc}"}
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return bench_env()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    error = ensure_extension()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_BACKEND"] = "cext"  # pool workers inherit the engine too

    from repro.kernel.cext_backend import cext_build_info

    predictions = json.loads((HERE / "predictions.json").read_text())
    workload = make_workload(args.workload)
    OUT.mkdir(exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stem": f"{args.workload}-seed{args.seed}-trace{args.trace}",
              "env": _bench_env(), "cext_build_info": cext_build_info()}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"engine=cext build={result['cext_build_info']}")
    try:
        tally, lines = _measure(args, workload, predictions, result)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("\n".join(lines))
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    (OUT / f"{result['stem']}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    attempted = max(tally.attempted, 1)
    print(json.dumps({"correct": not tally.failures, "attempted": attempted,
                      "failed": min(len(tally.failures), attempted),
                      "metrics": result["metrics"]}))
    return 0


def _measure(args, workload, predictions, result):
    """Run the end-to-end or the traced measurement; fill ``result``."""
    stem = result["stem"]
    if args.trace == 0:
        metrics, tally, lines, extra = end_to_end(workload, args.seed, args.seconds, predictions)
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}
        result["samples"] = {k: n for k, (_v, _u, n) in metrics.items()}
        result.update(extra)
    else:
        from spans import chrome_trace

        metrics, tally, spans, origin, wall = traced(workload, args.seed)
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        out_metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}
        lines = [f"  {k:<34} {v:14.4f} {units.get(k, '')}" for k, v in metrics.items() if v]
        lines.append(f"  layer self times + residual_ms = traced_wall_ms "
                     f"({wall * 1e3:.1f} ms over {len(spans)} spans)")
        trace_path = OUT / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(chrome_trace(
            spans, args.workload, origin,
            {"workload": args.workload, "seed": args.seed, "env": result["env"]})))
        lines.append(f"  spans: {trace_path.relative_to(ROOT)} (Chrome trace; open in Perfetto)")
    result.update(metrics=out_metrics, attempted=tally.attempted, failures=tally.failures)
    return tally, lines


if __name__ == "__main__":
    sys.exit(main())
