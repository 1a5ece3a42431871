"""Turns a perfbench raw report (and its Chrome traces) into metrics.

The C++ binary (perfbench/src) measures; this module only derives.  Every
function is pure over parsed JSON, so selftest.py can exercise it.

Sources, per metric family (README.md has the full table):
  * benchmark spans   - set-up, build, Compile and Run timings the binary
                        records around public calls (report + kPidBench
                        lane of the trace);
  * existing lanes    - bolt.compile (one span per pass), bolt.cpu (one
                        span per kernel launch), bolt.serve (one span per
                        batch);
  * registry deltas   - always-on metrics::Registry counters/histograms,
                        read before and after each phase.
"""

import json
import math
import statistics
from pathlib import Path

PID_COMPILE = 1
PID_CPU = 4
PID_SERVE = 6
PID_BENCH = 100

PASSES = (
    "LayoutTransformPass",
    "FoldBatchNormPass",
    "EpilogueFusionPass",
    "PaddingPass",
    "PersistentKernelFusionPass",
)
# Top-level spans Engine::Compile emits on the compile lane.
COMPILE_LANE_SPANS = PASSES + ("PreProfile", "BuildModule")

SMALL_M = 16

def _declared(kind):
    """name -> unit of the `kind` metrics BENCHMARK.json declares, in its
    order (the order they are printed)."""
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")

# Tolerances of a traced run's consistency checks, bolt.cpu spans against
# registry deltas.  A span also holds part of the trace sink's own cost.
LAUNCH_TOLERANCE = 0.02  # share of the registry's launches
BUSY_TOLERANCE = 0.10  # share of the registry's busy time ...
BUSY_SLACK_US = 5.0  # ... plus this much per launch


def _only_declared(m, declared):
    undeclared = sorted(set(m) - set(declared))
    if undeclared:
        raise ValueError(f"metrics missing from BENCHMARK.json: {undeclared}")
    return m


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1]); None for no samples."""
    if not values:
        return None
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


def windowed_percentile(phase, q):
    """Median over the phase's one-second windows of each window's
    percentile q (the whole phase when it is shorter than two windows).

    On a shared machine a 10-20 ms stall of the generator or a worker
    lands in one window; the median over windows keeps such a transient
    from deciding the run's tail, while a slowdown that lasts shows in
    every window."""
    lat = phase["latency_us"]
    ends = [int(m) for m in phase["window_marks"]]
    starts = [0] + ends
    windows = [lat[a:b] for a, b in zip(starts, ends) if b > a]
    rest = lat[starts[-1]:]
    if windows and len(rest) * 2 >= len(lat) / (len(windows) + 1):
        windows.append(rest)  # a final window of at least half a second
    if len(windows) < 2:
        return percentile(lat, q)
    return statistics.median(percentile(w, q) for w in windows)


def backlog_growing(phase):
    """True when an open-loop phase ends with a growing backlog.

    `backlog` holds (requests due - requests completed) at 20 even points
    of the phase.  A server that keeps up shows a flat backlog of a few
    requests; one that falls behind grows it linearly, so the last
    quarter sits well above the first.
    """
    b = phase["backlog"]
    first = statistics.median(b[:5])
    last = statistics.median(b[-5:])
    return last > 4 * first + 0.005 * max(1, phase["attempted"])


def _phase(report, name, traced):
    return next((p for p in report["phases"]
                 if p["name"] == name and p["traced"] == traced), None)


def _measured_phase(report, traced=False):
    """The phase end-to-end metrics come from: the closed loop, or the
    open loop's heavy phase."""
    name = "closed" if report["loop"] == "closed" else "heavy"
    return _phase(report, name, traced)


def end_to_end(report):
    """End-to-end metrics of an untraced run: {name: value}.

    An open-loop phase that ends with a growing backlog reports its
    throughput shortfall and no latency (the latency of a queue that
    keeps growing depends only on how long the run lasted)."""
    m = {"setup_s": statistics.median(s["setup_s"] for s in report["setups"])}
    ph = _measured_phase(report)
    lat = ph["latency_us"]
    if report["loop"] == "closed":
        ok_ops = len(lat)
        m["throughput_per_s"] = ok_ops * report["rows_per_op"] / ph["wall_s"]
        grow = False
    else:
        m["throughput_per_s"] = ph["completed_by_end"] / ph["seconds"]
        grow = backlog_growing(ph)
    if not grow and lat:
        pct = percentile if report["loop"] == "closed" else \
            lambda _, q: windowed_percentile(ph, q)
        m["latency_p50_us"] = pct(lat, 0.50)
        m["latency_p90_us"] = pct(lat, 0.90)
    m["peak_rss_mb"] = report["peak_rss_mb"]
    return _only_declared(m, END_TO_END)


def notes(report):
    """Human-readable lines printed before the result: sample counts,
    failure ratio, open-loop phases and generator health."""
    out = []
    attempted, failed = report["attempted"], report["failed"]
    out.append(f"fail_ratio: {ratio(failed, attempted):.6g} "
               f"({failed} of {attempted})")
    for ph in report["phases"]:
        lat = ph["latency_us"]
        tag = f"{ph['name']}{' traced' if ph['traced'] else ''}"
        line = (f"phase {tag}: {len(lat)} ok ops, p50 "
                f"{percentile(lat, 0.5) or 0:.1f} us, p90 "
                f"{percentile(lat, 0.9) or 0:.1f} us")
        if "backlog" in ph:
            thr = ph["completed_by_end"] / ph["seconds"]
            line += (f", offered {ph['rate']:.0f}/s, completed {thr:.0f}/s, "
                     f"generator late p90 {percentile(ph['late_us'], 0.9):.1f}"
                     f" us max {max(ph['late_us'], default=0):.1f} us")
            if backlog_growing(ph):
                line += (f", BACKLOG GROWING: shortfall "
                         f"{ph['rate'] - thr:.0f}/s, latency not reported")
        out.append(line)
    return out


# ---------------------------------------------------------------------
# Traces


def parse_spans(trace):
    """Chrome trace JSON -> list of spans (pid, tid, name, begin, end,
    args), pairing B/E events per lane."""
    stacks = {}
    spans = []
    for e in trace["traceEvents"]:
        ph = e.get("ph")
        key = (e["pid"], e["tid"])
        if ph == "B":
            stacks.setdefault(key, []).append(e)
        elif ph == "E":
            stack = stacks.get(key, [])
            for i in range(len(stack) - 1, -1, -1):
                if stack[i]["name"] == e["name"]:
                    b = stack.pop(i)
                    spans.append({
                        "pid": e["pid"], "tid": e["tid"], "name": e["name"],
                        "begin": b["ts"], "end": e["ts"],
                        "args": b.get("args", {}),
                    })
                    break
    return spans


def phase_windows(spans, phase_name, pid, name):
    """Spans of `pid` called `name` (or starting with it, for a name
    ending in '/') inside the benchmark's span of phase `phase_name`."""
    bounds = [(s["begin"], s["end"]) for s in spans
              if s["pid"] == PID_BENCH and s["name"] == "phase/" + phase_name]
    def match(s):
        return s["name"].startswith(name) if name.endswith("/") \
            else s["name"] == name
    return [s for s in spans if s["pid"] == pid and match(s) and
            any(b <= s["begin"] <= e for b, e in bounds)]


def _within(spans, windows, pid):
    """Spans of `pid` that start inside a window on the same thread lane."""
    by_tid = {}
    for w in windows:
        by_tid.setdefault(w["tid"], []).append((w["begin"], w["end"]))
    out = []
    for s in spans:
        if s["pid"] != pid:
            continue
        for b, e in by_tid.get(s["tid"], ()):
            if b <= s["begin"] <= e:
                out.append(s)
                break
    return out


def gemm_m(span):
    """GEMM M of a bolt.cpu launch span.  cpu_gemm_MxNxK names it; a
    cpu_conv_{n}x{h}x{w}x{c}_k{oc}_{kh}x{kw} span derives it from its
    FLOPs (2*M*N*K with N = oc, K = kh*kw*c)."""
    name = span["name"]
    if name.startswith("cpu_gemm_"):
        return int(name[len("cpu_gemm_"):].split("x")[0])
    dims, k_part, taps = name[len("cpu_conv_"):].split("_")
    c = int(dims.split("x")[3])
    oc = int(k_part[1:])
    kh, kw = (int(t) for t in taps.split("x"))
    return int(span["args"].get("flops", 0)) // (2 * oc * kh * kw * c)


def setup_layers(report, setup_trace):
    """Per-set-up medians of build, compile, per-pass and registry
    numbers."""
    spans = parse_spans(setup_trace) if setup_trace else []
    windows = [s for s in spans if s["pid"] == PID_BENCH and
               s["name"] == "setup"]
    per_rep = []
    for w in windows:
        rep = {}
        for s in spans:
            if s["pid"] != PID_COMPILE or s["name"] not in COMPILE_LANE_SPANS:
                continue
            if w["begin"] <= s["begin"] <= w["end"]:
                rep[s["name"]] = rep.get(s["name"], 0.0) + \
                    (s["end"] - s["begin"]) / 1e3
        per_rep.append(rep)

    def med(f):
        return statistics.median(f(r) for r in per_rep) if per_rep else 0.0

    setups = report["setups"]
    m = {"models.build_ms": statistics.median(s["build_ms"] for s in setups)}
    if report["loop"] == "closed":
        m["bolt.compile_ms"] = statistics.median(
            s["compile_ms"] for s in setups)
    else:  # Compile runs inside Server::Prewarm: sum the compile lane.
        m["bolt.compile_ms"] = med(lambda r: sum(r.values()))
    for p in PASSES:
        m[f"bolt.pass_ms.{p}"] = med(lambda r, p=p: r.get(p, 0.0))
    m["bolt.build_module_ms"] = med(lambda r: r.get("BuildModule", 0.0))
    for name in ("cache_misses", "candidates_measured"):
        m[f"profiler.{name}"] = statistics.median(
            s["registry"][f"profiler.{name}"] for s in setups)
    g = report.get("graph")
    if g:
        m["bolt.nodes_after"] = g["nodes_after"]
        m["bolt.const_mb"] = g["const_mb"]
        m["bolt.layout_transforms"] = g["layout_transforms"]
        m["bolt.epilogues_fused"] = g["epilogues_fused"]
        m["bolt.batchnorms_folded"] = g["batchnorms_folded"]
    return m


def kernel_counts(reg, ops, graph):
    """cpukernels busy time, launches and FLOPs over a phase, each launch
    counted once.

    A 1x1 stride-1 unpadded NHWC conv runs through GemmRaw, so cpukernels
    records it in cpu.conv.* and again in cpu.gemm.*.  The graph says how
    many such convs (and FLOPs) one operation runs; their launches and
    FLOPs are subtracted exactly, and their GEMM-side time is taken as
    their share of cpu.gemm FLOPs (exact when every GEMM launch is such a
    conv)."""
    pw_launches = (graph or {}).get("pointwise_convs", 0) * ops
    pw_flops = (graph or {}).get("pointwise_flops", 0.0) * ops
    gemm_us = reg["cpu.gemm.us.sum"]
    nested_us = gemm_us * min(1.0, ratio(pw_flops, reg["cpu.gemm.flops"]))
    return {
        "busy_us": gemm_us + reg["cpu.conv.us.sum"] - nested_us,
        "launches": reg["cpu.gemm.launches"] + reg["cpu.conv.launches"] -
        pw_launches,
        "flops": reg["cpu.gemm.flops"] + reg["cpu.conv.flops"] - pw_flops,
    }


def run_layers(report, run_trace):
    """Per-layer numbers of the traced half of a run."""
    closed = report["loop"] == "closed"
    ph = _measured_phase(report, traced=True)
    reg = ph["registry"]
    spans = parse_spans(run_trace) if run_trace else []
    if closed:
        ops = ph["attempted"]
        run_us = statistics.fmean(ph["latency_us"]) if ph["latency_us"] \
            else 0.0
        windows = phase_windows(spans, ph["name"], PID_BENCH, "Engine::Run")
    else:  # per batch: one RunBatch per serve.batch span
        ops = reg["serve.batch.count"]
        run_us = ratio(reg["serve.batch.exec_us.sum"],
                       reg["serve.batch.exec_us.count"])
        windows = phase_windows(spans, ph["name"], PID_SERVE, "serve.batch/")
    kc = kernel_counts(reg, ops, report.get("graph"))
    launches = _within(spans, windows, PID_CPU)
    span_busy = sum(s["end"] - s["begin"] for s in launches)
    small = sum(s["end"] - s["begin"] for s in launches
                if gemm_m(s) <= SMALL_M)
    busy = ratio(kc["busy_us"], ops)
    m = {
        "engine.run_us": run_us,
        "engine.host_us": run_us - busy,
        "engine.host_share": ratio(run_us - busy, run_us),
        "cpukernels.busy_us": busy,
        "cpukernels.span_busy_us": ratio(span_busy, ops),
        "cpukernels.launches": ratio(kc["launches"], ops),
        "cpukernels.gflops": ratio(kc["flops"], kc["busy_us"] * 1e3),
        "cpukernels.small_m_share": ratio(small, span_busy),
        "cpukernels.simd_launch_share": ratio(reg["cpu.simd.pack.launches"],
                                              kc["launches"]),
    }
    for k in ("hit", "near", "miss"):
        m[f"cpukernels.tuned_lookup.{k}"] = ratio(
            reg[f"cpu.tuned.lookup.{k}"], ops)
    checks = {
        "span_launches": len(launches) / ops if ops else 0.0,
        "registry_launches": m["cpukernels.launches"],
    }
    return m, checks


def serve_layers(report):
    """serve.*, gen.* and light-phase numbers of an open-loop run: queueing
    numbers from the traced pass, latencies from the untraced one."""
    heavy_t = _phase(report, "heavy", True)
    light_t = _phase(report, "light", True)
    heavy_u = _phase(report, "heavy", False)
    light_u = _phase(report, "light", False)
    hr, lr = heavy_t["registry"], light_t["registry"]
    exec_light = ratio(lr["serve.batch.exec_us.sum"],
                       lr["serve.batch.exec_us.count"])
    rows = hr["serve.batch.rows.sum"]
    padded = hr["serve.batch.padded_rows.sum"]
    dispatch = sum(hr[f"serve.sched.dispatch.{k}"]
                   for k in ("full", "deadline", "slack"))
    return {
        "serve.submit_us": ratio(heavy_t["submit_us_sum"],
                                 heavy_t["attempted"]),
        "serve.exec_us": ratio(hr["serve.batch.exec_us.sum"],
                               hr["serve.batch.exec_us.count"]),
        "serve.outside_exec_us": (statistics.fmean(light_t["latency_us"])
                                  if light_t["latency_us"] else 0.0) -
        exec_light,
        "serve.rows_per_batch": ratio(rows, hr["serve.batch.count"]),
        "serve.pad_ratio": ratio(padded, rows + padded),
        "serve.dispatch.full_share": ratio(hr["serve.sched.dispatch.full"],
                                           dispatch),
        "serve.engine_misses": hr["serve.engine.miss"] +
        lr["serve.engine.miss"],
        "serve.light_latency_p50_us": windowed_percentile(light_u, 0.5)
        or 0.0,
        "serve.light_latency_p90_us": windowed_percentile(light_u, 0.9)
        or 0.0,
        "gen.late_p90_us": percentile(heavy_u["late_us"], 0.9) or 0.0,
        "gen.late_max_us": max(heavy_u["late_us"], default=0.0),
    }


def per_layer(report, setup_trace, run_trace):
    """Per-layer metrics of a traced run: every PER_LAYER name, 0 where a
    layer does not take part in the workload.  Also returns the
    consistency checks."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(setup_layers(report, setup_trace))
    layers, checks = run_layers(report, run_trace)
    m.update(layers)
    if report["loop"] == "open":
        m.update(serve_layers(report))
    untraced = percentile(_measured_phase(report)["latency_us"], 0.5)
    traced = percentile(_measured_phase(report, True)["latency_us"], 0.5)
    if untraced and traced:
        m["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return _only_declared(m, PER_LAYER), checks


def consistency_errors(m, checks):
    """Where the bolt.cpu spans and the registry deltas of a traced run
    disagree beyond the tolerances above: per operation, the launch
    counts, and the busy times.  (engine.host_us is run_us - busy_us by
    definition, so the busy times are what the split rests on.)"""
    errors = []
    launches, span_launches = checks["registry_launches"], \
        checks["span_launches"]
    if abs(span_launches - launches) > LAUNCH_TOLERANCE * launches:
        errors.append(f"launches per op: {launches:.3f} (registry) vs "
                      f"{span_launches:.3f} (bolt.cpu)")
    busy, span_busy = m["cpukernels.busy_us"], m["cpukernels.span_busy_us"]
    if abs(span_busy - busy) > BUSY_TOLERANCE * busy + \
            BUSY_SLACK_US * launches:
        errors.append(f"busy per op: {busy:.1f} us (registry) vs "
                      f"{span_busy:.1f} us (bolt.cpu)")
    return errors
