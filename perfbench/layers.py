"""Per-layer metrics of a traced run, derived from spans.Tracer's spans.

Per traced iteration, every span name gets its call count and self time;
the metric is the median over traced iterations.  Computed counts: logits
that masked_softmax evaluates (entries) and the share of them on the mask
support, matmul GFLOP/s of forward and backward (FLOPs from the dimensions,
time from the spans), and ForwardCache bytes per sample.  The tracing
overhead is the median, over untraced/traced iteration pairs of the same
run, of the traced minus the untraced wall time.
"""

from __future__ import annotations

import statistics

import spans

SPAN_NAMES = sorted(set(spans.TRACED.values()))

PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    f"{spans.ROOT_SPAN}.self_s": "s",
    "model.masked_softmax.entries": "count",
    "model.masked_softmax.support_frac": "fraction",
    "model.forward.gflop_s": "GFLOP/s",
    "model.backward.gflop_s": "GFLOP/s",
    "model.forward.cache_bytes_per_sample": "B",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def per_layer_metrics(tracer: spans.Tracer, results) -> tuple[dict, dict]:
    """(table, metrics): the full per-span table and the reported metrics."""
    its = tracer.per_iteration()
    med = statistics.median

    def span_median(name: str, field: int) -> float:
        return med(it["spans"].get(name, (0, 0.0, 0.0))[field] for it in its)

    names = sorted({name for it in its for name in it["spans"]})
    table = {name: {"calls": span_median(name, 0), "self_s": span_median(name, 1),
                    "total_s": span_median(name, 2)} for name in names}

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = span_median(name, 0)
        metrics[f"{name}.self_s"] = span_median(name, 1)
    metrics[f"{spans.ROOT_SPAN}.self_s"] = span_median(spans.ROOT_SPAN, 1)

    def count_median(key: str) -> float:
        return med(it["counts"].get(key, 0) for it in its)

    entries = sum(it["counts"].get("model.masked_softmax.entries", 0) for it in its)
    useful = sum(it["counts"].get("model.masked_softmax.useful", 0) for it in its)
    metrics["model.masked_softmax.entries"] = count_median("model.masked_softmax.entries")
    metrics["model.masked_softmax.support_frac"] = _ratio(useful, entries)
    for layer in ("forward", "backward"):
        flops = count_median(f"model.{layer}.flops")
        metrics[f"model.{layer}.gflop_s"] = _ratio(flops / 1e9, span_median(f"model.{layer}", 2))
    metrics["model.forward.cache_bytes_per_sample"] = _ratio(
        count_median("model.forward.cache_bytes"), count_median("model.forward.samples"))

    # results alternate untraced, traced: compare each traced iteration with
    # the untraced one just before it, so machine drift between pairs cancels
    pairs = [(results[k][1].wall_s, results[k + 1][1].wall_s)
             for k in range(0, len(results) - 1, 2)]
    traced_wall = med(t for _, t in pairs)
    untraced_wall = med(u for u, _ in pairs)
    metrics["trace.overhead_s"] = med(t - u for u, t in pairs)
    metrics["trace.overhead_frac"] = med((t - u) / u for u, t in pairs)
    metrics["trace.unattributed_frac"] = med(
        it["spans"][spans.ROOT_SPAN][1] / it["wall_s"] for it in its)
    table["_wall"] = {"traced_iteration_s": traced_wall, "untraced_iteration_s": untraced_wall,
                      "traced_iterations": len(its), "pairs": len(pairs)}
    return table, metrics


def print_table(table: dict) -> None:
    wall = table["_wall"]
    print(f"traced iteration {wall['traced_iteration_s']:.4f} s, untraced "
          f"{wall['untraced_iteration_s']:.4f} s, medians over "
          f"{wall['traced_iterations']} traced iterations")
    print(f"  {'span':46s} {'calls':>10} {'self_s':>10} {'total_s':>10} {'self%':>6}")
    rows = sorted(((k, v) for k, v in table.items() if k != "_wall"),
                  key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        share = 100.0 * row["self_s"] / wall["traced_iteration_s"]
        print(f"  {name:46s} {row['calls']:>10g} {row['self_s']:>10.4f} "
              f"{row['total_s']:>10.4f} {share:>6.1f}")
    print("  gflop_s: matmul FLOPs computed from the dimensions, over measured span time")
