"""``explain-analyze``: the annotated operator tree for one query.

Runs the query once through the planner and the serial executor and joins
three views of the plan on the node's structural address (the join key the
whole observability layer shares, see :mod:`repro.algebra.addressing`):

* the **optimizer's view** — estimated rows from the statistics deriver and
  the C1/C2 dominance-check record behind every sampler decision;
* the **executor's view** — measured rows-in/rows-out and wall time per
  physical operator, plus sampler accuracy telemetry (effective pass rate
  vs. the target ``p``, output Horvitz-Thompson weight mass);
* the **answer's view** — confidence-interval half-width columns of the
  final table, summarized per aggregate.

Addresses printed here are exactly the ``address`` attributes of the trace
spans the same run emits, so a Perfetto trace and an explain tree can be
read side by side.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algebra.addressing import format_address, plan_fingerprint, walk_with_addresses
from repro.algebra.logical import SamplerNode
from repro.engine.operators import CI_SUFFIX
from repro.engine.physical import required_columns

__all__ = ["explain_analyze", "render_explain"]


def _estimated_rows(deriver, node) -> Optional[float]:
    """Optimizer cardinality estimate; None when the deriver cannot price
    the node (e.g. finalized HT aggregates it never saw during costing)."""
    try:
        return float(deriver.stats_for(node).rows)
    except Exception:
        return None


def _decision_for(decisions, spec):
    """The costing decision that produced this physical sampler spec.

    Matched by object identity first (the winning plan holds the very spec
    objects the decisions minted), then by repr as a fallback.
    """
    for decision in decisions:
        if decision.spec is spec:
            return decision
    for decision in decisions:
        if repr(decision.spec) == repr(spec):
            return decision
    return None


def _fmt_rows(value) -> str:
    if value is None:
        return "?"
    if value >= 10_000:
        return f"{value:,.0f}"
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.1f}"


def _ci_summary(table) -> list:
    """Per-aggregate confidence-interval half-width summary of the answer."""
    out = []
    for name in table.column_names:
        if not name.endswith(CI_SUFFIX):
            continue
        target = name[: -len(CI_SUFFIX)]
        ci = np.asarray(table.column(name), dtype=float)
        finite = ci[np.isfinite(ci)]
        if finite.size == 0:
            out.append(f"{target}: CI half-width n/a")
            continue
        line = f"{target}: CI half-width mean={finite.mean():.4g} max={finite.max():.4g}"
        if target in table.column_names:
            values = np.asarray(table.column(target), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.abs(ci / values)
            rel = rel[np.isfinite(rel)]
            if rel.size:
                line += f" (median ±{np.median(rel):.1%} of the estimate)"
        out.append(line)
    return out


def explain_analyze(planner, executor, query) -> str:
    """Plan, execute and render one query's annotated operator tree."""
    result = planner.plan(query)
    execution = executor.execute(result.plan)
    rendered = render_explain(planner, result, execution)
    for footer in (
        _pruning_footer(execution),
        _resident_footer(execution),
        _memory_footer(executor.registry),
    ):
        if footer:
            rendered += "\n" + footer
    return rendered


def _pruning_footer(execution) -> str:
    """One line of partition prune/select telemetry, when the pass fired.

    Mirrors ``ParallelMetrics.pruning`` (the executed scan-prune plan's
    summary dict); absent for serial runs and runs where no partition was
    skipped.
    """
    parallel = getattr(execution, "parallel", None)
    info = getattr(parallel, "pruning", None)
    if not info:
        return ""
    line = (
        f"pruning: {info['partitions_executed']}/{info['partitions_total']} "
        f"{info['table']} partition(s) executed "
        f"({info['partitions_pruned']} pruned exactly"
    )
    if info.get("partitions_selected"):
        line += (
            f", {info['partitions_selected']} kept by weighted selection"
            f" at fraction {info.get('selection_fraction', 0):.2f}"
            f", min inclusion p={info.get('inclusion_min', 1.0):.3f}"
        )
    if info.get("partitions_stale_retained"):
        line += f", {info['partitions_stale_retained']} stale retained"
    line += (
        f"); {info['rows_pruned_actual'] + info['rows_unselected']:,} of "
        f"{info['rows_total']:,} rows skipped  [token {info['token']}]"
    )
    for reason in info.get("predicates", ()):
        line += f"\n  predicate: {reason}"
    for reason in info.get("semijoins", ()):
        line += f"\n  semi-join: {reason}"
    return line


def _resident_footer(execution) -> str:
    """One line of placement telemetry for a query that ran its tasks."""
    parallel = getattr(execution, "parallel", None)
    if not getattr(parallel, "placed_columns", 0):
        return ""
    return (
        f"resident: {parallel.placed_columns - parallel.materialised_columns} of "
        f"{parallel.placed_columns} placed column(s) served from the partition store, "
        f"{parallel.materialised_columns} materialised; "
        f"store holds {parallel.resident_bytes:,} bytes"
    )


def _memory_footer(registry) -> str:
    """One line of ``memory.*`` telemetry: arena occupancy after the run."""
    live = registry.gauge("memory.live_segments").value
    mapped = registry.gauge("memory.bytes_mapped").value
    return f"memory: {int(live)} live segment(s), {int(mapped):,} bytes mapped"


def render_explain(planner, result, execution) -> str:
    """Render an :class:`AsalqaResult` plus its :class:`ExecutionResult`."""
    lines = []
    lines.append(
        f"explain analyze: {result.query_name} "
        f"({'approximable' if result.approximable else 'unapproximable — exact plan'})"
    )
    compile_ms = (
        f"{execution.compile_seconds * 1e3:.2f}ms"
        if execution.compile_seconds is not None
        else "-"
    )
    execute_ms = (
        f"{execution.wall_clock_seconds * 1e3:.2f}ms"
        if execution.wall_clock_seconds is not None
        else "-"
    )
    lines.append(
        f"plan fingerprint {plan_fingerprint(result.plan)[:12]}  "
        f"compile {compile_ms} "
        f"(cache {'hit' if execution.plan_cache_hit else 'miss'})  "
        f"execute {execute_ms}  "
        f"estimated gain {result.estimated_gain():.2f}x"
    )

    by_address = {metric.address: metric for metric in execution.operators or ()}
    deriver = planner.deriver
    required = required_columns(result.plan)

    rows = []
    sampler_lines = []
    for address, node in walk_with_addresses(result.plan):
        metric = by_address.get(address)
        est = _estimated_rows(deriver, node)
        actual = f"{metric.rows_in:,} -> {metric.rows_out:,}" if metric is not None else "-"
        seconds = f"{metric.seconds * 1e3:.2f}ms" if metric is not None else "-"
        label = "  " * len(address) + repr(node)
        cols = f"{len(required[address])}/{len(node.output_columns())}"
        if metric is not None and metric.coded:
            cols += f" ({metric.coded} coded)"
        rows.append((format_address(address), label, cols, _fmt_rows(est), actual, seconds))

        if isinstance(node, SamplerNode):
            detail = [f"{format_address(address)}  {node.spec!r}"]
            decision = _decision_for(result.decisions, node.spec)
            if decision is not None:
                detail.append(
                    f"C1={'yes' if decision.c1 else 'no'} "
                    f"C2={'yes' if decision.c2 else 'no'} "
                    f"support={decision.support:.1f}  <- {decision.reason}"
                )
            telemetry = metric.sampler if metric is not None else None
            if telemetry:
                detail.append(
                    f"target p={telemetry['target_p']:.4f} "
                    f"effective rate={telemetry['effective_rate']:.4f} "
                    f"weight mass={telemetry['weight_mass']:,.1f}"
                )
            sampler_lines.append("  " + "  |  ".join(detail))

    header = ("address", "operator", "cols kept/total", "est rows", "actual in -> out", "time")
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines.append("")
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))

    if sampler_lines:
        lines.append("")
        lines.append("samplers (decision | runtime telemetry):")
        lines.extend(sampler_lines)

    lines.append("")
    answer = execution.answer
    summary = _ci_summary(answer)
    lines.append(f"answer: {answer.num_rows} row(s)")
    if summary:
        lines.extend("  " + entry for entry in summary)
    elif result.approximable:
        lines.append("  (no confidence-interval columns in the answer)")
    return "\n".join(lines)
