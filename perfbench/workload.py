"""One pass of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per pass so every pass pays the
import and registry load a user's fresh ``python -m repro`` pays, and
so ``getrusage`` reports the CPU time and peak memory of this pass
alone (pool workers included: the pool joins them before the pass
ends).  The pass prints one JSON object on its last stdout line.

Usage (from the repository root)::

    python3 perfbench/workload.py --workload ftgcs_event [--seed N]
        [--processes P] [--profile] [--pins perfbench/pins.json]

Without ``--seed`` every experiment runs at its registered seed, the
one the published tables use, and the pass is compared against
``--pins`` (per-cell and per-table digests, work counts).  With
``--seed N``, N is applied to every experiment of the workload and only
the seed-independent invariants are checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import traceback

from tracing import Tracer, call_counts, cumulative_s, layer_ledger

#: Batch grids: experiment ids whose quick plans form the workload, and
#: whether its cells run on a pool of one worker per CPU.
GRIDS = {
    "ftgcs_event": {"experiments": ("t01", "t09"), "pooled": False},
    "sweep_event": {"experiments": ("t14", "t16"), "pooled": True},
}
#: The million-node cell: the largest t17 (full) caterpillar, run for
#: enough rounds that graph construction, build and rounds each take a
#: visible share of the pass.
VEC_GRAPH_ARGS = (255, 3922)
VEC_ROUNDS = 20
WORKLOADS = (*GRIDS, "vec_million")


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ----------------------------------------------------------------------
# Seed-independent correctness checks, one per experiment table
# ----------------------------------------------------------------------

def _check_t01(table) -> list[str]:
    return [f"t01 D={row[0]}: steady local skew above its bound"
            for row in table.rows if row[-1] is not True]


def _check_t09(table) -> list[str]:
    problems, recovery = [], {}
    for scenario, diameter, policy, value, bound, holds in table.rows:
        if scenario == "random init":
            if holds is not True or not value <= bound:
                problems.append(f"t09 D={diameter}: global skew {value} "
                                f"above bound {bound}")
        else:
            recovery[policy] = value
    max_rule = recovery.get("max_rule", math.inf)
    if not (math.isfinite(max_rule)
            and max_rule < recovery.get("slow_default", -math.inf)):
        problems.append(f"t09 lagging tail: max_rule recovery {max_rule} "
                        f"not finite and below slow_default "
                        f"{recovery.get('slow_default')}")
    return problems


def _check_t14(table) -> list[str]:
    problems = []
    for protocol, diameter, mu, kappa, local, global_, *_ in table.rows:
        if kappa is None:  # infeasible FTGCS mu: no simulation ran
            continue
        if not (math.isfinite(local) and local > 0.0
                and math.isfinite(global_)):
            problems.append(f"t14 {protocol} D={diameter} mu={mu}: "
                            f"skews local={local} global={global_}")
    return problems


def _check_t16(table) -> list[str]:
    problems = []
    for protocol, loss, churn, steady, _stab, lost, _down, crashes, \
            rejoins in table.rows:
        where = f"t16 {protocol} loss={loss} churn={churn}"
        if not math.isfinite(steady):
            problems.append(f"{where}: steady skew {steady}")
        if (lost > 0) != (loss > 0):
            problems.append(f"{where}: {lost} messages lost")
        if churn == 0 and (crashes or rejoins):
            problems.append(f"{where}: {crashes} crashes without churn")
    return problems


CHECKS = {"t01": _check_t01, "t09": _check_t09, "t14": _check_t14,
          "t16": _check_t16}


# ----------------------------------------------------------------------
# Work accounting
# ----------------------------------------------------------------------

def _node_rounds(spec, clusters: int) -> int:
    """Simulated node-rounds of one event cell: a ``gcs_single`` node
    per vertex and one round per broadcast period; ``k`` nodes per
    cluster and ``rounds`` rounds for the clustered protocols."""
    payload = spec.payload
    if "until" in payload:
        return clusters * math.floor(
            payload["until"] / payload["params"].period + 1e-9)
    rounds = payload.get("rounds", spec.rounds)
    return clusters * spec.params.cluster_size * rounds


def _result_counts(result) -> dict:
    return {"sim.events": result.events_processed,
            "net.messages_sent": result.messages_sent,
            "net.messages_dropped": result.messages_dropped,
            "net.messages_lost": result.messages_lost}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def run_grid(tracer: Tracer, name: str, seed: int | None,
             processes: int, out: dict) -> None:
    from repro.harness import serialize
    from repro.harness.registry import REGISTRY
    from repro.harness.sweep import SweepRunner, resolve_cell_seeds, run_cell

    experiments = GRIDS[name]["experiments"]
    with tracer.span("plan", profile=True):
        plans = []
        for eid in experiments:
            experiment = REGISTRY.get(eid)
            base = experiment.default_seed if seed is None else seed
            plan = experiment.plan(quick=True, seed=base)
            plans.append((experiment, plan,
                          resolve_cell_seeds(plan.specs, base)))
    specs = [spec for _, _, resolved in plans for spec in resolved]

    with tracer.span("sweep"):
        results = None
        if processes > 1:
            with tracer.span("pool", profile=True):
                try:
                    results = SweepRunner(processes).run(specs)
                except Exception:  # isolate the failing cells below
                    results = None
        if results is None:
            results = []
            for spec in specs:
                with tracer.span("cell", profile=True):
                    try:
                        results.append(run_cell(spec))
                    except Exception as exc:  # counted, not fatal
                        results.append(exc)

    cells, tables, problems = out["cells"], out["tables"], out["problems"]
    start = 0
    for experiment, plan, resolved in plans:
        eid = experiment.id
        mine = results[start:start + len(resolved)]
        start += len(resolved)
        first = len(cells)
        for index, result in enumerate(mine):
            record = {"exp": eid, "index": index, "digest": None,
                      "error": None, "counts": {}}
            if isinstance(result, Exception):
                record["error"] = _error(result)
            else:
                record["counts"] = _result_counts(result.result)
            cells.append(record)
        if any(c["error"] for c in cells[first:]):
            tables[eid] = None
            problems.append(f"{eid}: a cell raised; table not finished")
            continue
        try:
            with tracer.span("finish", profile=True):
                table = plan.finish(mine, experiment.make_table())
            with tracer.span("digest", profile=True):
                tables[eid] = serialize.content_hash(
                    table.to_dict(json_safe=True))
                for record, result in zip(cells[first:], mine):
                    record["digest"] = serialize.content_hash(result)
            with tracer.span("check", profile=True):
                found = CHECKS[eid](table)
        except Exception as exc:  # counted, not fatal
            tables[eid] = None
            found = [f"{eid}: {_error(exc)}"]
        for problem in found:
            problems.append(problem)
            for record in cells[first:]:
                record["failed"] = True

    out["specs"] = specs


def run_vec(tracer: Tracer, seed: int | None, out: dict) -> None:
    from repro.core.protocol import SystemBuilder
    from repro.harness import serialize
    from repro.harness.registry import REGISTRY
    from repro.topology.cluster_graph import ClusterGraph

    with tracer.span("plan", profile=True):
        experiment = REGISTRY.get("t17")
        base = experiment.default_seed if seed is None else seed
        plan = experiment.plan(quick=False, seed=base)
        spec = next(s for s in plan.specs if s.graph_args == VEC_GRAPH_ARGS)
        payload = dict(spec.payload,
                       until=VEC_ROUNDS * spec.payload["params"].period)
    record = {"exp": "t17", "index": 0, "digest": None, "error": None,
              "counts": {}}
    out["cells"].append(record)
    try:
        with tracer.span("sweep"), tracer.span("cell"):
            with tracer.span("topology", profile=True):
                graph = getattr(ClusterGraph, spec.graph)(*spec.graph_args)
            with tracer.span("build", profile=True):
                system = (SystemBuilder(spec.protocol).topology(graph)
                          .engine(spec.engine).payload(**payload)
                          .seed(spec.seed).build())
            with tracer.span("run", profile=True):
                result = system.run()
        with tracer.span("digest", profile=True):
            record["digest"] = serialize.content_hash(result)
        with tracer.span("check", profile=True):
            rounds = result.detail["rounds"]
            slots = 2 * graph.num_edges
            found = []
            if not (math.isfinite(result.max_local_skew)
                    and math.isfinite(result.max_global_skew)):
                found.append(f"vec skews local={result.max_local_skew} "
                             f"global={result.max_global_skew}")
            if rounds != VEC_ROUNDS or result.messages_sent != rounds * slots:
                found.append(f"vec messages_sent {result.messages_sent} "
                             f"!= rounds {rounds} x slots {slots}")
    except Exception as exc:  # counted, not fatal
        record["error"] = _error(exc)
        out["problems"].append(f"t17 vec cell: {record['error']}")
        return
    out["problems"].extend(found)
    if found:
        record["failed"] = True
    record["counts"] = {"net.messages_sent": result.messages_sent,
                        "net.messages_dropped": result.messages_dropped,
                        "net.messages_lost": result.messages_lost,
                        "engine_vec.rounds": rounds,
                        "engine_vec.slots": slots}
    out["vec"] = {"nodes": graph.num_clusters, "edges": graph.num_edges,
                  "node_rounds": graph.num_clusters * rounds}


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------

def compare_pins(out: dict, pins: dict) -> None:
    """Mark cells whose digest differs from the pinned one; flag a
    table digest or work-count total that differs as a problem."""
    cell_pins = pins.get("cells", {})
    for record in out["cells"]:
        key = f"{record['exp']}/{record['index']}"
        if record["digest"] is not None \
                and cell_pins.get(key) != record["digest"]:
            record["failed"] = True
            out["problems"].append(f"{key}: digest {record['digest']} != "
                                   f"pinned {cell_pins.get(key)}")
    for eid, digest in out["tables"].items():
        if digest is not None and pins.get("tables", {}).get(eid) != digest:
            out["problems"].append(f"{eid}: table digest {digest} != "
                                   f"pinned {pins['tables'].get(eid)}")
            for record in out["cells"]:
                if record["exp"] == eid:
                    record["failed"] = True
    if any(record["error"] for record in out["cells"]):
        return  # the totals lack the raised cells, which already fail
    pinned_counts = pins.get("counts", {})
    for name, value in out["counts"].items():
        if name in pinned_counts and pinned_counts[name] != value:
            out["problems"].append(f"{name}: {value} != pinned "
                                   f"{pinned_counts[name]}")
            for record in out["cells"]:
                record["failed"] = True


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def run_pass(name: str, seed: int | None, processes: int, profile: bool,
             pins: dict | None) -> dict:
    tracer = Tracer(profile=profile)
    out = {"workload": name, "seed": seed, "processes": processes,
           "cells": [], "tables": {}, "problems": []}
    with tracer.span("pass"):
        with tracer.span("import"):
            import repro
            from repro.harness.registry import REGISTRY
            REGISTRY.ids()  # the built-in experiments' registration
        if name == "vec_million":
            run_vec(tracer, seed, out)
        else:
            run_grid(tracer, name, seed, processes, out)
    wall = tracer.total("pass")
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)

    counts: dict = {}
    for record in out["cells"]:
        for count, value in record["counts"].items():
            counts[count] = counts.get(count, 0) + value
    out["counts"] = counts
    if name == "vec_million":
        setup = tracer.total("topology") + tracer.total("build")
        busy = tracer.total("run")
        vec = out.get("vec", {})
        node_rounds = vec.get("node_rounds", 0)
        nodes, edges = vec.get("nodes", 0), vec.get("edges", 0)
    else:
        from repro.topology.cluster_graph import ClusterGraph
        setup = tracer.total("import") + tracer.total("plan")
        busy = tracer.total("sweep")
        node_rounds = nodes = edges = 0
        for spec in out.pop("specs", ()):
            graph = getattr(ClusterGraph, spec.graph)(*spec.graph_args)
            node_rounds += _node_rounds(spec, graph.num_clusters)
            nodes += graph.num_clusters
            edges += graph.num_edges

    cells = tracer.durations("cell")
    out["metrics"] = {
        "wall_s": wall,
        "setup_s": setup,
        "busy_s": busy,
        "cpu_s": (self_usage.ru_utime + self_usage.ru_stime
                  + child_usage.ru_utime + child_usage.ru_stime),
        "peak_rss_mb": (self_usage.ru_maxrss + child_usage.ru_maxrss) / 1024.0,
        "node_rounds_per_s": node_rounds / busy if busy > 0 else 0.0,
    }
    sent = counts.get("net.messages_sent", 0)
    out["layer"] = {
        **counts,
        "net.delivered_ratio": ((sent - counts.get("net.messages_dropped", 0))
                                / sent if sent else 0.0),
        "topology.nodes": nodes,
        "topology.edges": edges,
        "topology.graph_build_s": tracer.total("topology"),
        "engine_vec.build_s": tracer.total("build"),
        "engine_vec.round_s": (tracer.total("run")
                               / counts["engine_vec.rounds"]
                               if counts.get("engine_vec.rounds") else 0.0),
        "harness.finish_s": tracer.total("finish"),
        "harness.cell_s": sum(cells),
        "harness.straggler_s": max(cells, default=0.0),
        "harness.sweep_s": tracer.total("sweep"),
    }

    if profile:
        package_dir = os.path.dirname(repro.__file__)
        ledger = layer_ledger(tracer.profiler, package_dir)
        stats = ledger.pop("stats")
        if name != "vec_million":
            out["layer"]["topology.graph_build_s"] = cumulative_s(
                stats, package_dir, "harness/sweep.py", "_build_graph")
        profiled_counts = call_counts(stats, package_dir)
        out["counts"].update(profiled_counts)
        out["layer"].update(profiled_counts)
        out["profile"] = {
            "self_s": ledger["self_s"],
            "unmapped_s": ledger["unmapped_s"],
            "profiled_s": ledger["profiled_s"],
            "span_self_s": tracer.nonleaf_self_s(),
        }
    if pins is not None:
        compare_pins(out, pins)
    out["attempted"] = len(out["cells"])
    out["failed"] = sum(1 for c in out["cells"]
                        if c["error"] or c.get("failed"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--processes", type=int, default=1)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--pins", default="",
                        help="pins file checked at the default seed")
    args = parser.parse_args(argv)
    pins = None
    if args.pins and args.seed is None:
        with open(args.pins) as handle:
            pins = json.load(handle).get(args.workload, {})
    out = run_pass(args.workload, args.seed, args.processes, args.profile,
                   pins)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
