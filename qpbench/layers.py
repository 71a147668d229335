"""Per-layer metrics from the span records written by ``tracecli.py``.

A span's self time is its duration minus the durations of its direct
children.  A layer's ``self_s`` is the sum of its spans' self times; the
``cli`` layer also gets the interpreter's start-up before the entry point's
first line, since every CLI invocation pays it.  A stage metric is the
summed duration of the outermost spans among the stage's span names (a
stage span nested in another of the same stage is not counted twice).
"""

from __future__ import annotations

LAYERS = ["laurent", "coxeter", "hecke", "qpsets", "barcanon", "wgraph", "classify", "cli"]

# stage metric -> span names it sums
STAGES = {
    "coxeter.roots_s": {"coxeter.build_system"},
    "coxeter.enumerate_s": {"coxeter.enumerate"},
    "qpsets.carrier_s": {"qpsets.conjugacy_set", "qpsets.coset_set", "qpsets.regular_set"},
    "qpsets.reflection_actions_s": {"qpsets.reflection_actions"},
    "qpsets.qp_check_s": {"qpsets.check_quasiparabolic", "qpsets.check_qp1_only"},
    "qpsets.bruhat_s": {"qpsets.bruhat_order"},
    # re-validation of cached survey witnesses, carrier rebuilds included
    "qpsets.revalidate_s": {"cli.revalidate_survey"},
    "classify.structure_s": {"classify.structure_check"},
    "classify.perfect_s": {"classify.is_perfect"},
    "laurent.canonical_solve_s": {"laurent.canonical_columns"},
    "barcanon.bar_columns_s": {"barcanon.bar_columns"},
    "barcanon.bar_verify_s": {"barcanon.verify_bar_operator"},
    "barcanon.checks_s": {
        "barcanon.verify_parity",
        "barcanon.verify_multiplication",
        "barcanon.verify_recurrences",
        "barcanon.verify_mu_lemma",
    },
    "barcanon.phi_primed_s": {"barcanon.phi_maps", "barcanon.phi_verify", "barcanon.primed_basis"},
    "hecke.kl_basis_s": {"hecke.kl_basis"},
    "hecke.algebra_s": {"hecke.mul", "hecke.bar"},
    "wgraph.admissible_s": {"wgraph.check_quasi_admissible"},
    "wgraph.module_verify_s": {"wgraph.verify_wgraph_module"},
    "wgraph.cells_s": {"wgraph.cells"},
    "cli.cache_load_s": {"cli.cache_load"},
    "cli.cache_store_s": {"cli.cache_store"},
}

# counters summed over the commands of a pass
COUNTS = [
    "coxeter.group_order",
    "coxeter.n_reflections",
    "qpsets.points",
    "classify.classes",
    "laurent.table_nnz",
    "laurent.mu_nnz",
    "barcanon.bar_nnz",
    "wgraph.edges",
]

def metric_units():
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
        for stage in STAGES:
            if stage.startswith(layer + "."):
                out[stage] = ("s", "lower")
        for name in COUNTS:
            if name.startswith(layer + "."):
                out[name] = ("count", "lower")
    out["cli.startup_s"] = ("s", "lower")
    out["cli.cache_hit_ratio"] = ("ratio", "higher")
    out["cli.output_bytes"] = ("bytes", "lower")
    out["trace.wall_s"] = ("s", "lower")
    out["trace.untraced_wall_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.coverage"] = ("ratio", "higher")
    out["host.ref_loop_s"] = ("s", "lower")
    return out


def self_times(spans):
    """Self time of each span, by index."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


def check_nesting(spans):
    """Raise ValueError unless every span lies inside its parent, parents
    come first, and exactly the first span is a root."""
    for i, (name, t0, t1, parent, cmd) in enumerate(spans):
        if t1 < t0:
            raise ValueError(f"span {i} ({name}) ends before it starts")
        if i == 0:
            if parent != -1:
                raise ValueError("the first span is not the process root")
            continue
        if not 0 <= parent < i:
            raise ValueError(f"span {i} ({name}) has parent {parent}")
        _, p0, p1, _, pcmd = spans[parent]
        if not (p0 <= t0 and t1 <= p1) or pcmd != cmd:
            raise ValueError(f"span {i} ({name}) is not inside its parent {parent}")


def aggregate(records, walls, output_bytes):
    """Per-layer metrics of one traced pass.

    records: the span records of the pass's commands.  walls: each command's
    wall time as the parent measured it, in the same order.  output_bytes:
    the total stdout size of the pass.
    """
    m = {name: 0.0 for name in metric_units()}
    counts = {name: 0 for name in COUNTS}
    calls = {layer: 0 for layer in LAYERS}
    lookups = hits = 0
    for rec in records:
        spans = rec["spans"]
        check_nesting(spans)
        selfs = self_times(spans)
        for (name, *_), st in zip(spans, selfs):
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += st
            calls[layer] += 1
        # interpreter start-up before the entry point's first line
        root_start = spans[0][1]
        startup = max(0.0, root_start - rec["spawn"])
        m["cli.self_s"] += startup
        main_start = next((s[1] for s in spans if s[0] == "cli.main"), spans[0][2])
        m["cli.startup_s"] += main_start - rec["spawn"]
        for stage, total in _stage_totals(spans).items():
            m[stage] += total
        for name, n in rec["counts"].items():
            if name in counts:
                counts[name] += n
        lookups += rec["counts"].get("cli.cache_lookups", 0)
        hits += rec["counts"].get("cli.cache_hits", 0)
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
    m.update(counts)
    m["cli.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["cli.output_bytes"] = output_bytes
    wall = sum(walls)
    m["trace.wall_s"] = wall
    m["trace.coverage"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) / wall
    return m


_STAGES_OF = {}
for _stage, _names in STAGES.items():
    for _name in _names:
        _STAGES_OF.setdefault(_name, set()).add(_stage)


def _stage_totals(spans):
    """Stage metric totals over outermost stage spans; parents precede children."""
    totals = dict.fromkeys(STAGES, 0.0)
    empty = frozenset()
    active = []  # per span: the stages open at it or above it
    for name, t0, t1, parent, _ in spans:
        above = active[parent] if parent >= 0 else empty
        mine = _STAGES_OF.get(name)
        if mine is None:
            active.append(above)
            continue
        for stage in mine - above:
            totals[stage] += t1 - t0
        active.append(above | mine)
    return totals
