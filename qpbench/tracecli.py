"""Run one ``qpcox`` command with spans around each layer's entry points.

Usage (environment: PYTHONPATH holding the qpcox sources)::

    QPBENCH_SPANS=spans.bin QPBENCH_CMD=0 QPBENCH_SPAWN=<perf_counter> \
        python3 qpbench/tracecli.py survey --type F4

The wrappers are installed from outside the program: each target function
or method is replaced by a timing wrapper in every qpcox module (and class)
that holds a reference to it, because several modules bind names with
``from .x import y``.  Then ``qpcox.cli.main(argv)`` runs exactly as the CLI
would.  Spans (name, start, end, parent index, command id) and a few size
counters stay in memory and are written with ``marshal`` at exit.

``QPBENCH_SPAWN`` is the parent's ``time.perf_counter()`` just before the
process was started; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so the interpreter's own start-up can be measured from here.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import marshal  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SPANS = []
STACK = [-1]
COUNTS = {}
CMD = int(os.environ.get("QPBENCH_CMD", "0"))


def _count(name, n):
    COUNTS[name] = COUNTS.get(name, 0) + n


def _wrap(name, fn, hook=None, pre=None):
    clock = time.perf_counter
    spans = SPANS
    stack = STACK

    def wrapper(*args, **kwargs):
        sid = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(sid)
        token = pre(*args) if pre is not None else None
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            spans[sid] = (name, t0, t1, parent, CMD)
        if hook is not None:
            hook(result, args, token)
        return result

    return functools.update_wrapper(wrapper, fn)


# -- size counters, read from arguments and results ---------------------------


def _group_order(result, args, token):
    _count("coxeter.group_order", len(args[0].perms))


def _n_reflections(result, args, token):
    if result.family == "finite":
        _count("coxeter.n_reflections", result.n_positive_roots)


def _points(result, args, token):
    _count("qpsets.points", len(result))


def _classes(result, args, token):
    _count("classify.classes", 1)


def _table_nnz(result, args, token):
    p, mu = result
    _count("laurent.table_nnz", len(p))
    _count("laurent.mu_nnz", len(mu))


def _bar_cached(kind, X):
    return kind in (getattr(X, "_barcols", None) or {})


def _bar_nnz(result, args, cached):
    if not cached:  # count each bar matrix once, where it is computed
        _count("barcanon.bar_nnz", sum(len(col.coords) for col in result))


def _edges(result, args, token):
    _count("wgraph.edges", len(result.omega))


def _cache_lookup(result, args, token):
    if args[0] is not None:
        _count("cli.cache_lookups", 1)
        if result is not None:
            _count("cli.cache_hits", 1)


# (module, attribute path, hook, pre-hook); the span name is
# "<layer>.<last attribute>", with a few renamed for readability.
TARGETS = [
    ("coxeter", "build_system", _n_reflections, None),
    ("coxeter", "_GroupTable.__init__", _group_order, None),
    ("coxeter", "CoxeterSystem.reflections", None, None),
    ("coxeter", "CoxeterSystem.reflections_up_to", None, None),
    ("coxeter", "CoxeterSystem.diagram_automorphisms", None, None),
    ("coxeter", "CoxeterSystem.longest_element", None, None),
    ("coxeter", "CoxeterSystem.elements", None, None),
    ("coxeter", "CoxeterSystem.element_from_word", None, None),
    ("coxeter", "twisted_conjugate", None, None),
    ("qpsets", "coset_set", _points, None),
    ("qpsets", "regular_set", None, None),
    ("qpsets", "conjugacy_set", _points, None),
    ("qpsets", "even_double_cover", _points, None),
    ("qpsets", "ScaledWSet.reflection_actions", None, None),
    ("qpsets", "check_quasiparabolic", None, None),
    ("qpsets", "check_qp1_only", None, None),
    ("qpsets", "revalidate_witness", None, None),
    ("qpsets", "bruhat_order", None, None),
    ("qpsets", "rht_witness_word", None, None),
    ("qpsets", "rht_witness", None, None),
    ("classify", "survey", None, None),
    ("classify", "twisted_classes", None, None),
    ("classify", "class_report", _classes, None),
    ("classify", "is_perfect", None, None),
    ("classify", "structure_check", None, None),
    ("classify", "survey_cross_checks", None, None),
    ("classify", "check_w0_translation", None, None),
    ("classify", "universal_qp_check", None, None),
    ("laurent", "canonical_columns", _table_nnz, None),
    ("barcanon", "bar_columns", _bar_nnz, _bar_cached),
    ("barcanon", "verify_bar_operator", None, None),
    ("barcanon", "canonical_basis", None, None),
    ("barcanon", "verify_parity", None, None),
    ("barcanon", "verify_multiplication", None, None),
    ("barcanon", "verify_recurrences", None, None),
    ("barcanon", "verify_mu_lemma", None, None),
    ("barcanon", "PhiMaps.__init__", None, None),
    ("barcanon", "PhiMaps.verify", None, None),
    ("barcanon", "primed_basis", None, None),
    ("barcanon", "iplus_qp_classes", None, None),
    ("barcanon", "inversion_check", None, None),
    ("hecke", "kl_basis", None, None),
    ("hecke", "KLTable.underline", None, None),
    ("hecke", "HeckeElt.__mul__", None, None),
    ("hecke", "HeckeElt.bar", None, None),
    ("wgraph", "build_wgraph", _edges, None),
    ("wgraph", "check_quasi_admissible", None, None),
    ("wgraph", "verify_wgraph_module", None, None),
    ("wgraph", "cells", None, None),
    ("wgraph", "to_json", None, None),
    ("wgraph", "to_dot", None, None),
    ("cli", "main", None, None),
    ("cli", "cmd_survey", None, None),
    ("cli", "cmd_basis", None, None),
    ("cli", "cmd_wgraph", None, None),
    ("cli", "cmd_verify", None, None),
    ("cli", "_revalidate_survey", None, None),
    ("cli", "_cache_load", _cache_lookup, None),
    ("cli", "_cache_store", None, None),
    ("cli", "_emit", None, None),
    ("cli", "_suite_hecke", None, None),
    ("cli", "_suite_bar_canonical", None, None),
    ("cli", "_suite_wgraph", None, None),
    ("cli", "_suite_inversion", None, None),
    ("cli", "_suite_finite_classification", None, None),
    ("cli", "_suite_universal", None, None),
]

RENAMED = {
    "_GroupTable.__init__": "enumerate",
    "PhiMaps.__init__": "phi_maps",
    "PhiMaps.verify": "phi_verify",
    "HeckeElt.__mul__": "mul",
}


def span_name(layer, path):
    return f"{layer}.{RENAMED.get(path, path.rsplit('.', 1)[-1].lstrip('_'))}"


def install():
    """Wrap every target wherever a qpcox module or class refers to it.

    Returns the targets the sources no longer have, so that a refactor
    leaves the trace running and the loss of a span visible."""
    import importlib

    modules = [importlib.import_module(f"qpcox.{m}") for m in
               ("laurent", "coxeter", "hecke", "qpsets", "barcanon", "wgraph", "classify", "cli")]
    modules.append(importlib.import_module("qpcox"))
    missing = []
    for layer, path, hook, pre in TARGETS:
        owner = sys.modules[f"qpcox.{layer}"]
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{layer}.{path}")
            continue
        wrapper = _wrap(span_name(layer, path), original, hook, pre)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return missing


def main():
    argv = sys.argv[1:]
    SPANS.append(None)  # the process span, closed below
    STACK.append(0)
    missing = install()
    from qpcox import cli

    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        t_end = time.perf_counter()
        SPANS[0] = ("cli.process", T0, t_end, -1, CMD)
        record = {
            "cmd": CMD,
            "spawn": float(os.environ.get("QPBENCH_SPAWN", T0)),
            "spans": SPANS,
            "counts": COUNTS,
            "missing": missing,
        }
        with open(os.environ["QPBENCH_SPANS"], "wb") as fh:
            marshal.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
