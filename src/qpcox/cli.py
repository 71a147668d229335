"""Command-line driver: survey | basis | wgraph | verify.

Exit codes are a contract: 0 all checks pass, 1 usage or I/O problem, 2 an
internal consistency check failed (the report carries a witness), 3 bar
verification failed for the selected carrier (evidence relevant to the
existence conjecture for bar operators).

The two paragraphs above are the --help description.  The process entry
(console_entry, behind ``qpcox`` and ``python -m qpcox.cli``) flushes stdout
and stderr and ends by os._exit, without interpreter teardown; main(argv)
returns the exit code to in-process callers.

Each carrier keeps its own stages (bar columns, bar verdict, canonical
tables, Phi maps; see barcanon), and the carriers the suites test are built
once per system, so one run solves each (carrier, kind) once.  A system is
built afresh by every call of main, so nothing is shared between calls.

Survey and basis results are cached on disk, in a directory named by a
sha256 of the package's sources (so older code's entries are not served, and
storing an entry removes the directories of other sources); --no-cache
bypasses the cache.  An entry is one header line,
{"key": <configuration and resolved Coxeter matrix>, "sha256": <of the body>},
then the body: the output's text.  The key holds no package version; the
source digest covers it.  A hit is an entry whose header holds the full key
and the body's digest; any other entry is recomputed and overwritten.  A hit
serves the stored bytes.  A basis key holds the output format, and its body
is the text that was printed (JSON or CSV), copied as it is.  A survey body
is JSON in either format: its cached witnesses are re-validated against a
freshly built carrier first, and CSV output is rendered from it.  Only a
result that passes its checks is stored.
All outputs are deterministic for a fixed configuration.

Every JSON document (basis, wgraph, survey, the verify --out log) is written
by jsonout.dump: the text of json.dumps(doc, indent=2, sort_keys=True) and a
newline, streamed, on stdout and through --out alike.  A freshly computed
survey or basis payload is rendered once for both the output and its cache
entry.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import re
import shutil
import sys
import tempfile
import types
from pathlib import Path

from . import barcanon, classify, hecke, jsonout, qpsets, wgraph
from .coxeter import CoxeterSystem, DiagramAut, ExtElement, KeyTwist, build_system, stage
from .errors import BadMatrix, ConsistencyError, QpcoxError
from .laurent import V, VINV

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSISTENCY = 2
EXIT_BAR = 3

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument resolution


def load_system(type_spec: str) -> CoxeterSystem:
    """A type string, or a path to a JSON file holding a Coxeter matrix.  A
    spec that parses as a type string is a type, whatever files are around."""
    path = Path(type_spec)
    try:
        return build_system(type_spec)
    except BadMatrix:
        if not (path.suffix == ".json" or path.is_file()):
            raise
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise _UsageError(f"cannot read matrix file {type_spec!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"matrix file {type_spec!r} is not valid JSON: {exc}")
    if isinstance(data, dict) and "matrix" not in data:
        raise _UsageError(f"matrix file {type_spec!r} has no \"matrix\" key")
    return CoxeterSystem(data["matrix"] if isinstance(data, dict) else data)


def _system(args) -> CoxeterSystem:
    """The system of --type.  --cutoff truncates universal carriers only, so
    a finite system refuses it rather than ignore it."""
    system = load_system(args.type)
    if args.cutoff is not None and system.family == "finite":
        raise _UsageError(f"--cutoff applies to universal systems, and {system.name} is finite")
    return system


def parse_generators(text: str) -> tuple:
    """Words like "s1 s3", "1,3" or "" (the identity) into 0-based indices."""
    out = []
    for tok in text.replace(",", " ").split():
        tok = tok.lower().lstrip("s")
        if not tok.isdigit() or int(tok) < 1:
            raise _UsageError(f"bad generator token {tok!r}")
        out.append(int(tok) - 1)
    return tuple(out)


def resolve_theta(system: CoxeterSystem, spec: str | None) -> DiagramAut:
    if spec in (None, "id", "identity"):
        return system.identity_aut()
    auts = system.diagram_automorphisms()
    if spec in ("swap", "rev", "flip"):
        cands = [a for a in auts if not a.is_identity() and (a * a).is_identity()]
        if len(cands) != 1:
            raise _UsageError(
                f"{spec!r} is ambiguous for {system.name} "
                f"({len(cands)} nontrivial involutions); give an explicit image list"
            )
        return cands[0]
    if spec in ("rot", "triality"):
        cands = [a for a in auts if a.order() == 3]
        if not cands:
            raise _UsageError(f"{system.name} has no order-3 diagram automorphism")
        return cands[0]
    images = parse_generators(spec)
    if len(images) != system.rank:
        raise _UsageError(f"theta needs {system.rank} images, got {len(images)}")
    return DiagramAut(system, images)


def resolve_carrier(system: CoxeterSystem, args) -> qpsets.ScaledWSet:
    chosen = [
        bool(args.regular),
        args.coset is not None,
        args.klass is not None,
        args.seed is not None,
    ]
    if sum(chosen) != 1:
        raise _UsageError("select exactly one of --regular, --coset, --class, --seed")
    if args.theta is not None and args.seed is None:
        raise _UsageError("--theta applies to a --seed class only")
    if args.regular:
        return qpsets.regular_set(system)
    if args.coset is not None:
        return qpsets.coset_set(system, parse_generators(args.coset))
    if args.klass is not None:
        if args.klass != "fpf":
            raise _UsageError(f"unknown named class {args.klass!r} (only 'fpf')")
        if not system.name.startswith("A") or system.rank % 2 == 0:
            raise _UsageError("the fpf class lives in type A of odd rank")
        seed = ExtElement(
            system.element_from_word(tuple(range(0, system.rank, 2))),
            system.identity_aut(),
        )
        return qpsets.conjugacy_set(system, seed, args.cutoff)
    theta = resolve_theta(system, args.theta)
    seed = ExtElement(system.element_from_word(parse_generators(args.seed)), theta)
    return qpsets.conjugacy_set(system, seed, args.cutoff)


def carrier_descriptor(X: qpsets.ScaledWSet) -> dict:
    out = {"kind": X.kind, "size": len(X), "truncated_at": X.truncated_at}
    if X.kind == "coset":
        out["J"] = [j + 1 for j in X.J]
    if X.kind == "conjugacy":
        out["theta"] = list(X.theta.sigma)
        out["seed"] = X.describe_point(0)["x"]
    return out


# ---------------------------------------------------------------------------
# caching


def _sha256(data: bytes = b""):
    """hashlib.sha256(data), with hashlib (and OpenSSL) loaded at the first
    use of the cache, so the commands that never hash never pay for it."""
    import hashlib

    return hashlib.sha256(data)


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's *.py sources, read once per process."""
    return _sha256(b"".join(p.read_bytes() for p in sorted(Path(__file__).parent.glob("*.py")))).hexdigest()


def _cache_path(args, key, system: CoxeterSystem) -> tuple[Path | None, str]:
    """The cache file for a configuration (None under --no-cache) and the key
    its entry's header holds: the JSON text of the configuration and the
    resolved matrix (a --type path can change content).  The file is in a
    directory named by the package's source digest, so an entry written by
    other code is not served."""
    head = json.dumps({"config": key, "matrix": system.matrix}, sort_keys=True)
    if args.no_cache:
        return None, head
    name = _sha256(head.encode()).hexdigest()[:24]
    return Path(args.cache_dir) / _source_digest() / f"{name}.json", head


def _header(head: str, digest: str) -> str:
    """An entry's first line, json.dumps({"key": ..., "sha256": digest}, sort_keys=True)."""
    return f'{{"key": {head}, "sha256": "{digest}"}}\n'


def _cache_load(path: Path | None, head: str):
    """The body of the entry at path as an open text file, if its header holds
    head and the sha256 of the body; None on a miss."""
    if path is None:
        return None
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    try:
        line, sha = fh.readline(), _sha256()
        for chunk in iter(functools.partial(fh.read, jsonout.CHUNK), b""):
            sha.update(chunk)
        if line == _header(head, sha.hexdigest()).encode():
            fh.seek(len(line))
            return io.TextIOWrapper(fh, newline="")  # CSV's \r\n stays as stored
    except OSError:
        pass
    fh.close()
    return None


def _render(obj, *writers) -> None:
    """Write obj's text (a str as it is, anything else its JSON text) to each of writers."""
    if isinstance(obj, str):
        for writer in writers:
            writer.write(obj)
    else:
        jsonout.dump(obj, *writers)


def _cache_store(path: Path | None, head: str, obj, *sinks) -> None:
    """Store obj's text (a str as it is, anything else its JSON text) as the
    body of the cache entry at path, after its header line, from the same
    render that writes it to each of sinks.  Where the entry's directory or
    temp file cannot be made, obj goes to sinks alone, after one warning."""
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # a temp file renamed into place: a reader never sees a partial entry
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    except OSError as exc:
        print(f"qpcox: warning: no cache entry stored: {exc}", file=sys.stderr)
        if sinks:
            _render(obj, *sinks)
        return
    sha = _sha256()
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(_header(head, "0" * 64))  # the digest is filled in below
            _render(obj, fh, types.SimpleNamespace(write=lambda text: sha.update(text.encode())), *sinks)
            fh.seek(0)
            fh.write(_header(head, sha.hexdigest()))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    for other in path.parent.parent.iterdir():  # other code's entries are never read again
        if other != path.parent and other.is_dir() and re.fullmatch(r"[0-9a-f]{64}", other.name):
            shutil.rmtree(other, ignore_errors=True)


# ---------------------------------------------------------------------------
# output plumbing


def _emit(args, doc, path: Path | None = None, head: str = "") -> None:
    """Write doc to --out or stdout: an open text file's contents, or doc's
    text (a str as it is, anything else its JSON text), rendered once for the
    output and for the cache entry at path, if given.  A str written to
    stdout alone ends in a newline."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        if isinstance(doc, io.TextIOBase):
            shutil.copyfileobj(doc, out, jsonout.CHUNK)
        elif path is not None:
            _cache_store(path, head, doc, out)
        elif isinstance(doc, str):
            out.write(doc if args.out or doc.endswith("\n") else doc + "\n")
        else:
            jsonout.dump(doc, out)


def _survey_csv(reports_json: list[dict]) -> str:
    import csv  # loaded by the CSV outputs alone

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(classify.SURVEY_COLUMNS)
    for rep in reports_json:
        flags = rep.get("structure") or {}
        writer.writerow(
            [
                rep["system"],
                " ".join(f"s{i + 1}->s{j + 1}" for i, j in enumerate(rep["theta"])) or "id",
                rep["size"],
                rep["min_length"],
                rep["is_iplus"],
                rep["qp"],
                rep["perfect"],
                "{" + ",".join(f"s{j + 1}" for j in rep["J"] or []) + "}",
                "".join("1" if flags.get(k) else "0" for k in sorted(flags)) if flags else "",
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands


def cmd_survey(args) -> int:
    system = _system(args)
    if args.theta in (None, "all"):
        thetas = None
        theta_key = "all"
    else:
        thetas = [resolve_theta(system, args.theta)]
        theta_key = list(thetas[0].sigma)
    key = {
        "schema_version": SCHEMA_VERSION,
        "command": "survey",
        "type": args.type,
        "theta": theta_key,
        "diagnostics": args.diagnostics,
    }
    path, head = _cache_path(args, key, system)
    body = _cache_load(path, head)
    if body is not None:
        with body:
            text = body.read()
        payload = json.loads(text)
        if _revalidate_survey(system, payload):
            _emit(args, text if args.format == "json" else _survey_csv(payload["reports"]))
            return EXIT_OK
    reports = classify.survey(system, thetas=thetas, diagnostics=args.diagnostics)
    failures = classify.survey_cross_checks(reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": key,
        "reports": [r.to_json() for r in reports],
        "failures": failures,
    }
    store = None if failures else path  # only a result that passes its checks is stored, so a hit exits 0
    if args.format == "csv":
        _cache_store(store, head, payload)
        _emit(args, _survey_csv(payload["reports"]))
    else:
        _emit(args, payload, store, head)
    if failures:
        print("\n".join(f"FAIL {f}" for f in failures), file=sys.stderr)
        return EXIT_CONSISTENCY
    return EXIT_OK


def _revalidate_survey(system: CoxeterSystem, payload) -> bool:
    for rep in payload["reports"]:
        wit = rep.get("witness")
        if not wit:
            continue
        try:
            theta = DiagramAut(system, tuple(rep["theta"]))
            seed = ExtElement(system.element_from_word(rep["seed_word"]), theta)
            K = qpsets.conjugacy_set(system, seed)
        except QpcoxError:  # a cached theta or seed word that names no class
            return False
        if not qpsets.revalidate_witness(K, wit):
            return False
    return True


def _kinds(args) -> list[str]:
    return ["M", "N"] if args.kind == "both" else [args.kind.upper()]


def _certified_tables(X: qpsets.ScaledWSet, kinds) -> tuple[dict, dict | None]:
    """Per kind in turn, certify the bar operator and then solve the canonical
    table.  Returns the tables and None, or at the first failing bar verdict
    the tables so far and the failure record {"kind": ..., **witness}."""
    tables = {}
    for kind in kinds:
        verdict = barcanon.verify_bar_operator(kind, X)
        if not verdict.ok:
            return tables, {"kind": kind, **(verdict.failure or {})}
        tables[kind] = barcanon.canonical_basis(kind, X)
    return tables, None


def cmd_basis(args) -> int:
    system = _system(args)
    X = resolve_carrier(system, args)
    kinds = _kinds(args)
    key = {
        "schema_version": SCHEMA_VERSION,
        "command": "basis",
        "type": args.type,
        "carrier": carrier_descriptor(X),
        "kinds": kinds,
    }
    path, head = _cache_path(args, {**key, "format": args.format}, system)
    body = _cache_load(path, head)
    if body is not None:  # the text printed when it was stored
        with body:
            _emit(args, body)
        return EXIT_OK
    tables, failure = _certified_tables(X, kinds)
    if failure is not None:
        _emit(args, {"schema_version": SCHEMA_VERSION, "config": key, "bar_failure": failure})
        return EXIT_BAR
    as_csv = args.format == "csv"  # the CSV holds the mu rows only, so no JSON entry is built
    payload = {"schema_version": SCHEMA_VERSION, "config": key, "tables": {}}
    for kind, table in tables.items():
        checks = barcanon.table_checks(kind, X)
        if not all(c.ok for c in checks):
            payload["failures"] = [c.name for c in checks if not c.ok]
        if as_csv:
            continue
        verdict = barcanon.verify_bar_operator(kind, X)  # the certified verdict, kept on X
        entry = table.to_json()
        entry["verification"] = {c.name: c.ok for c in checks}
        entry["bar"] = {"checked": verdict.checked, "skipped": verdict.skipped, "label": verdict.label}
        payload["tables"][kind] = entry
    if not as_csv and X.kind == "conjugacy" and X.truncated_at is None and KeyTwist(X.theta).involutive(X.keys[0]):
        theta, keys = classify.w0_translate(X)
        payload["inversion_partner"] = {"theta": list(theta.sigma), "seed": list(system.word_of(keys[0]))}
    failed = "failures" in payload
    _emit(args, _mu_csv(tables) if as_csv else payload, None if failed else path, head)
    return EXIT_CONSISTENCY if failed else EXIT_OK


def _mu_csv(tables: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kind", "x", "y", "mu"])
    for kind, table in sorted(tables.items()):
        for y, col in enumerate(table.mus):
            for x in sorted(col):
                writer.writerow([kind, x, y, col[x]])
    return buf.getvalue()


def cmd_wgraph(args) -> int:
    system = _system(args)
    X = resolve_carrier(system, args)
    tables, failure = _certified_tables(X, _kinds(args))
    if failure is not None:
        _emit(args, {"bar_failure": failure})
        return EXIT_BAR
    graphs = {kind.lower(): wgraph.build_wgraph(table) for kind, table in tables.items()}
    if args.format == "dot":
        if len(graphs) != 1:
            raise _UsageError("DOT output needs a single --kind m or --kind n")
        _emit(args, wgraph.to_dot(next(iter(graphs.values()))))
        return EXIT_OK
    payload = {"schema_version": SCHEMA_VERSION, "graphs": {}}
    bad = False
    for kind, G in graphs.items():
        qa = wgraph.check_quasi_admissible(G)
        module_ok = wgraph.verify_wgraph_module(G)
        entry = wgraph.to_json(G, qa)
        entry["module_axioms"] = module_ok.ok
        payload["graphs"][kind] = entry
        bad = bad or not qa.quasi_admissible or not module_ok.ok
    _emit(args, payload)
    return EXIT_CONSISTENCY if bad else EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _suite_hecke(system) -> list[tuple[str, bool]]:
    H = functools.partial(hecke.HeckeElt.basis, system)
    one = hecke.HeckeElt.unit(system)
    gens, elements = system._ensure_table().gen_ids, range(system.order())

    def braid(i, j):  # H_si H_sj H_si ... with m(i, j) factors
        out = one
        for k in range(system.matrix[i][j]):
            out = out * H(gens[j] if k % 2 else gens[i])
        return out

    return [
        ("hecke-quadratic", all(H(s) * H(s) == one + H(s).scale(V - VINV) for s in gens)),
        ("hecke-braid", all(braid(i, j) == braid(j, i) for i, j in itertools.combinations(range(system.rank), 2))),
        ("hecke-bar-involution", all(H(w).bar().bar() == H(w) for w in elements)),
        ("kl-bar-invariant", all(u.bar() == u for u in map(hecke.kl_basis(system).underline, elements))),
    ]


@stage("_qp_carriers")
def _qp_carriers(system) -> list[qpsets.ScaledWSet]:
    """The regular carrier, every coset carrier and every quasiparabolic
    twisted-involution class, built once and kept on the system, so that the
    suites share their stages."""
    cosets = [
        qpsets.coset_set(system, J)
        for r in range(1, system.rank + 1)
        for J in itertools.combinations(range(system.rank), r)
    ]
    return [hecke.regular_module(system), *cosets, *barcanon.iplus_qp_classes(system)]


def _suite_bar_canonical(system) -> list[tuple[str, bool]]:
    results = []
    for X in _qp_carriers(system):
        tables, failure = _certified_tables(X, ("M", "N"))
        ok = failure is None and all(c.ok for kind in tables for c in barcanon.table_checks(kind, X))
        if ok:
            tm, tn = tables["M"], tables["N"]
            ok = barcanon.phi_maps(X).verify().ok and all(
                barcanon.primed_basis(tm, tn, kind)[1].ok for kind in ("M", "N")
            )
        results.append((f"bar-canonical[{X.kind}:{len(X)}]", ok))
    return results


def _suite_wgraph(system) -> list[tuple[str, bool]]:
    results = []
    for X in _qp_carriers(system):
        tables, _ = _certified_tables(X, ("M", "N"))
        for kind in ("M", "N"):
            ok = kind in tables
            if ok:
                G = wgraph.build_wgraph(tables[kind])
                ok = wgraph.check_quasi_admissible(G).quasi_admissible and wgraph.verify_wgraph_module(G).ok
            results.append((f"wgraph-{kind.lower()}[{X.kind}:{len(X)}]", ok))
    return results


def _suite_inversion(system) -> list[tuple[str, bool]]:
    verdict = barcanon.inversion_check(system)
    return [("inversion", verdict.ok)]


def _suite_finite_classification(system) -> list[tuple[str, bool]]:
    reports = classify.survey(system)
    failures = classify.survey_cross_checks(reports)
    results = [("classification-cross-checks", not failures)]
    for rep in reports:
        if rep.n_min_length == 1 and not rep.qp.is_qp:
            axiom = rep.qp.axiom
            print(
                f"note: unique-minimal class seed={list(rep.seed_word)} "
                f"theta={list(rep.theta)} fails {axiom}",
                file=sys.stderr,
            )
    results.append(("w0-translation", classify.check_w0_translation(system)))
    return results


def _suite_universal(system, cutoff) -> list[tuple[str, bool]]:
    results = []
    seeds = [ExtElement(system.identity, a) for a in system.diagram_automorphisms()]
    seeds += [
        ExtElement(system.generator(0), system.identity_aut()),
        ExtElement(
            system.generator(0) * system.generator(1 % system.rank),
            system.identity_aut(),
        ),
    ]
    for seed in seeds:
        criterion = classify.universal_qp_check(system, seed)
        K = qpsets.conjugacy_set(system, seed, cutoff)
        brute = qpsets.check_quasiparabolic(K)
        tag = f"universal[{''.join(str(s + 1) for s in seed.x.word())},{seed.theta!r}]"
        results.append((tag, criterion.is_qp == brute.is_qp))
    return results


def cmd_verify(args) -> int:
    system = _system(args)
    suites = {
        "hecke": lambda: _suite_hecke(system),
        "bar-canonical": lambda: _suite_bar_canonical(system),
        "wgraph": lambda: _suite_wgraph(system),
        "inversion": lambda: _suite_inversion(system),
        "finite-classification": lambda: _suite_finite_classification(system),
        "universal": lambda: _suite_universal(system, 6 if args.cutoff is None else args.cutoff),
    }
    if system.family == "universal":
        applicable = ["universal"]
    else:
        applicable = [s for s in suites if s != "universal"]
    names = applicable if args.suite == "all" else [args.suite]
    for n in names:
        if n not in suites:
            raise _UsageError(f"unknown suite {n!r}")
        if n not in applicable:
            raise _UsageError(f"suite {n!r} does not apply to {system.name}")
    results = []
    for n in names:
        results.extend(suites[n]())
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    log = {
        "schema_version": SCHEMA_VERSION,
        "type": args.type,
        "results": [{"check": n, "ok": ok} for n, ok in results],
    }
    if args.out:
        _emit(args, log)
    return EXIT_OK if all(ok for _, ok in results) else EXIT_CONSISTENCY


# ---------------------------------------------------------------------------
# entry point


def _add_common(p):
    p.add_argument("--type", required=True, help="type string, e.g. A3, F4, I2(6), U3")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", default=None, help="json | csv | dot")
    p.add_argument("--cutoff", type=int, help="height cutoff for universal carriers")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache-dir", default=".qpcox-cache")


def _add_carrier(p):
    p.add_argument("--regular", action="store_true", help="the carrier (W, length)")
    p.add_argument("--coset", help="coset carrier W^J, e.g. --coset s1,s3")
    p.add_argument("--class", dest="klass", help="named class (fpf)")
    p.add_argument("--seed", help="seed word for a twisted class, e.g. 's1 s3' or ''")
    p.add_argument("--theta", help="id | swap | rot | explicit images like 2,1")
    p.add_argument("--kind", default="both", type=str.lower, choices=("m", "n", "both"))


def build_parser() -> _Parser:
    parser = _Parser(prog="qpcox", description="\n\n".join((__doc__ or "").split("\n\n")[:2]),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("survey", help="classify twisted conjugacy classes")
    p.set_defaults(handler=cmd_survey, formats=("csv", "json"))
    _add_common(p)
    p.add_argument("--theta", help="id | swap | rot | all | explicit images")
    p.add_argument("--diagnostics", action="store_true", help="order/strong-exchange diagnostics")

    p = sub.add_parser("basis", help="canonical bases on a selected carrier")
    p.set_defaults(handler=cmd_basis, formats=("json", "csv"))
    _add_common(p)
    _add_carrier(p)

    p = sub.add_parser("wgraph", help="W-graphs and cells on a selected carrier")
    p.set_defaults(handler=cmd_wgraph, formats=("json", "dot"))
    _add_common(p)
    _add_carrier(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(handler=cmd_verify, formats=("json",))
    _add_common(p)
    p.add_argument("--suite", default="all", help="hecke | bar-canonical | wgraph | inversion | finite-classification | universal | all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format is None:
            args.format = args.formats[0]
        elif args.format not in args.formats:
            raise _UsageError(f"--format for {args.command} must be one of {args.formats}")
        return args.handler(args)
    except _UsageError as exc:
        print(f"qpcox: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"qpcox: consistency check failed: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except QpcoxError as exc:
        print(f"qpcox: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"qpcox: io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    """Run main as the process ``qpcox`` or ``python -m qpcox.cli``: flush
    stdout and stderr, then end by os._exit, without interpreter teardown.
    The exit code is main's, or argparse's for --help.  A failed flush of
    stdout (a closed pipe) is an I/O error, reported as main reports one."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"qpcox: io error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
