#!/usr/bin/env python3
"""skadi-analyzer: whole-program static analysis over the C++ sources.

Intra-procedural rules (per translation unit; DESIGN.md §10):

  view-escape          a Buffer slice / Column::View* / Tensor::View /
                       ArrayView must not outlive its backing storage.
  lock-blocking        no store/cache/fabric entry point, RunTask, or
                       blocking wait while an annotated Mutex is held
                       (the caching layer's Unlock()/Lock() drop-the-lock
                       sections are tracked and do not count).
  status-propagation   a captured Status must be propagated or reported,
                       not just .ok()-checked and forgotten.

Interprocedural passes (whole-program, over the tree-wide call graph built
by call_graph.py; virtual/callback edges declared `// analyze:calls <fn>`):

  may-block            fixpoint from blocking primitives (CondVar::Wait,
                       Future-style Get, sleep, blocking IO, reactor-wait:
                       RunOne / BlockOn / BlockingWait; fabric Call/Send
                       stays a seed for its fixture, src/ has neither)
                       through the call graph; a call under a held lock
                       whose callee transitively blocks is flagged with a
                       call-chain witness. Continuation registration
                       (Post, ScheduleAfter, OnSet, StateOrWatch,
                       GetAsync) is not blocking. The full may-block set
                       — now just the intended blocking boundary — is
                       emitted to build/analyze/blocking_inventory.json.
  lock-order-cycle     static lock-acquisition-order graph across all
                       translation units (A held while acquiring B,
                       including through calls); SCC = deadlock candidate.
                       Dumped to build/analyze/lock_order.json; TSan's
                       deadlock detector checks the same at runtime.
  pin-balance          the per-function rule upgraded: an unpin provided
                       by a (transitive) callee balances the caller's pin.
  view-escape          helper-mediated escapes: return/member-store of
                       Helper(local) where Helper returns a view into its
                       parameter.

Async-lifetime passes (async_lifetime.py; DESIGN.md §14): lambdas become
pseudo-functions in the graph, an escapes-to-deferred fixpoint marks every
function whose callback argument reaches Post/ScheduleAfter/OnSet/
StateOrWatch/GetAsync, and three rules fire on captures crossing that
boundary:

  async-capture        by-reference capture of a frame-local reaches a
                       deferred sink.
  async-this           raw `this` reaches a deferred sink from a class
                       with no lifetime guarantee (shared_from_this guard,
                       owned reactor + Shutdown-in-dtor, or an explicit
                       `// analyze:lifetime <reason>` annotation).
  async-view-escape    a view-typed capture (string_view/ArrayView/Span)
                       crosses the async boundary.

Every deferred-sink site — flagged or not — is inventoried with its capture
classification and witness chain in build/analyze/async_escapes.json.
Synthetic deferred edges also feed continuation bodies into may-block and
lock-order, so a continuation's lock acquisitions participate in those
passes without leaking blocking-ness back into the registering frame.

Parsing: a bundled pure-Python lexer + declaration/scope tracker
(cpp_lexer.py, cpp_model.py) builds every per-file model with zero
dependencies; all rules run on it.

Incremental mode: parsed per-file artifacts (function summaries, intra
findings, allow maps) are cached in build/analyze/cache.json keyed by file
content hash and an analyzer-source generation stamp; unchanged files skip
parsing entirely. The interprocedural passes always rerun over the (mostly
cached) summaries — they are the cheap part.

Escape hatch: `// analyze:allow <rule> (<reason>)` on the finding line or
the line directly above — interprocedural findings honor it too.

Usage:
  skadi_analyzer.py [--root R] [--rules r1,r2] [--list-rules] [--selftest]
                    [--sarif FILE] [--no-cache] [--no-artifacts] [paths...]

Exit status: 0 clean, 1 findings (or selftest failure), 2 usage error.
Registered as the `repo_analyze` ctest test; --selftest additionally runs
the bad/good fixtures under tests/analyze/fixtures/, the full-tree clean
check (twice: cold cache, then warm — results must match), and the
30 s wall-time budget.
"""

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import async_lifetime
import call_graph
import cpp_model
import interproc
from rules import ALL_RULES

ANALYZE_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")
FIXTURE_DIR = os.path.join("tests", "analyze", "fixtures")

# Interprocedural rule registry (names usable in --rules / fixtures /
# analyze:allow, docs feed --list-rules and SARIF).
INTERPROC_RULES = {
    interproc.NAME_MAY_BLOCK:
        "may-block: a call made while a MutexLock is held whose callee "
        "transitively reaches a blocking primitive (CondVar::Wait, "
        "Future-style Get, sleep, blocking IO, or the reactor blocking "
        "boundary RunOne/BlockOn/BlockingWait).",
    interproc.NAME_LOCK_ORDER:
        "lock-order-cycle: a cycle in the static cross-TU "
        "lock-acquisition-order graph — a deadlock on some interleaving.",
}
INTERPROC_RULES.update(async_lifetime.DOCS)

# pin-balance moved to the interprocedural engine (callee-provided unpins
# must count); the intra module remains only as documentation + helpers.
INTRA_SKIP = {"pin-balance"}


def rule_docs():
    docs = {name: mod.DOC for name, mod in ALL_RULES.items()}
    docs.update(INTERPROC_RULES)
    return docs


def known_rules():
    return list(ALL_RULES) + [r for r in INTERPROC_RULES
                              if r not in ALL_RULES]


def collect_files(root, paths):
    if paths:
        for p in paths:
            if os.path.isfile(p):
                yield os.path.abspath(p)
        return
    fixture_abs = os.path.join(root, FIXTURE_DIR)
    for d in ANALYZE_DIRS:
        top = os.path.join(root, d)
        for dirpath, _, names in os.walk(top):
            if os.path.abspath(dirpath).startswith(fixture_abs):
                continue  # fixtures are intentionally broken
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------

def analyzer_generation():
    """Content stamp over the analyzer's own sources: any change to the
    parser or the rules invalidates every cache entry."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for dirpath, _, names in sorted(os.walk(here)):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class FileCache:
    def __init__(self, path, generation):
        self.path = path
        self.generation = generation
        self.entries = {}
        self.hits = 0
        self.misses = 0
        self.dirty = False
        if path and os.path.isfile(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
                if data.get("generation") == generation:
                    self.entries = data.get("files", {})
            except (OSError, ValueError):
                pass

    def get(self, rel, sha):
        e = self.entries.get(rel)
        if e is not None and e.get("sha") == sha:
            self.hits += 1
            return e
        self.misses += 1
        return None

    def put(self, rel, entry):
        self.entries[rel] = entry
        self.dirty = True

    def save(self):
        if not self.path or not self.dirty:
            return
        d = os.path.dirname(self.path)
        if d:
            os.makedirs(d, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"generation": self.generation, "files": self.entries},
                      fh, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def analyze_file_entry(path, rel):
    """Parses one file; returns a cacheable entry dict:
    {sha, intra: [[line, rule, msg]...] (pre-allow-filter),
     allow: {line: [rules]}, summary: file summary}.

    All intra rules always run so the cache entry is independent of the
    --rules selection; filtering happens at use time."""
    try:
        model = cpp_model.parse_file(path)
    except Exception as e:  # parse failure must not kill the run
        return {"intra": [[1, "parse-error",
                           f"analyzer could not parse: {e}"]],
                "allow": {}, "summary": {"path": rel, "classes": {},
                                         "functions": []}}
    intra = []
    for rule_name, mod in ALL_RULES.items():
        if rule_name in INTRA_SKIP:
            continue
        for f in mod.check(model, rel):
            intra.append([f.line, f.rule, f.message])
    allow = {str(ln): sorted(rs) for ln, rs in model.allow_map.items()}
    return {"intra": intra, "allow": allow,
            "summary": call_graph.summarize_file(model, rel)}


def _allowed(allow_map, line, rule):
    return rule in allow_map.get(str(line), ()) or \
        rule in allow_map.get(str(line - 1), ())


def analyze_program(root, rules, paths=(), cache=None):
    """Whole-program analysis. Returns (n_files, findings, inventory,
    lock_order_dump, async_escapes_dump) with findings as sorted
    (rel, line, rule, message)."""
    findings = []
    summaries = []
    allow_by_file = {}
    n = 0
    for path in collect_files(root, paths):
        rel = os.path.relpath(path, root)
        n += 1
        with open(path, "rb") as fh:
            raw = fh.read()
        sha = hashlib.sha256(raw).hexdigest()
        entry = cache.get(rel, sha) if cache is not None else None
        if entry is None:
            entry = analyze_file_entry(path, rel)
            entry["sha"] = sha
            if cache is not None:
                cache.put(rel, entry)
        allow_by_file[rel] = entry["allow"]
        summaries.append(entry["summary"])
        for (line, rule, msg) in entry["intra"]:
            if rule != "parse-error" and rule not in rules:
                continue  # cache may hold rules not selected this run
            if _allowed(entry["allow"], line, rule):
                continue
            findings.append((rel, line, rule, msg))

    graph = call_graph.CallGraph(summaries)
    inter_findings, inventory, lock_order = interproc.run(graph)
    async_findings, escapes = async_lifetime.run(graph)
    for f in inter_findings + async_findings:
        if f.rule not in rules:
            continue
        if _allowed(allow_by_file.get(f.file, {}), f.line, f.rule):
            continue
        findings.append((f.file, f.line, f.rule, f.message))

    findings.sort(key=lambda x: (x[0], x[1], x[2]))
    # Intra and interprocedural layers can see the same hazard at the same
    # site; keep one finding per (file, line, rule) — the first (intra) one.
    deduped = []
    seen = set()
    for f in findings:
        key = f[:3]
        if key not in seen:
            seen.add(key)
            deduped.append(f)
    return n, deduped, inventory, lock_order, escapes


def print_findings(findings):
    for (rel, line, rule, msg) in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")


def write_artifacts(root, inventory, lock_order, escapes):
    out_dir = os.path.join(root, "build", "analyze")
    interproc.write_json(
        os.path.join(out_dir, "blocking_inventory.json"), inventory)
    interproc.write_json(os.path.join(out_dir, "lock_order.json"), lock_order)
    interproc.write_json(
        os.path.join(out_dir, "async_escapes.json"), escapes)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def selftest(root, rules, cache_path):
    """Fixtures must behave; the clean tree must be clean (cold cache and
    warm cache must agree); artifacts must be emitted; under 30 s."""
    t0 = time.monotonic()
    failures = []
    bad_dir = os.path.join(root, FIXTURE_DIR, "bad")
    good_dir = os.path.join(root, FIXTURE_DIR, "good")

    def fixture_findings(path):
        # Each fixture is its own single-file "program": intra rules plus
        # the interprocedural passes over just that file.
        _, found, _, _, _ = analyze_program(root, rules, [path])
        return found

    n_bad = 0
    bad_by_rule = {}
    for name in sorted(os.listdir(bad_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        n_bad += 1
        expected_rule = name.split("__")[0]
        bad_by_rule[expected_rule] = bad_by_rule.get(expected_rule, 0) + 1
        found = fixture_findings(os.path.join(bad_dir, name))
        hits = [f for f in found if f[2] == expected_rule]
        if not hits:
            failures.append(
                f"bad fixture {name}: expected a [{expected_rule}] finding, "
                f"got {[f[2] for f in found] or 'none'}")

    n_good = 0
    good_by_rule = {}
    for name in sorted(os.listdir(good_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        n_good += 1
        # Good fixtures are named <rule_with_underscores>_<desc>.cc; count
        # them against the longest matching rule prefix.
        for rule in known_rules():
            if name.startswith(rule.replace("-", "_") + "_"):
                good_by_rule[rule] = good_by_rule.get(rule, 0) + 1
        found = fixture_findings(os.path.join(good_dir, name))
        if found:
            failures.append(f"good fixture {name}: unexpected finding(s): " +
                            "; ".join(f"[{f[2]}] line {f[1]}" for f in found))

    # The async-lifetime rules ship with a guaranteed fixture floor.
    for rule in sorted(async_lifetime.DOCS):
        if bad_by_rule.get(rule, 0) < 3:
            failures.append(f"fixture coverage: need >=3 bad fixtures for "
                            f"[{rule}], have {bad_by_rule.get(rule, 0)}")
        if good_by_rule.get(rule, 0) < 2:
            failures.append(f"fixture coverage: need >=2 good fixtures for "
                            f"[{rule}], have {good_by_rule.get(rule, 0)}")

    generation = analyzer_generation()
    cold = FileCache(cache_path, generation)
    cold.entries = {}  # force a cold run even if a cache file exists
    n_tree, tree_findings, inventory, lock_order, escapes = analyze_program(
        root, rules, cache=cold)
    cold.save()
    for f in tree_findings:
        failures.append(f"clean tree: {f[0]}:{f[1]}: [{f[2]}] {f[3]}")

    # Warm run: every file served from cache, identical results.
    warm = FileCache(cache_path, generation)
    t_warm = time.monotonic()
    n2, warm_findings, warm_inventory, _, warm_escapes = analyze_program(
        root, rules, cache=warm)
    warm_dt = time.monotonic() - t_warm
    if warm_findings != tree_findings:
        failures.append("incremental cache: warm-run findings differ from "
                        "cold run")
    if warm_inventory != inventory:
        failures.append("incremental cache: warm-run inventory differs "
                        "from cold run")
    if warm_escapes != escapes:
        failures.append("incremental cache: warm-run async escapes differ "
                        "from cold run")
    if warm.misses:
        failures.append(f"incremental cache: {warm.misses} cache miss(es) "
                        "on unchanged tree")

    if inventory["total"] == 0:
        failures.append("blocking inventory is empty: the tree has known "
                        "blocking primitives (CondVar::Wait, BlockOn), "
                        "so the may-block fixpoint lost them")
    if escapes["total"] == 0 or not any(
            s["file"].startswith("src") for s in escapes["sites"]):
        failures.append("async escapes inventory lost the src/ deferred "
                        "sinks: the tree posts continuations (Reactor::Post,"
                        " ScheduleAfter, OnSet), so the escapes-to-deferred "
                        "fixpoint missed them")
    write_artifacts(root, inventory, lock_order, escapes)

    dt = time.monotonic() - t0
    print(f"skadi_analyzer --selftest: {n_bad} bad + "
          f"{n_good} good fixtures, {n_tree} tree files "
          f"(warm rerun {warm_dt:.2f}s, {warm.hits} cached), "
          f"{inventory['total']} may-block functions, "
          f"{escapes['total']} deferred-sink sites in {dt:.1f}s")
    if dt > 30.0:
        failures.append(f"selftest took {dt:.1f}s; budget is 30s")
    for f in failures:
        print(f"  FAIL: {f}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    ap.add_argument("--rules", default=",".join(known_rules()),
                    help="comma-separated rule subset")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--sarif", metavar="FILE",
                    help="write findings as SARIF 2.1.0 for code scanning")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable the incremental per-file cache")
    ap.add_argument("--cache", metavar="FILE",
                    help="cache path (default <root>/build/analyze/"
                         "cache.json)")
    ap.add_argument("--no-artifacts", action="store_true",
                    help="skip writing blocking_inventory.json / "
                         "lock_order.json / async_escapes.json")
    ap.add_argument("paths", nargs="*")
    args = ap.parse_args()

    if args.list_rules:
        for name, doc in sorted(rule_docs().items()):
            first = next(l for l in doc.splitlines() if l.strip())
            print(f"{name}: {first.split(':', 1)[-1].strip()}")
        return 0

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in known_rules()]
    if unknown:
        print(f"skadi_analyzer: unknown rule(s): {', '.join(unknown)}; "
              f"known: {', '.join(known_rules())}", file=sys.stderr)
        return 2

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"skadi_analyzer: no src/ under --root {root}", file=sys.stderr)
        return 2

    cache_path = args.cache or os.path.join(root, "build", "analyze",
                                            "cache.json")
    if args.no_cache:
        cache_path = None

    if args.selftest:
        return selftest(root, rules, cache_path)

    t0 = time.monotonic()
    cache = None
    if cache_path and not args.paths:
        cache = FileCache(cache_path, analyzer_generation())
    n, findings, inventory, lock_order, escapes = analyze_program(
        root, rules, args.paths, cache=cache)
    if cache is not None:
        cache.save()
    print_findings(findings)
    if not args.paths and not args.no_artifacts:
        write_artifacts(root, inventory, lock_order, escapes)
    if args.sarif:
        import sarif
        sarif.write(args.sarif, findings, rule_docs())
    dt = time.monotonic() - t0
    cached = f", {cache.hits} cached" if cache is not None else ""
    print(f"skadi_analyzer: {n} files, "
          f"{len(findings)} finding(s) in {dt:.1f}s{cached}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
