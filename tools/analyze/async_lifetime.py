"""Async-lifetime passes: capture-escape analysis for deferred continuations.

The reactor-era control plane hands lambdas to deferred sinks —
Reactor::Post / ScheduleAfter, Event::OnSet, OwnershipTable::StateOrWatch,
CachingLayer::GetAsync / SkadiRuntime::GetAsync — where they run later, on
a driver thread, after the registering frame has returned and possibly
after the registering object has been destroyed.
Synchronous escape analysis cannot see that hop; these passes close the gap.

  escapes-to-deferred  fixpoint over the call graph: the seed sinks above,
                       plus any function that forwards a callable-typed
                       parameter/local into a known sink (`void Defer(F f)
                       { reactor_.Post(f); }` makes Defer a sink too).

  async-capture        a continuation reaching a deferred sink captures an
                       enclosing frame-local by reference (`&x` or a `[&]`
                       default that touches frame-locals). The frame is
                       gone when the continuation runs.

  async-this           a continuation reaching a deferred sink captures raw
                       `this` (explicitly, or implicitly via `[=]`/`[&]`
                       touching members) from a class without a lifetime
                       guarantee. Accepted guarantees (DESIGN.md §14):
                         1. a strong guard rides along: a by-value capture
                            of a shared_ptr (the `self = shared_from_this()`
                            idiom) in the same capture list;
                         2. the sink receiver is a by-value Reactor member
                            of the same class and the class destructor
                            calls Shutdown (owner drains its own reactor
                            before dying — the Raylet pattern);
                         3. an explicit `// analyze:lifetime <reason>`
                            annotation on the lambda, the line above it, or
                            the sink call line.

  async-view-escape    a continuation reaching a deferred sink captures a
                       view-typed value (string_view / ArrayView / Span) —
                       by value or by reference, the view still points at
                       storage owned by someone who has no idea the async
                       hop happened.

Continuation bodies are first-class functions in the graph (lambda
pseudo-functions, cpp_model.FileModel.lambda_functions) connected by
synthetic `deferred` edges, so locks acquired *inside* a continuation
participate in the may-block and lock-order passes; the deferred edges
themselves are excluded from caller-ward propagation (interproc.py).

Tests and bench code are exempt from the three finding rules (they
synchronize explicitly, pin-balance has the same carve-out); every deferred
sink site — tests included — still appears in build/analyze/
async_escapes.json with its capture classification and witness chain.
"""

import re

from interproc import Finding

NAME_ASYNC_CAPTURE = "async-capture"
NAME_ASYNC_THIS = "async-this"
NAME_ASYNC_VIEW = "async-view-escape"

DOCS = {
    NAME_ASYNC_CAPTURE:
        "async-capture: a continuation handed to a deferred sink "
        "(Post/ScheduleAfter/OnSet/StateOrWatch/GetAsync, or a function "
        "forwarding into one) captures an enclosing frame-local by "
        "reference; the frame is gone when the continuation runs.",
    NAME_ASYNC_THIS:
        "async-this: a continuation reaching a deferred sink captures raw "
        "`this` without a lifetime guarantee (shared_from_this guard, "
        "owned-reactor-with-Shutdown-in-dtor, or `// analyze:lifetime "
        "<reason>`).",
    NAME_ASYNC_VIEW:
        "async-view-escape: a view-typed capture (string_view/ArrayView/"
        "Span) crosses the async boundary into a deferred sink; the "
        "backing storage outlives nothing across that hop.",
}

# Seed deferred sinks by (class, method); the bare-name set catches call
# sites whose receiver the graph cannot resolve (these names are unique to
# the continuation plumbing in this tree, and fixtures rely on the name
# match working single-file).
SEED_SINKS = {
    ("Reactor", "Post"), ("Reactor", "ScheduleAfter"),
    ("Event", "OnSet"), ("OwnershipTable", "StateOrWatch"),
    ("CachingLayer", "GetAsync"), ("SkadiRuntime", "GetAsync"),
}
SEED_NAMES = {"Post", "ScheduleAfter", "OnSet", "StateOrWatch", "GetAsync"}

_VIEW_TYPE_RE = re.compile(r"\b(ArrayView|string_view|StringView|Span)\b")

_MAX_CHAIN = 8


def compute_deferred_sinks(graph):
    """uid -> next-hop uid (None for seeds) for every function that defers
    its callback argument: the seeds, plus the forwarding fixpoint."""
    sinks = {}
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        if (f["cls"], f["name"]) in SEED_SINKS or f["name"] in SEED_NAMES:
            sinks[uid] = None
    changed = True
    while changed:
        changed = False
        for uid in sorted(graph.functions):
            if uid in sinks:
                continue
            f = graph.functions[uid]
            fwd = f.get("cb_fwd")
            if not fwd:
                continue
            by_seq = {}
            for (call, targets) in graph.out_edges(uid):
                if not call.get("deferred"):
                    by_seq.setdefault(call["seq"], []).extend(targets)
            for fw in fwd:
                targets = by_seq.get(fw["seq"], [])
                hit = next((t for t in sorted(targets) if t in sinks), None)
                if hit is None and not targets and \
                        fw["callee"] in SEED_NAMES:
                    hit = uid  # unresolved but seed-named: self-terminate
                if hit is not None:
                    sinks[uid] = None if hit == uid else hit
                    changed = True
                    break
    return sinks


def sink_chain(graph, sinks, uid):
    """['Defer', ..., 'Reactor::Post'] from a derived sink down to its
    seed."""
    chain = []
    seen = set()
    cur = uid
    while cur is not None and cur not in seen and len(chain) < _MAX_CHAIN:
        seen.add(cur)
        chain.append(graph.functions[cur]["display"])
        cur = sinks.get(cur)
    return chain


def _sink_of_call(graph, sinks, call, targets):
    """(is_sink, resolved_sink_uid | None) for one call site."""
    if targets:
        hit = next((t for t in sorted(targets) if t in sinks), None)
        return (hit is not None, hit)
    return (call["callee"] in SEED_NAMES, None)


def _annotated(graph, rel, *lines):
    lt = graph.lifetime.get(rel, {})
    for ln in lines:
        if ln is None:
            continue
        if ln in lt or (ln - 1) in lt:
            return lt.get(ln, lt.get(ln - 1))
    return None


def _dtor_shuts_down(graph, cls):
    """True when the class destructor (transitively, one resolved hop)
    calls Shutdown — the owner drains its reactor before dying."""
    for uid in graph.by_qual.get((cls, cls), ()):
        f = graph.functions[uid]
        if not f.get("dtor"):
            continue
        for (call, targets) in graph.out_edges(uid):
            if call.get("deferred"):
                continue
            if call["callee"] == "Shutdown":
                return True
            for t in targets:
                if any(c["callee"] == "Shutdown"
                       for c in graph.functions[t]["calls"]):
                    return True
    return False


def _owned_reactor_guarantee(graph, outer, sink_call):
    """Guarantee 2: the sink receiver is a by-value Reactor member of the
    registering class, and that class's destructor calls Shutdown."""
    cls = outer["cls"]
    if not cls:
        return False
    base = sink_call.get("base")
    if base:
        mty = graph.classes.get(cls, {}).get(base)
        if not mty or "Reactor" not in mty or "*" in mty:
            return False
        return _dtor_shuts_down(graph, cls)
    if not sink_call.get("recv"):
        # Bare Post()/ScheduleAfter() inside the reactor class itself:
        # the continuation targets `this`'s own loop, drained by Shutdown.
        resolved_cls = None
        hits = graph.by_qual.get((cls, sink_call["callee"]))
        if hits:
            resolved_cls = cls
        return resolved_cls is not None and _dtor_shuts_down(graph, cls)
    return False


def _exempt_path(rel):
    p = rel.replace("\\", "/")
    if "/fixtures/" in p:
        return False
    return p.startswith("tests/") or p.startswith("bench/")


def run(graph):
    """Returns (findings, async_escapes_dump)."""
    sinks = compute_deferred_sinks(graph)
    findings = []
    # (outer uid, sink seq) -> lambda pseudo-function summary, for the dump.
    lam_at_site = {}
    # uid of lambda -> [rule names flagged], for classification.
    flagged = {}
    guarded = {}

    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        lam = f.get("lam")
        if not lam or lam.get("sink") is None:
            continue
        sink = lam["sink"]
        outer_uid = lam["outer"]
        outer = graph.functions.get(outer_uid)
        if outer is None:
            continue
        site = None
        for (call, targets) in graph.out_edges(outer_uid):
            if call.get("deferred") or call["seq"] != sink["seq"]:
                continue
            site = (call, targets)
            break
        if site is None:
            continue
        call, targets = site
        is_sink, sink_uid = _sink_of_call(graph, sinks, call, targets)
        if not is_sink:
            continue
        lam_at_site[(outer_uid, sink["seq"])] = uid

        chain = sink_chain(graph, sinks, sink_uid) if sink_uid \
            else [call["callee"]]
        via = " -> ".join(chain)
        where = f"{f['file']}:{lam['line']}"

        reason = _annotated(graph, f["file"], lam["line"], sink["line"])
        if reason is not None:
            guarded[uid] = f"annotated: {reason}"
            continue
        exempt = _exempt_path(f["file"])

        # -- async-capture / async-view-escape ---------------------------
        ref_names = []
        view_caps = []
        for c in lam["captures"]:
            if c["kind"] == "ref" and c.get("local"):
                if _VIEW_TYPE_RE.search(c.get("type", "")):
                    view_caps.append(c)
                else:
                    ref_names.append(c["name"])
            elif c["kind"] in ("value", "init_value") and \
                    _VIEW_TYPE_RE.search(c.get("type", "")):
                view_caps.append(c)
        default_ref = []
        if lam["ref_default"]:
            for d in lam["default_locals"]:
                if _VIEW_TYPE_RE.search(d["type"]):
                    view_caps.append({"name": d["name"], "kind": "ref",
                                      "type": d["type"]})
                else:
                    default_ref.append(d["name"])
        elif lam["value_default"]:
            for d in lam["default_locals"]:
                if _VIEW_TYPE_RE.search(d["type"]):
                    view_caps.append({"name": d["name"], "kind": "value",
                                      "type": d["type"]})

        if ref_names or default_ref:
            flagged.setdefault(uid, []).append(NAME_ASYNC_CAPTURE)
            if not exempt:
                names = ", ".join(f"'{n}'" for n in
                                  sorted(set(ref_names + default_ref)))
                how = "by reference" if ref_names else "via the [&] default"
                findings.append(Finding(
                    f["file"], lam["line"], NAME_ASYNC_CAPTURE,
                    f"continuation in {outer['display']}() ({where}) is "
                    f"deferred through {via} but captures frame-local(s) "
                    f"{names} {how}; the frame is gone when it runs — "
                    "capture by value / move into shared state, or annotate "
                    "`// analyze:lifetime <reason>`"))
        if view_caps:
            flagged.setdefault(uid, []).append(NAME_ASYNC_VIEW)
            if not exempt:
                what = ", ".join(f"'{c['name']}' ({c['type']})"
                                 for c in view_caps)
                findings.append(Finding(
                    f["file"], lam["line"], NAME_ASYNC_VIEW,
                    f"continuation in {outer['display']}() ({where}) is "
                    f"deferred through {via} but captures view(s) {what}; "
                    "a view crossing the async boundary points at storage "
                    "that owes it nothing — capture the owning object "
                    "(Buffer/string) instead, or annotate "
                    "`// analyze:lifetime <reason>`"))

        # -- async-this ---------------------------------------------------
        captures_this = any(c["kind"] == "this" for c in lam["captures"]) \
            or ((lam["ref_default"] or lam["value_default"])
                and lam["uses_this"])
        if captures_this:
            if lam["strong_guard"]:
                guarded[uid] = "strong guard (shared_ptr capture)"
            elif _owned_reactor_guarantee(graph, outer, call):
                guarded[uid] = "owned reactor, Shutdown in dtor"
            else:
                flagged.setdefault(uid, []).append(NAME_ASYNC_THIS)
                if not exempt:
                    findings.append(Finding(
                        f["file"], lam["line"], NAME_ASYNC_THIS,
                        f"continuation in {outer['display']}() ({where}) "
                        f"is deferred through {via} and captures raw "
                        "`this` with no lifetime guarantee — capture "
                        "`self = shared_from_this()` alongside, post only "
                        "to a Reactor member this class Shutdown()s in its "
                        "destructor, or annotate `// analyze:lifetime "
                        "<reason>`"))

    dump = _escapes_dump(graph, sinks, lam_at_site, flagged, guarded)
    return findings, dump


def _escapes_dump(graph, sinks, lam_at_site, flagged, guarded):
    """JSON-ready inventory of every deferred-sink call site: who defers
    what into where, the capture classification, and the witness chain."""
    sites = []
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        # Lambdas are walked too: a continuation can itself defer further
        # continuations (re-arm patterns), and those sites belong here.
        for (call, targets) in graph.out_edges(uid):
            if call.get("deferred") or call.get("annotated"):
                continue
            is_sink, sink_uid = _sink_of_call(graph, sinks, call, targets)
            if not is_sink:
                continue
            chain = sink_chain(graph, sinks, sink_uid) if sink_uid \
                else [call["callee"]]
            entry = {
                "file": f["file"],
                "line": call["line"],
                "function": f["display"],
                "sink": call["callee"],
                "chain": chain,
            }
            lam_uid = lam_at_site.get((uid, call["seq"]))
            if lam_uid is not None:
                lf = graph.functions[lam_uid]
                lam = lf["lam"]
                entry["continuation"] = lf["display"]
                entry["captures"] = [
                    {"name": c["name"] or f"<{c['kind']}>",
                     "kind": c["kind"], "type": c.get("type", "")}
                    for c in lam["captures"]]
                if lam_uid in flagged:
                    rules = ", ".join(sorted(set(flagged[lam_uid])))
                    entry["classification"] = \
                        (f"exempt (tests/bench): {rules}"
                         if _exempt_path(lf["file"])
                         else f"flagged: {rules}")
                elif lam_uid in guarded:
                    entry["classification"] = guarded[lam_uid]
                else:
                    entry["classification"] = "safe (by-value captures)"
            else:
                entry["continuation"] = None
                entry["captures"] = []
                entry["classification"] = "forwarded callback variable"
            sites.append(entry)
    sites.sort(key=lambda s: (s["file"], s["line"], s["sink"]))
    return {
        "comment": "Every deferred-sink call site: continuations handed to "
                   "Post/ScheduleAfter/OnSet/StateOrWatch/GetAsync or to a "
                   "function that forwards into one (escapes-to-deferred "
                   "fixpoint). Capture classification per site; "
                   "`flagged:` entries correspond "
                   "to async-capture/async-this/async-view-escape findings "
                   "(tests/bench are classified but exempt from findings).",
        "total": len(sites),
        "sites": sites,
    }
