"""Interprocedural passes over the whole-program CallGraph.

Four passes, all fixpoint- or SCC-based over the resolved call graph:

  may-block        seeds from blocking primitives (CondVar::Wait,
                   Future-style Get, sleep, blocking IO, the reactor
                   blocking boundary — RunOne / BlockOn /
                   Event::BlockingWait — and fabric Call/Send, which src/
                   no longer has but the transitive_fabric_call fixture
                   keeps covered) propagate caller-ward;
                   continuation registration (Post / ScheduleAfter /
                   OnSet / StateOrWatch / GetAsync) is not a seed, and
                   lambda bodies never propagate blocking to the
                   registering frame; a call made
                   while a MutexLock is held whose callee transitively
                   may block is flagged with a call-chain witness. The
                   full may-block set is also emitted as
                   build/analyze/blocking_inventory.json: the blocking
                   boundary, where every entry is a thread that can park.

  lock-order-cycle lock-acquisition-order edges are collected across all
                   translation units (A held while acquiring B => A->B),
                   including edges only visible interprocedurally (call
                   under A into a function that transitively acquires B);
                   a strongly connected component in that graph is a
                   static deadlock candidate — the same property TSan's
                   deadlock detector checks dynamically, but proven over
                   all paths, not just executed ones.

  pin-balance      the intra rule upgraded: unpin calls provided by a
                   callee (directly or transitively) balance a caller's
                   pin; a pin whose unpin lives nowhere in the transitive
                   callee set is a store leak.

  view-escape      helper-mediated escapes: `return Helper(local)` /
                   `member_ = Helper(local)` where Helper returns a view
                   into its parameter and `local` dies with the frame.
"""

import json

NAME_MAY_BLOCK = "may-block"
NAME_LOCK_ORDER = "lock-order-cycle"
NAME_PIN_BALANCE = "pin-balance"
NAME_VIEW_ESCAPE = "view-escape"

# Propagation depth cap for witness chains in messages (the fixpoint itself
# is unbounded; this only truncates the printed chain).
_MAX_CHAIN = 8


class Finding:
    __slots__ = ("file", "line", "rule", "message")

    def __init__(self, file, line, rule, message):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message


# ---------------------------------------------------------------------------
# may-block
# ---------------------------------------------------------------------------

def compute_may_block(graph):
    """uid -> {"kinds": set, "witness": (call, target_uid) | None,
               "seed": seed dict | None} for every transitively-blocking
    function. Deterministic: iteration orders follow sorted uids."""
    info = {}
    worklist = []
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        if f["blocking"]:
            kinds = {b["kind"] for b in f["blocking"]}
            info[uid] = {"kinds": set(kinds), "witness": None,
                         "seed": sorted(f["blocking"],
                                        key=lambda b: b["line"])[0]}
            worklist.append(uid)
    # Reverse edges: callee uid -> [(caller uid, call dict)]
    rev = {}
    for uid in sorted(graph.functions):
        for (call, targets) in graph.out_edges(uid):
            if call.get("lambda") or call.get("deferred"):
                continue  # deferred body: runs on another stack later
            if call.get("wait_own"):
                continue  # Wait(own lock) handled by the seed in the callee
            for t in targets:
                rev.setdefault(t, []).append((uid, call))
    while worklist:
        target = worklist.pop()
        kinds = info[target]["kinds"]
        for (caller, call) in rev.get(target, ()):
            cur = info.get(caller)
            if cur is None:
                info[caller] = {"kinds": set(kinds),
                                "witness": (call, target), "seed": None}
                worklist.append(caller)
            elif not kinds <= cur["kinds"]:
                cur["kinds"] |= kinds
                worklist.append(caller)
    return info


def witness_chain(graph, info, uid):
    """['Display (file:line)', ...] from uid down to a blocking seed."""
    chain = []
    seen = set()
    cur = uid
    while cur is not None and cur not in seen and len(chain) < _MAX_CHAIN:
        seen.add(cur)
        f = graph.functions[cur]
        entry = info.get(cur)
        if entry is None:
            break
        if entry["witness"] is None:
            seed = entry["seed"]
            chain.append(f"{f['display']} ({f['file']}:{seed['line']} "
                         f"{seed['what']} [{seed['kind']}])")
            return chain
        call, nxt = entry["witness"]
        chain.append(f"{f['display']} ({f['file']}:{call['line']})")
        cur = nxt
    chain.append("...")
    return chain


def check_may_block(graph, info):
    """Findings: a call under a held lock whose callee transitively blocks.

    Calls the intra-procedural lock-blocking rule already flags (`direct`
    classification recorded at summary time) are skipped — one finding per
    hazard, from the layer that sees it first."""
    findings = []
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        reported_lines = set()
        for (call, targets) in graph.out_edges(uid):
            if not call["held"] or call.get("lambda") or \
                    call.get("wait_own") or call.get("deferred"):
                continue
            if call.get("direct") and not f.get("is_lambda"):
                continue  # intra lock-blocking already reports this site;
                          # lambda pseudo-functions have no intra coverage,
                          # so their direct sites are reported here
            if call.get("annotated"):
                continue  # annotation edges have no real source line
            blocking = [t for t in targets if t in info]
            if not blocking or call["line"] in reported_lines:
                continue
            reported_lines.add(call["line"])
            target = min(blocking)  # deterministic pick
            chain = witness_chain(graph, info, target)
            locks = ", ".join(f"'{h}'" for h in sorted(set(call["held"])))
            findings.append(Finding(
                f["file"], call["line"], NAME_MAY_BLOCK,
                f"{f['display']}() calls {call['callee']}() while holding "
                f"{locks}, and the callee transitively blocks: "
                + " -> ".join(chain) +
                "; release the lock first or convert the wait to a "
                "continuation"))
    return findings


def blocking_inventory(graph, info):
    """Deterministic JSON-ready inventory of every transitively-blocking
    function: the blocking boundary."""
    entries = []
    for uid in sorted(info):
        f = graph.functions[uid]
        entries.append({
            "function": f["display"],
            "file": f["file"],
            "line": f["line"],
            "kinds": sorted(info[uid]["kinds"]),
            "direct": info[uid]["witness"] is None,
            "call_sites": graph.call_site_count(uid),
            "witness": witness_chain(graph, info, uid),
        })
    entries.sort(key=lambda e: (-e["call_sites"], e["file"], e["line"]))
    return {
        "comment": "Functions that transitively reach a blocking primitive "
                   "(CondVar::Wait / Future-style Get / sleep / blocking "
                   "IO / reactor-wait — RunOne, BlockOn, "
                   "Event::BlockingWait). Every entry burns an OS thread "
                   "while it waits. The entries are the intended blocking "
                   "boundary: reactor drivers and the drain-loop shims "
                   "under the blocking public APIs; "
                   "continuation-based paths (GetAsync, StateOrWatch, "
                   "Post/ScheduleAfter) do not appear. Ranked by resolved "
                   "call-site count.",
        "total": len(entries),
        "functions": entries,
    }


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------

def compute_transitive_acquires(graph):
    """uid -> set of canonical mutex names the function may acquire,
    directly or through any resolved callee."""
    acq = {}
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        acq[uid] = {a["mutex"] for a in f["acquires"]}
    changed = True
    while changed:
        changed = False
        for uid in sorted(graph.functions):
            mine = acq[uid]
            before = len(mine)
            for (call, targets) in graph.out_edges(uid):
                if call.get("lambda") or call.get("deferred"):
                    continue  # a continuation's acquisitions happen later,
                              # with the registration-site locks released
                for t in targets:
                    mine |= acq.get(t, set())
            if len(mine) != before:
                changed = True
    return acq


def build_lock_order_graph(graph, trans_acq):
    """mutex -> {successor mutex: (file, line, description)} — one witness
    per edge, the lexicographically first."""
    edges = {}

    def add_edge(a, b, file, line, desc):
        if a == b:
            return
        succ = edges.setdefault(a, {})
        key = (file, line, desc)
        if b not in succ or key < succ[b]:
            succ[b] = key

    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        # Intra: MutexLock B acquired while A held.
        for a in f["acquires"]:
            for held in a["held"]:
                add_edge(held, a["mutex"], f["file"], a["line"],
                         f"{f['display']} acquires '{a['mutex']}' while "
                         f"holding '{held}'")
        # Interprocedural: call under A into a callee acquiring B.
        # Deferred (continuation) edges never carry held locks: the
        # registering frame's locks are released before the body runs.
        for (call, targets) in graph.out_edges(uid):
            if not call["held"] or call.get("lambda") or \
                    call.get("deferred"):
                continue
            for t in targets:
                for m in sorted(trans_acq.get(t, ())):
                    for held in call["held"]:
                        add_edge(held, m, f["file"], call["line"],
                                 f"{f['display']} -> "
                                 f"{graph.functions[t]['display']} acquires "
                                 f"'{m}' while '{held}' is held")
    return edges


def check_lock_order(graph, trans_acq):
    """SCCs in the lock-order graph are static deadlock candidates."""
    edges = build_lock_order_graph(graph, trans_acq)
    sccs = _tarjan(edges)
    findings = []
    for scc in sccs:
        cycle_nodes = sorted(scc)
        if len(cycle_nodes) == 1:
            m = cycle_nodes[0]
            if m not in edges.get(m, {}):
                continue  # trivial SCC, no self-loop
        # Report at the first witness edge inside the SCC.
        witnesses = []
        in_scc = set(cycle_nodes)
        for a in cycle_nodes:
            for b, (file, line, desc) in sorted(edges.get(a, {}).items()):
                if b in in_scc:
                    witnesses.append((file, line, desc, a, b))
        witnesses.sort()
        if not witnesses:
            continue
        file, line, desc, _, _ = witnesses[0]
        edge_list = "; ".join(d for (_, _, d, _, _) in witnesses[:4])
        findings.append(Finding(
            file, line, NAME_LOCK_ORDER,
            f"lock-acquisition-order cycle over {{{', '.join(cycle_nodes)}}}"
            f" — a potential deadlock on some interleaving (static "
            f"counterpart of TSan's deadlock detector): {edge_list}"))
    return findings


def lock_order_dump(graph, trans_acq):
    """JSON-ready dump of the static acquisition-order graph, in the same
    A-held-while-locking-B edge vocabulary TSan's deadlock detector reports
    in its lock-order-inversion witnesses."""
    edges = build_lock_order_graph(graph, trans_acq)
    out = []
    for a in sorted(edges):
        for b in sorted(edges[a]):
            file, line, desc = edges[a][b]
            out.append({"held": a, "acquired": b, "file": file,
                        "line": line, "why": desc})
    return {"edges": out, "total": len(out)}


def _tarjan(edges):
    """Iterative Tarjan SCC over {node: {succ: ...}}; returns SCCs with
    more than one node, plus single nodes with self-loops filtered by the
    caller."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    nodes = sorted(set(edges) | {b for s in edges.values() for b in s})

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                elif succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1 or node in edges.get(node, {}):
                    sccs.append(scc)
    return sccs


# ---------------------------------------------------------------------------
# pin-balance (interprocedural)
# ---------------------------------------------------------------------------

def compute_provides_unpin(graph):
    """uids of functions that unpin (directly, via RAII, or transitively
    through a resolved callee)."""
    provides = set()
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        if f["unpins"] or f["raii_guard"]:
            provides.add(uid)
    changed = True
    while changed:
        changed = False
        for uid in sorted(graph.functions):
            if uid in provides:
                continue
            for (call, targets) in graph.out_edges(uid):
                if call.get("lambda") or call.get("deferred"):
                    continue
                if any(t in provides for t in targets):
                    provides.add(uid)
                    changed = True
                    break
    return provides


_PIN_PRIMITIVES = {"Pin", "Unpin", "PinArg", "UnpinArg",
                   "pin_arg", "unpin_arg"}


def check_pin_balance(graph, provides_unpin):
    """The intra pin-balance rule, upgraded: calls into unpin-providing
    helpers count as unpins (with their call site's position, so the
    early-return check still works)."""
    findings = []
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        if f["name"] in _PIN_PRIMITIVES:
            continue
        if f.get("is_lambda"):
            continue  # the enclosing function already counts lambda-body
                      # pins/unpins; double-charging the pseudo-function
                      # would report the async pin/unpin split as a leak
        p = f["file"].replace("\\", "/")
        if p.startswith("tests/") and "/fixtures/" not in p:
            continue  # tests pin deliberately to exercise eviction
        pins = f["pins"]
        if not pins:
            continue
        if f["raii_guard"]:
            continue
        unpins = list(f["unpins"])
        for (call, targets) in graph.out_edges(uid):
            if call.get("lambda") or call.get("annotated") or \
                    call.get("deferred"):
                continue
            if call["callee"] in _PIN_PRIMITIVES:
                continue
            if any(t in provides_unpin for t in targets):
                unpins.append({"callee": call["callee"],
                               "line": call["line"], "seq": call["seq"]})
        if not unpins:
            findings.append(Finding(
                f["file"], pins[0]["line"], NAME_PIN_BALANCE,
                f"{f['display']}() pins via {pins[0]['callee']}() but never "
                "unpins on any path (no unpin call, RAII guard, or "
                "unpinning callee); the store entry leaks"))
            continue
        if len(pins) > len(unpins):
            findings.append(Finding(
                f["file"], pins[0]["line"], NAME_PIN_BALANCE,
                f"{f['display']}() has {len(pins)} pin call(s) but only "
                f"{len(unpins)} unpin call(s) (callee-provided unpins "
                "included); some path leaks a pin"))
            continue
        first_pin = min(c["seq"] for c in pins)
        last_unpin = max(c["seq"] for c in unpins)
        for r in f["returns"]:
            if r["lambda"]:
                continue
            if first_pin < r["seq"] < last_unpin:
                findings.append(Finding(
                    f["file"], r["line"], NAME_PIN_BALANCE,
                    f"early return in {f['display']}() between pin and "
                    "unpin leaks the pin on that path; use an RAII guard"))
                break
    return findings


# ---------------------------------------------------------------------------
# view-escape (interprocedural)
# ---------------------------------------------------------------------------

def check_view_escape(graph):
    """`return Helper(local)` / `member_ = Helper(local)` where Helper
    returns a view into its parameter: the view outlives the local."""
    findings = []
    for uid in sorted(graph.functions):
        f = graph.functions[uid]
        reported = set()
        for vc in f.get("view_calls", ()):
            helpers = [u for u in graph.by_name.get(vc["helper"], ())
                       if graph.functions[u]["returns_view"]
                       and graph.functions[u]["view_into_param"]]
            if not helpers or vc["line"] in reported:
                continue
            reported.add(vc["line"])
            h = graph.functions[min(helpers)]
            if vc["kind"] == "return":
                findings.append(Finding(
                    f["file"], vc["line"], NAME_VIEW_ESCAPE,
                    f"{f['display']}() returns {h['display']}(...) — a view "
                    f"into local '{vc['local']}' ({vc['ltype']}); the "
                    "storage dies with the frame while the view escapes "
                    "through the helper"))
            else:
                findings.append(Finding(
                    f["file"], vc["line"], NAME_VIEW_ESCAPE,
                    f"member '{vc['member']}' stores {h['display']}(...) — "
                    f"a view into local '{vc['local']}' ({vc['ltype']}); "
                    "the member outlives the frame the view points into"))
    return findings


# ---------------------------------------------------------------------------
# driver entry
# ---------------------------------------------------------------------------

def run(graph):
    """All interprocedural passes. Returns (findings, inventory_dict,
    lock_order_dict)."""
    info = compute_may_block(graph)
    trans_acq = compute_transitive_acquires(graph)
    provides_unpin = compute_provides_unpin(graph)
    findings = []
    findings.extend(check_may_block(graph, info))
    findings.extend(check_lock_order(graph, trans_acq))
    findings.extend(check_pin_balance(graph, provides_unpin))
    findings.extend(check_view_escape(graph))
    inventory = blocking_inventory(graph, info)
    lock_order = lock_order_dump(graph, trans_acq)
    return findings, inventory, lock_order


def write_json(path, payload):
    import os
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
