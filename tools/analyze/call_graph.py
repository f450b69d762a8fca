"""Tree-wide call graph over per-file scope models (cpp_model.FileModel).

Two layers:

  * `summarize_file(model, rel_path)` reduces a parsed file to a
    JSON-serializable summary — per function: call sites with receiver
    chains and held-lock sets, lock acquisitions, direct blocking
    primitives, pin/unpin sites, view-helper facts, and any
    `// analyze:calls` annotations. Summaries are what the incremental
    cache stores, so everything here must stay plain dict/list/str/int.

  * `CallGraph(file_summaries)` indexes every function in the program and
    resolves call sites to callees:
      1. explicit `// analyze:calls Target` annotations (virtual dispatch,
         std::function callbacks, thread entry points),
      2. qualified calls (`Reactor::Post`),
      3. receiver-chain resolution: the base identifier's type comes from
         locals/params (recorded at summary time) or from the merged
         class-member map (cross-file: members live in the .h, calls in the
         .cc); chained member accesses and accessor calls
         (`cluster_->cache().Put(...)`) walk member types and accessor
         return types,
      4. same-class bare calls (`Helper()` inside a method),
      5. a name fallback for free functions / unique method names —
         suppressed for AMBIGUOUS_NAMES so `it->second.Get()` never links
         every `Get` in the tree.

    Unresolvable call sites stay edge-less: the interprocedural passes are
    deliberately under-approximate there and the intra-procedural rules
    (receiver-regex based) keep covering those sites.
"""

import re

from cpp_model import pretty

# Method names too common to link by name alone: receiver or annotation
# resolution only. Keeps std containers / unrelated classes from aliasing.
AMBIGUOUS_NAMES = {
    "Get", "Put", "Delete", "Clear", "Size", "Add", "Remove", "Run",
    "Start", "Stop", "Reset", "Init", "Send", "Call", "Wait", "Submit",
    "Push", "Pop", "Insert", "Erase", "Find", "Begin", "End", "Next",
    "Lock", "Unlock", "Pin", "Unpin", "Ok", "ok", "begin", "end", "find",
    "insert", "erase", "push_back", "emplace_back", "size", "empty",
    "count", "at", "clear", "reset", "get", "data", "str", "c_str",
    "Notify", "NotifyOne", "NotifyAll", "Name", "name", "Shutdown",
}

# Direct may-block primitives, seeded at summary time (the fixpoint in
# interproc.py propagates them up the call graph).
_WAIT_METHODS = {"Wait", "WaitFor", "WaitUntil", "wait", "wait_for",
                 "wait_until"}
_SLEEP_CALLEES = {"sleep", "usleep", "nanosleep", "sleep_for", "sleep_until"}
_BLOCKING_IO_CALLEES = {"poll", "epoll_wait", "select", "accept", "recvmsg",
                        "fsync", "fdatasync"}
# Fabric RPC names treated as blocking round trips. src/'s Fabric has no
# such call any more; the seed stays for the may-block fixture
# (transitive_fabric_call), whose `fabric_->Send` stands for any blocking
# RPC. Control and TransferBytes are not listed: they only charge modelled
# time to the clock, never realize it as delay.
_FABRIC_METHODS = {"Call", "Send"}
# Reactor blocking boundary: driving the loop (RunOne) and the drain shims
# (BlockOn / Event::BlockingWait) park or busy the calling thread. Posting,
# timer scheduling, and continuation registration are non-blocking.
_REACTOR_WAIT_METHODS = {"RunOne", "BlockOn", "BlockingWait", "DriveUntil"}
_FUTURE_GET_RE = re.compile(r"(fut|future)", re.IGNORECASE)
_FABRIC_RECV_RE = re.compile(r"fabric", re.IGNORECASE)
_CV_RECV_RE = re.compile(r"(cv|cond)", re.IGNORECASE)

_PIN_CALLEES = {"pin_arg", "Pin", "PinArg"}
_UNPIN_CALLEES = {"unpin_arg", "Unpin", "UnpinArg"}

# Callable-looking types: std::function vocab plus the repo's continuation
# aliases. A variable of such a type passed as an argument into a deferred
# sink makes the passing function itself a sink (async_lifetime fixpoint).
_CALLBACK_TYPE_RE = re.compile(
    r"\b(function|Continuation|FlushFn|Callback|callback|Handler|Fn)\b")

_VIEW_RETURN_RE = re.compile(r"\b(ArrayView|string_view|StringView|Span)\b")
_OWNING_TYPE_RE = re.compile(
    r"\b(vector|string|basic_string|Buffer|Tensor|Column|RecordBatch|"
    r"array|deque)\b")

# Type tokens never naming a program class (template wrappers, std vocab).
_TYPE_NOISE = {
    "std", "const", "volatile", "unsigned", "signed", "long", "short",
    "struct", "class", "enum", "auto", "static", "mutable", "typename",
    "shared_ptr", "unique_ptr", "weak_ptr", "vector", "deque", "array",
    "map", "unordered_map", "set", "unordered_set", "pair", "tuple",
    "optional", "function", "atomic", "int", "bool", "char", "float",
    "double", "void", "size_t", "int64_t", "uint64_t", "int32_t",
    "uint32_t", "string", "string_view",
}


def _type_idents(type_text):
    return [t for t in type_text.split()
            if t and (t[0].isalpha() or t[0] == "_") and t not in _TYPE_NOISE]


def function_uid(rel_path, display, line):
    return f"{rel_path}#{display}#{line}"


def _decl_init_contains(model, fn, decl, needle):
    """True when the declaration's initializer tokens mention `needle`
    (e.g. `auto self = shared_from_this();`). Bounded scan to the `;`."""
    toks = model.tokens
    i = decl.index + 1
    if i > fn.body_range[1] or toks[i].text not in ("=", "(", "{"):
        return False
    for j in range(i, min(i + 48, fn.body_range[1])):
        if toks[j].text == ";":
            return False
        if toks[j].kind == "ident" and toks[j].text == needle:
            return True
    return False


def _lambda_facts(model, fn, rel_path):
    """Capture classification + deferred-sink attribution for one lambda
    pseudo-function. All values JSON-serializable (cached in summaries)."""
    lam = fn.decl
    parent = fn.parent
    intro_open, intro_close = lam.intro
    body_open, body_close = lam.body
    toks = model.tokens

    # The enclosing call in the parent whose argument list contains the
    # lambda — the candidate deferred sink (`r.Post([..]{..})`). Innermost
    # paren group wins; a lambda assigned to a variable has no sink.
    sink = None
    best_open = -1
    for call in parent.calls:
        o = call.index + 1
        c = model.match.get(o)
        if c is None:
            continue
        if o < intro_open and c > body_close and o > best_open:
            best_open = o
            sink = {"seq": call.index, "callee": call.callee,
                    "recv": call.receiver, "line": call.line}

    explicit = {c["name"] for c in lam.captures if c["name"]}
    caps = []
    strong_guard = False
    for c in lam.captures:
        entry = dict(c)
        d = None
        if c["name"] and c["name"] != "this":
            d = parent.find_local(c["name"], at_index=intro_open)
        entry["local"] = d is not None
        entry["type"] = pretty(d.type_text) if d is not None else ""
        if c["kind"] in ("value", "init_value", "star_this"):
            ttext = d.type_text if d is not None else ""
            if "shared_ptr" in ttext or "shared_from_this" in c["init"]:
                strong_guard = True
            elif d is not None and _decl_init_contains(
                    model, parent, d, "shared_from_this"):
                strong_guard = True
        caps.append(entry)

    ref_default = any(c["kind"] == "ref_default" for c in lam.captures)
    value_default = any(c["kind"] == "value_default" for c in lam.captures)
    default_locals = []
    if ref_default or value_default:
        seen = set()
        for i in range(body_open + 1, body_close):
            t = toks[i]
            if t.kind != "ident" or t.text in seen or t.text in explicit:
                continue
            if toks[i - 1].text in (".", "->", "::"):
                continue  # member access, not a frame-local reference
            if fn.find_local(t.text, at_index=i) is not None:
                continue  # the lambda's own parameter or local
            d = parent.find_local(t.text, at_index=intro_open)
            if d is not None:
                seen.add(t.text)
                default_locals.append(
                    {"name": t.text, "type": pretty(d.type_text)})

    # Raw-`this` use: an explicit `this` token, or a bare reference to a
    # member of the enclosing class (a `[=]`/`[&]` default captures `this`
    # implicitly when the body touches members).
    uses_this = False
    members = model.class_members.get(fn.class_name, {})
    for i in range(body_open + 1, body_close):
        t = toks[i]
        if t.kind != "ident":
            continue
        if t.text == "this":
            uses_this = True
            break
        if t.text in members and t.text not in explicit and \
                toks[i - 1].text not in (".", "->", "::") and \
                fn.find_local(t.text, at_index=i) is None and \
                parent.find_local(t.text, at_index=intro_open) is None:
            uses_this = True
            break

    return {
        "outer": function_uid(rel_path, parent.display_name(), parent.line),
        "line": lam.line,
        "sink": sink,
        "captures": caps,
        "ref_default": ref_default,
        "value_default": value_default,
        "default_locals": default_locals,
        "uses_this": uses_this,
        "strong_guard": strong_guard,
    }


def summarize_file(model, rel_path):
    """One JSON-serializable summary dict for a parsed file."""
    from rules import lock_blocking  # intra classification, reused verbatim

    classes = {cls: dict(members)
               for cls, members in model.class_members.items()}
    functions = []
    for fn in list(model.functions) + list(
            getattr(model, "lambda_functions", ())):
        display = fn.display_name()
        locals_map = {}
        for d in fn.locals:
            locals_map.setdefault(d.name, d.type_text)
        calls = []
        for call in fn.calls:
            held = [_canonical_mutex(lk, fn) for lk in fn.active_locks(call.index)]
            wait_own = False
            if call.callee in _WAIT_METHODS:
                arg = lock_blocking._first_arg_name(model, call)
                if arg is not None and any(lk.name == arg for lk in fn.locks):
                    wait_own = True
            direct = None
            if fn.locks and held and call.lambda_depth == 0:
                cls = lock_blocking._classify(model, fn, call)
                if cls is not None:
                    kind, _ = cls
                    if kind != "wait" or not wait_own:
                        direct = kind
            base = None
            base_type = None
            chain = call.receiver.split() if call.receiver else []
            if chain and (chain[0][0].isalpha() or chain[0][0] == "_"):
                base = chain[0]
                if base in locals_map:
                    base_type = locals_map[base]
            calls.append({
                "callee": call.callee,
                "recv": call.receiver,
                "line": call.line,
                "seq": call.index,
                "lambda": call.lambda_depth,
                "held": held,
                "wait_own": wait_own,
                "direct": direct,
                "base": base,
                "base_type": base_type,
            })
        entry = {
            "uid": function_uid(rel_path, display, fn.line),
            "name": fn.name,
            "cls": fn.class_name,
            "display": display,
            "file": rel_path,
            "line": fn.line,
            "ret": fn.return_text,
            "locals": locals_map,
            "calls": calls,
            "acquires": _acquisitions(fn),
            "blocking": _direct_blocking(model, fn, calls),
            "pins": [{"callee": c["callee"], "line": c["line"],
                      "seq": c["seq"]}
                     for c in calls
                     if c["callee"] in _PIN_CALLEES and c["recv"]],
            "unpins": [{"callee": c["callee"], "line": c["line"],
                        "seq": c["seq"]}
                       for c in calls
                       if c["callee"] in _UNPIN_CALLEES and c["recv"]],
            "raii_guard": _has_raii_unpinner(model, fn),
            "returns": _return_sites(model, fn),
            "returns_view": _VIEW_RETURN_RE.search(fn.return_text) is not None,
            "view_into_param": _view_into_param(model, fn),
            "view_calls": _view_helper_calls(model, fn),
            "annotated": fn.annotated_calls(),
            "body": [fn.body_range[0], fn.body_range[1]],
            "cb_fwd": _callback_forwards(model, fn, calls, locals_map),
        }
        if fn.is_dtor:
            entry["dtor"] = True
        if fn.is_lambda:
            entry["is_lambda"] = True
            entry["lam"] = _lambda_facts(model, fn, rel_path)
        functions.append(entry)
    return {"path": rel_path, "classes": classes, "functions": functions,
            "bases": dict(getattr(model, "class_bases", {})),
            "lifetime": {str(ln): reason for ln, reason in
                         getattr(model, "lifetime_map", {}).items()}}


def _canonical_mutex(lock, fn):
    """Stable cross-TU name for the mutex a LockRegion guards.

    `mu_` inside a CachingLayer method -> `CachingLayer::mu_`;
    `flight->mu` with a local `Flight* flight` -> `Flight::mu`;
    a `Mutex&` parameter stays function-scoped (its identity is unknown
    statically, so it must not alias any class mutex).
    """
    expr = lock.mutex_expr.strip()
    toks = [t for t in expr.split() if t not in ("*", "&")]
    if not toks:
        return f"{fn.display_name()}::<lock:{lock.name}>"
    # `a :: b` stays as written.
    if "::" in toks:
        return pretty(" ".join(toks))
    if len(toks) == 1:
        name = toks[0]
        d = fn.find_local(name)
        if d is not None:
            # Parameter or local reference to some caller's mutex.
            base = _type_idents(d.type_text)
            if base and base[-1] != "Mutex":
                return f"{base[-1]}::{name}"
            return f"{fn.display_name()}::{name}"
        if fn.class_name:
            return f"{fn.class_name}::{name}"
        return name
    # `a -> b` / `a . b`: resolve the base via locals/params.
    if len(toks) == 3 and toks[1] in (".", "->"):
        base, _, member = toks
        d = fn.find_local(base)
        if d is not None:
            idents = _type_idents(d.type_text)
            if idents:
                return f"{idents[-1]}::{member}"
        if base == "this":
            return f"{fn.class_name}::{member}" if fn.class_name else member
        return f"{base}.{member}"
    return pretty(" ".join(toks))


def _acquisitions(fn):
    """Lock acquisition sites with the set of canonical mutexes already
    held: each MutexLock declaration, plus every re-`Lock()` interval.

    Acquisitions inside a lambda body belong to that lambda's
    pseudo-function, not the enclosing frame: the continuation runs after
    the frame's locks are released, so attributing them here would invent
    lock-order edges across the async boundary."""
    out = []
    for lk in fn.locks:
        points = [lk.decl_index]
        points.extend(a for (a, _) in lk.intervals[1:])
        mutex = _canonical_mutex(lk, fn)
        for p in points:
            if fn.lambda_depth_at(p) > 0:
                continue
            held = [_canonical_mutex(other, fn)
                    for other in fn.active_locks(p)
                    if other is not lk and
                    fn.lambda_depth_at(other.decl_index) == 0]
            out.append({"mutex": mutex,
                        "line": fn.file.tokens[p].line,
                        "seq": p,
                        "held": held})
    return out


def _direct_blocking(model, fn, calls):
    """May-block seeds found directly in the body, with reason kinds."""
    out = []
    for c in calls:
        if c["lambda"] > 0:
            continue  # runs later, on some other thread's stack
        callee, recv = c["callee"], c["recv"]
        if callee in _WAIT_METHODS and (
                c["wait_own"] or _CV_RECV_RE.search(recv)):
            out.append({"kind": "condvar-wait", "line": c["line"],
                        "what": _call_text(c)})
        elif callee in _SLEEP_CALLEES:
            out.append({"kind": "sleep", "line": c["line"],
                        "what": _call_text(c)})
        elif callee in _BLOCKING_IO_CALLEES and not recv:
            out.append({"kind": "blocking-io", "line": c["line"],
                        "what": _call_text(c)})
        elif callee in _FABRIC_METHODS and _FABRIC_RECV_RE.search(recv):
            out.append({"kind": "fabric-call", "line": c["line"],
                        "what": _call_text(c)})
        elif callee == "Get" and recv and _FUTURE_GET_RE.search(recv):
            out.append({"kind": "future-get", "line": c["line"],
                        "what": _call_text(c)})
        elif callee in _REACTOR_WAIT_METHODS:
            out.append({"kind": "reactor-wait", "line": c["line"],
                        "what": _call_text(c)})
    return out


def _call_text(c):
    recv = c["recv"].replace(" ", "")
    return f"{recv}{c['callee']}()" if recv else f"{c['callee']}()"


def _callback_forwards(model, fn, calls, locals_map):
    """Call sites that forward a callable-typed local/parameter as an
    argument: [{"name", "callee", "recv", "line", "seq"}]. Feeds the
    escapes-to-deferred fixpoint in async_lifetime.py."""
    cb_names = {n for n, ty in locals_map.items()
                if _CALLBACK_TYPE_RE.search(ty)}
    if not cb_names:
        return []
    toks = model.tokens
    out = []
    for c in calls:
        if c["lambda"] > 0:
            continue
        open_idx = c["seq"] + 1
        close = model.match.get(open_idx)
        if close is None or close > fn.body_range[1]:
            continue
        for i in range(open_idx + 1, close):
            t = toks[i]
            if t.kind != "ident" or t.text not in cb_names:
                continue
            if toks[i - 1].text in (".", "->", "::"):
                continue
            if fn.lambda_depth_at(i) > 0:
                continue  # captured inside a nested lambda, not forwarded
            out.append({"name": t.text, "callee": c["callee"],
                        "recv": c["recv"], "line": c["line"],
                        "seq": c["seq"]})
            break
    return out


def _has_raii_unpinner(model, fn):
    from rules import pin_balance
    return pin_balance._has_raii_unpinner(model, fn)


def _return_sites(model, fn):
    out = []
    toks = model.tokens
    for i in fn.body_indices():
        if toks[i].kind == "ident" and toks[i].text == "return":
            out.append({"line": toks[i].line, "seq": i,
                        "lambda": fn.lambda_depth_at(i)})
    return out


def _view_into_param(model, fn):
    """True when some return statement references a parameter of owning
    type — the helper shape `string_view Head(const Buffer& b)`."""
    if not _VIEW_RETURN_RE.search(fn.return_text):
        return False
    toks = model.tokens
    for r in _return_sites(model, fn):
        if r["lambda"]:
            continue
        i = r["seq"] + 1
        while i < fn.body_range[1] and toks[i].text != ";":
            t = toks[i]
            if t.kind == "ident":
                d = fn.find_local(t.text, at_index=None)
                if d is not None and d.depth == 0 and \
                        _OWNING_TYPE_RE.search(d.type_text):
                    return True
            i += 1
    return False


def _view_helper_calls(model, fn):
    """Candidate interprocedural view escapes: `return Helper(local)` and
    `member_ = Helper(local)` where `local` is a body-local owning
    container. Whether Helper actually returns a view into its parameter
    is decided at graph time."""
    out = []
    toks = model.tokens
    lo, hi = fn.body_range

    def local_owning_ref(a, b):
        for i in range(a, b):
            t = toks[i]
            if t.kind != "ident":
                continue
            d = fn.find_local(t.text, at_index=i)
            if d is not None and d.depth >= 1 and \
                    not d.type_text.startswith("static") and \
                    _OWNING_TYPE_RE.search(d.type_text):
                return d
        return None

    for call in fn.calls:
        if call.lambda_depth > 0 or call.receiver:
            continue
        open_idx = call.index + 1
        close = model.match.get(open_idx)
        if close is None or close > hi:
            continue
        d = local_owning_ref(open_idx + 1, close)
        if d is None:
            continue
        # What consumes the call result?
        prev = toks[call.index - 1].text if call.index > lo else ""
        if prev == "return":
            out.append({"helper": call.callee, "line": call.line,
                        "local": d.name, "ltype": pretty(d.type_text),
                        "kind": "return", "member": ""})
        elif prev == "=" and call.index >= 2:
            lhs = toks[call.index - 2]
            if lhs.kind == "ident" and lhs.text.endswith("_") and \
                    fn.find_local(lhs.text, at_index=call.index) is None:
                out.append({"helper": call.callee, "line": call.line,
                            "local": d.name, "ltype": pretty(d.type_text),
                            "kind": "member", "member": lhs.text})
    return out


class CallGraph:
    """Program-wide function index + call-site resolution."""

    def __init__(self, file_summaries):
        self.files = file_summaries
        self.functions = {}          # uid -> function summary
        self.by_name = {}            # name -> [uid]
        self.by_qual = {}            # (cls, name) -> [uid]
        self.classes = {}            # class -> {member: type}
        self.class_bases = {}        # class -> [base idents]
        self.lifetime = {}           # rel path -> {line: reason}
        for fs in file_summaries:
            for cls, members in fs.get("classes", {}).items():
                merged = self.classes.setdefault(cls, {})
                for m, ty in members.items():
                    merged.setdefault(m, ty)
            for cls, bases in fs.get("bases", {}).items():
                merged = self.class_bases.setdefault(cls, [])
                for b in bases:
                    if b not in merged:
                        merged.append(b)
            if fs.get("lifetime"):
                lt = self.lifetime.setdefault(fs["path"], {})
                for ln, reason in fs["lifetime"].items():
                    lt[int(ln)] = reason
            for f in fs["functions"]:
                self.functions[f["uid"]] = f
                self.by_name.setdefault(f["name"], []).append(f["uid"])
                if f["cls"]:
                    self.by_qual.setdefault(
                        (f["cls"], f["name"]), []).append(f["uid"])
        self.edges = {}              # uid -> [(call dict, [target uid])]
        self.callers = {}            # uid -> number of resolved call sites
        self._resolve_all()
        self._add_deferred_edges()

    # -- resolution ------------------------------------------------------

    def _resolve_all(self):
        for uid, f in self.functions.items():
            out = []
            annotated = self._resolve_annotated(f)
            for call in f["calls"]:
                targets = self._resolve_call(f, call)
                out.append((call, targets))
                for t in targets:
                    self.callers[t] = self.callers.get(t, 0) + 1
            # Annotation edges attach as a synthetic call site at the
            # function head (they have no single source line of their own).
            for t in annotated:
                out.append(({"callee": self.functions[t]["name"],
                             "recv": "", "line": f["line"], "seq": -1,
                             "lambda": 0, "held": [], "wait_own": False,
                             "direct": None, "base": None,
                             "base_type": None, "annotated": True}, [t]))
                self.callers[t] = self.callers.get(t, 0) + 1
            self.edges[uid] = out

    def _add_deferred_edges(self):
        """Synthetic `deferred: true` edges from each function to its
        lambda pseudo-functions. These make continuation bodies reachable
        (their own acquisitions/blocking participate in the inventory and
        lock-order passes) but are excluded from caller-ward propagation:
        locks held at the registration site are *not* held when the
        continuation later runs, and the registering frame does not block."""
        for uid in sorted(self.functions):
            f = self.functions[uid]
            lam = f.get("lam")
            if not lam:
                continue
            outer = lam.get("outer")
            if outer not in self.functions:
                continue
            self.edges.setdefault(outer, []).append((
                {"callee": f["name"], "recv": "", "line": f["line"],
                 "seq": -2, "lambda": 0, "held": [], "wait_own": False,
                 "direct": None, "base": None, "base_type": None,
                 "deferred": True}, [uid]))
            self.callers[uid] = self.callers.get(uid, 0) + 1

    def _resolve_annotated(self, f):
        out = []
        for target in f.get("annotated", ()):
            if "::" in target:
                cls, name = target.rsplit("::", 1)
                out.extend(self.by_qual.get((cls, name), ()))
            else:
                out.extend(self.by_name.get(target, ()))
        return out

    def _resolve_call(self, f, call):
        callee = call["callee"]
        chain = call["recv"].split() if call["recv"] else []
        if chain and chain[-1] == "::":
            cls = chain[-2] if len(chain) >= 2 else ""
            return list(self.by_qual.get((cls, callee), ()))
        if chain:
            cls = self._chain_class(f, call, chain)
            if cls is not None:
                return list(self.by_qual.get((cls, callee), ()))
            return self._name_fallback(callee, methods_ok=False)
        # Bare call: same-class method wins, then the name fallback.
        if f["cls"]:
            hits = self.by_qual.get((f["cls"], callee))
            if hits:
                return list(hits)
        return self._name_fallback(callee, methods_ok=True)

    def _chain_class(self, f, call, chain):
        """Class of the receiver for `base op (member|method())* op callee`."""
        base = call.get("base")
        if base is None:
            return None
        if base == "this":
            cls = f["cls"] or None
        else:
            ty = call.get("base_type")
            if ty is None:
                ty = f.get("locals", {}).get(base)
            if ty is None and f["cls"]:
                ty = self.classes.get(f["cls"], {}).get(base)
            cls = self._class_of_type(ty) if ty else None
        if cls is None:
            return None
        # Walk the rest of the chain: `-> member .` / `-> accessor ( ) .`
        i = 1
        n = len(chain)
        while i < n - 1:  # last element is the trailing access operator
            op = chain[i]
            if op not in (".", "->"):
                return None
            i += 1
            if i >= n - 1:
                break
            name = chain[i]
            i += 1
            if i < n - 1 and chain[i] == "(":
                # accessor call: use the method's return type
                while i < n - 1 and chain[i] != ")":
                    i += 1
                i += 1  # past ")"
                uids = self.by_qual.get((cls, name))
                if not uids:
                    return None
                cls = self._class_of_type(self.functions[uids[0]]["ret"])
            else:
                member_ty = self.classes.get(cls, {}).get(name)
                cls = self._class_of_type(member_ty) if member_ty else None
            if cls is None:
                return None
        return cls

    def _class_of_type(self, type_text):
        """Program class named by a type: last known-class identifier, so
        `std::shared_ptr<Topology>` -> Topology, `LocalObjectStore*` ->
        LocalObjectStore."""
        if not type_text:
            return None
        candidates = [t for t in _type_idents(type_text) if self._is_class(t)]
        return candidates[-1] if candidates else None

    def _is_class(self, name):
        if name in self.classes:
            return True
        if not hasattr(self, "_class_names"):
            self._class_names = {cls for (cls, _) in self.by_qual}
        return name in self._class_names

    def _name_fallback(self, callee, methods_ok):
        """Name-only resolution: all same-name candidates, iff they all
        belong to one function family (overload set) and the name is not
        hopelessly generic."""
        if callee in AMBIGUOUS_NAMES:
            return []
        uids = self.by_name.get(callee, [])
        if not uids:
            return []
        displays = {self.functions[u]["display"] for u in uids}
        if len(displays) != 1:
            return []  # same name across different classes: no edge
        if not methods_ok and any(self.functions[u]["cls"] for u in uids):
            # receiver present but unresolved; linking a method by name
            # alone would alias unrelated receivers
            return []
        return list(uids)

    # -- queries ---------------------------------------------------------

    def out_edges(self, uid):
        return self.edges.get(uid, ())

    def call_site_count(self, uid):
        return self.callers.get(uid, 0)
