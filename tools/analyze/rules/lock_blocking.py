"""lock-blocking: no blocking call while an annotated Mutex is held.

DESIGN.md §8 fixes the lock order (LocalObjectStore::mu_ -> CachingLayer::mu_,
Scheduler::mu_ -> CachingLayer::mu_, CachingLayer::mu_ -> Fabric::mu_) and the
drop-the-lock-around-IO idiom: the caching layer releases `mu_` with
`lock.Unlock()` before touching a store, the fabric, or a remote fetch, and
re-acquires afterwards. Holding a lock across one of those entry points is
either a lock-order inversion waiting to deadlock or a latency cliff (every
reader of that mutex stalls behind a cross-node transfer).

Flagged while any MutexLock is active (Unlock()/Lock() toggling and scope
exits are tracked, so the caching layer's drop-the-lock sections do not
count):

  * `Raylet::RunTask`, `OwnershipTable::WaitReady`-style blocking waits,
  * store entry points (`Put/Get/Delete/Clear/Pin/Unpin` on a *store
    receiver),
  * caching-layer entry points that fan out to stores or the fabric
    (`Put/Get/Delete/Migrate/PutEc/PutDurable/GetDurable`; directory reads
    like `SizeOf`/`Locations` take only the cache mutex and are the
    documented Scheduler -> CachingLayer edge, so they are fine),
  * fabric control hop / transfer (`Control`, `TransferBytes` on a fabric
    receiver; both take `Fabric::mu_`),
  * `CondVar::Wait(lock)` while a *second* lock is held (Wait releases only
    its own lock).

Calls inside lambda bodies are skipped: the lambda usually runs later on
another thread, where the lock is no longer held. The GUARDED_BY annotations
in the file tell the report whether the held mutex is an annotated one.
"""

import re

from cpp_model import pretty

NAME = "lock-blocking"
DOC = __doc__

_BLOCKING_ANY = {"RunTask", "WaitReady", "WaitUntilIdle"}
_STORE_METHODS = {"Put", "Get", "Delete", "Clear", "Pin", "Unpin"}
_CACHE_METHODS = {"Put", "Get", "Delete", "Migrate", "PutEc", "PutDurable",
                  "GetDurable", "EnableSpillToBlade"}
_FABRIC_METHODS = {"Control", "TransferBytes"}
_WAIT_METHODS = {"Wait", "WaitFor", "WaitUntil"}

_STORE_RECV_RE = re.compile(r"store", re.IGNORECASE)
_CACHE_RECV_RE = re.compile(r"cach", re.IGNORECASE)
_FABRIC_RECV_RE = re.compile(r"fabric", re.IGNORECASE)


def check(model, rel_path):
    from rules import Finding
    findings = []
    for fn in model.functions:
        if not fn.locks:
            continue
        for call in fn.calls:
            if call.lambda_depth > 0:
                continue
            held = fn.active_locks(call.index)
            if not held:
                continue
            what = _classify(model, fn, call)
            if what is None:
                continue
            kind, detail = what
            if kind == "wait":
                # Wait(lock) releases its own lock; only *other* held locks
                # are a problem.
                held = [lk for lk in held if lk.name != detail]
                if not held:
                    continue
            locks_text = ", ".join(
                f"'{lk.name}' over ({pretty(lk.mutex_expr)})" +
                (" [GUARDED_BY-annotated]"
                 if _is_annotated(model, lk) else "")
                for lk in held)
            findings.append(Finding(
                call.line, NAME,
                f"{_call_text(call)} {detail if kind != 'wait' else 'can block'} "
                f"while holding {locks_text}; release the lock first "
                "(drop-the-lock idiom, DESIGN.md §8 lock order)"))
    return findings


def _call_text(call):
    recv = call.receiver.replace(" ", "")
    return f"{recv}{call.callee}()" if recv else f"{call.callee}()"


def _is_annotated(model, lock):
    tail = lock.mutex_expr.split(" ")[-1] if lock.mutex_expr else ""
    return tail in model.guarded_mutexes


def _first_arg_name(model, call):
    """First argument when it is a bare identifier (Wait(lock, deadline))."""
    open_idx = call.index + 1
    close = model.match.get(open_idx)
    if close is None or close < open_idx + 2:
        return None
    tok = model.tokens[open_idx + 1]
    after = model.tokens[open_idx + 2]
    if tok.kind == "ident" and after.text in (",", ")"):
        return tok.text
    return None


def _classify(model, fn, call):
    """Returns (kind, detail) for a blocking call, else None."""
    recv = call.receiver
    if call.callee in _BLOCKING_ANY:
        return ("any", "blocks")
    if call.callee in _WAIT_METHODS:
        arg = _first_arg_name(model, call)
        if arg is not None and any(lk.name == arg for lk in fn.locks):
            return ("wait", arg)
        if "cv" in recv or "cond" in recv:
            return ("any", "can block indefinitely")
        return None
    if not recv:
        return None
    if call.callee in _STORE_METHODS and _STORE_RECV_RE.search(recv):
        return ("store", "calls into an object store")
    if call.callee in _CACHE_METHODS and _CACHE_RECV_RE.search(recv):
        return ("cache", "enters the caching layer (fans out to "
                         "stores/fabric)")
    if call.callee in _FABRIC_METHODS and _FABRIC_RECV_RE.search(recv):
        return ("fabric", "does fabric IO")
    return None
