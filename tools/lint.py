#!/usr/bin/env python3
"""Skadi repo lint: style and concurrency-hygiene checks.

Registered as the `repo_lint` ctest test, so a violation fails the suite.

Checks:
  include-guard     every header has `#pragma once` or a classic
                    `#ifndef SRC_..._H_` include guard.
  naked-new         `new` / `delete` outside smart-pointer wrappers. Escape
                    hatch: `// lint:allow naked-new (<reason>)` on the line.
  raw-mutex         direct use of std::mutex / std::condition_variable /
                    std::lock_guard / std::unique_lock anywhere but the
                    annotated wrappers in src/common/mutex.{h,cc}. Escape
                    hatch: `// lint:allow raw-mutex (<reason>)`.
  raw-thread        std::thread / std::jthread (std::thread::
                    hardware_concurrency is fine), std::async, and
                    std::this_thread::sleep_for / sleep_until in src/
                    anywhere but src/common/reactor.{h,cc}. Every thread in
                    src/ is a Reactor driver and a periodic task is a
                    Reactor timer, so one loop can drive them all. Escape
                    hatch: `// lint:allow raw-thread (<reason>)`.
  guarded-by        every `Mutex foo_;` member must be named by a
                    GUARDED_BY / PT_GUARDED_BY / REQUIRES / ACQUIRE /
                    RELEASE annotation in the same file — adding a lock
                    without annotating what it protects is an error. Escape
                    hatch: `// lint:allow unguarded-mutex (<reason>)` on
                    the declaration line.
  discarded-status  statement-level calls of known Status/Result-returning
                    methods whose return value is ignored (belt to the
                    [[nodiscard]] suspenders on Status/Result; catches
                    pre-C++17 compilers and expression-statement casts).
  zero-copy-hot-path
                    Buffer::FromBytes / Buffer::FromString in the data-plane
                    hot path (src/format/serde.cc, src/objectstore/,
                    src/cache/). Those constructors memcpy the payload; the
                    hot path must alias instead (Buffer::Wrap / Slice,
                    BufferReader views). Escape hatch:
                    `// lint:allow zero-copy-hot-path (<reason>)`.
  sharded-map       every `std::unordered_map` member declared in the sharded
                    control-plane headers (src/runtime/scheduler.h,
                    src/ownership/ownership_table.h) must carry a GUARDED_BY
                    annotation on its declaration — those tables are hit from
                    many threads and an unannotated map silently re-introduces
                    the single-lock (or no-lock) control plane the sharding
                    work removed. Escape hatch:
                    `// lint:allow sharded-map (<reason>)` on the declaration.
  metric-name       string literals passed directly to GetCounter / GetGauge /
                    GetHistogram / TraceSpan / BeginSpan / Instant in src/
                    must be declared in src/common/metric_names.h (pass the
                    names:: constant instead — a typo then fails the build,
                    not forks a time series), and every name declared there
                    must be dot-case (`seg.seg`, lowercase_with_underscores
                    segments; a trailing dot marks a prefix family). Tests
                    and benches may use ad-hoc literal names. Escape hatch:
                    `// lint:allow metric-name (<reason>)`.
  annotation-reason every analyzer escape hatch must say why: an
                    `// analyze:allow <rule>` needs a non-empty
                    `(<reason>)` and an `// analyze:lifetime` needs a
                    non-empty reason text. A bare suppression is a
                    time bomb — the next reader cannot tell a vetted
                    exception from a silenced bug. No escape hatch
                    (write the reason instead).

Usage: lint.py [--root REPO_ROOT] [--list-rules] [paths...]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

LINT_DIRS = ("src", "tests", "bench", "examples")
HEADER_EXTS = (".h", ".hpp")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")

# Files allowed to use raw std primitives: the wrappers themselves.
RAW_MUTEX_ALLOWED = {
    os.path.join("src", "common", "mutex.h"),
    os.path.join("src", "common", "mutex.cc"),
    os.path.join("src", "common", "thread_annotations.h"),
}

# The one file pair that may spawn and park threads: the Reactor itself.
RAW_THREAD_ALLOWED = {
    os.path.join("src", "common", "reactor.h"),
    os.path.join("src", "common", "reactor.cc"),
}

ALLOW_RE = re.compile(r"//\s*lint:allow\s+([a-z-]+)")

# Analyzer escape hatches (tools/analyze/): both must carry a reason.
ANALYZE_ALLOW_RE = re.compile(r"//\s*analyze:allow\s+([a-z-]+)([^\n]*)")
ANALYZE_LIFETIME_RE = re.compile(r"//\s*analyze:lifetime\b([^\n]*)")
PAREN_REASON_RE = re.compile(r"\(\s*[^)\s][^)]*\)")

# One-line summaries for --list-rules (kept in sync with the docstring).
RULE_DOCS = {
    "include-guard": "headers need #pragma once or a classic include guard",
    "naked-new": "no naked new/delete outside smart-pointer wrappers",
    "raw-mutex": "use skadi::Mutex/CondVar, not std primitives",
    "raw-thread": "no std::thread/jthread/async/sleep_for/sleep_until in "
                  "src/ outside the Reactor",
    "guarded-by": "every Mutex member must be named by a GUARDED_BY/"
                  "REQUIRES annotation in its file",
    "sharded-map": "unordered_map members in sharded control-plane headers "
                   "must be GUARDED_BY a shard lock",
    "discarded-status": "statement-level Status/Result calls must not "
                        "discard the result",
    "zero-copy-hot-path": "no copying Buffer ctors in the data-plane hot "
                          "path; alias with Wrap/Slice",
    "metric-name": "metric/span literals in src/ must come from "
                   "src/common/metric_names.h and be dot-case",
    "annotation-reason": "analyze:allow needs a non-empty (<reason>); "
                         "analyze:lifetime needs a non-empty reason text",
}

# Data-plane hot path: files where a payload memcpy is a perf regression, not
# a style nit. Buffer::FromBytes/FromString copy; these files must alias.
ZERO_COPY_HOT_PATHS = (
    os.path.join("src", "format", "serde.cc"),
    os.path.join("src", "objectstore") + os.sep,
    os.path.join("src", "cache") + os.sep,
)
COPYING_CTOR_RE = re.compile(r"\bBuffer::From(Bytes|String)\s*\(")

NAKED_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new T`, not placement-new syntax noise
NAKED_DELETE_RE = re.compile(r"\bdelete\b")
SMART_WRAP_RE = re.compile(
    r"std::(unique_ptr|shared_ptr|make_unique|make_shared)|absl::make_unique")
RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
RAW_THREAD_RE = re.compile(
    r"\bstd::(?:j?thread\b(?!\s*::\s*hardware_concurrency)|async\b|"
    r"this_thread\s*::\s*sleep_(?:for|until)\b)")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:skadi::)?(?:Debug)?Mutex\s+(\w+)\s*;")
GUARD_ANNOT_RE = re.compile(r"\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE)\s*\(")
INCLUDE_GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+\w+_H_?\b", re.MULTILINE)
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)

# Statement-level `foo.Bar(...);` / `foo->Bar(...);` / `Bar(...);` calls to
# these names with the result ignored are reported. Populated from the public
# Status/Result-returning surface of src/ headers.
STATUS_RETURNING = {
    # LocalObjectStore / CachingLayer
    "Put", "Pin", "Unpin", "PutEc", "PutDurable", "Migrate", "EnableSpillToBlade",
    # OwnershipTable
    "RegisterObject", "MarkLost", "MarkPendingForReconstruction",
    "IncRef", "DecRef",
    # Fabric / scheduler / raylet / runtime. "Register" is absent: it
    # collides with void Autoscaler::Register; FunctionRegistry::Register
    # discards are caught by [[nodiscard]] at compile time instead.
    "Control", "Submit", "Enqueue", "CreateActor",
    "AddNode", "RegisterTable",
}
# `Delete` / `Get` / `Send` etc. are deliberately absent: best-effort deletes
# and fire-and-forget sends are common and (void)-cast where intentional.

STRING_OR_COMMENT_RE = re.compile(
    r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'|//[^\n]*|/\*.*?\*/', re.DOTALL)

# Sharded control-plane headers: every std::unordered_map member must name
# the lock that guards it. Aliases/typedefs are exempt (they declare a type,
# not state).
SHARDED_MAP_FILES = {
    os.path.join("src", "runtime", "scheduler.h"),
    os.path.join("src", "ownership", "ownership_table.h"),
}
UNORDERED_MAP_DECL_RE = re.compile(r"^\s*(?:mutable\s+)?std::unordered_map\s*<")

# Metric/span name hygiene: literals at these call sites must be declared
# constants; names:: constants and computed names pass through untouched.
METRIC_NAME_FILE = os.path.join("src", "common", "metric_names.h")
METRIC_CALL_RE = re.compile(
    r'\b(GetCounter|GetGauge|GetHistogram|TraceSpan|BeginSpan|Instant)\s*'
    r'\(\s*"((?:\\.|[^"\\])*)"')
METRIC_DECL_RE = re.compile(
    r'inline\s+constexpr\s+char\s+k\w+\[\]\s*=\s*"((?:\\.|[^"\\])*)"')
DOT_CASE_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*\.?$")


def strip_strings_and_comments(text):
    """Blanks out string/char literals and comments, preserving offsets."""
    def repl(m):
        s = m.group(0)
        return "".join(c if c == "\n" else " " for c in s)
    return STRING_OR_COMMENT_RE.sub(repl, text)


def strip_comments_keep_strings(text):
    """Blanks out comments only, preserving offsets and string literals."""
    def repl(m):
        s = m.group(0)
        if s.startswith("/"):
            return "".join(c if c == "\n" else " " for c in s)
        return s
    return STRING_OR_COMMENT_RE.sub(repl, text)


def line_allows(raw_line, rule):
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group(1) == rule


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        self._metric_names = None  # lazy (declared names, prefix families)

    def metric_names(self):
        if self._metric_names is None:
            declared, prefixes = set(), set()
            path = os.path.join(self.root, METRIC_NAME_FILE)
            if os.path.isfile(path):
                with open(path, encoding="utf-8", errors="replace") as f:
                    for m in METRIC_DECL_RE.finditer(
                            strip_comments_keep_strings(f.read())):
                        name = m.group(1)
                        (prefixes if name.endswith(".") else declared).add(name)
            self._metric_names = (declared, prefixes)
        return self._metric_names

    def report(self, path, lineno, rule, message):
        rel = os.path.relpath(path, self.root)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path):
        rel = os.path.relpath(path, self.root)
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        stripped = strip_strings_and_comments(raw)
        raw_lines = raw.splitlines()
        lines = stripped.splitlines()

        if path.endswith(HEADER_EXTS):
            self.check_include_guard(path, raw)
        self.check_naked_new(path, raw_lines, lines)
        if rel not in RAW_MUTEX_ALLOWED:
            self.check_raw_mutex(path, raw_lines, lines)
        if rel.startswith("src" + os.sep) and rel not in RAW_THREAD_ALLOWED:
            self.check_raw_thread(path, raw_lines, lines)
        if path.endswith(HEADER_EXTS):
            self.check_guarded_by(path, raw_lines, lines)
        if rel in SHARDED_MAP_FILES:
            self.check_sharded_map(path, raw_lines, lines)
        self.check_discarded_status(path, raw_lines, lines)
        self.check_annotation_reason(path, raw_lines)
        if rel in ZERO_COPY_HOT_PATHS or any(
                rel.startswith(p) for p in ZERO_COPY_HOT_PATHS if p.endswith(os.sep)):
            self.check_zero_copy_hot_path(path, raw_lines, lines)
        if rel == METRIC_NAME_FILE:
            self.check_metric_name_decls(path, raw)
        elif rel.startswith("src" + os.sep):
            self.check_metric_names(path, raw, raw_lines)

    def check_include_guard(self, path, raw):
        if not (INCLUDE_GUARD_RE.search(raw) or PRAGMA_ONCE_RE.search(raw)):
            self.report(path, 1, "include-guard",
                        "header has neither an include guard nor #pragma once")

    def check_naked_new(self, path, raw_lines, lines):
        for i, line in enumerate(lines, 1):
            raw_line = raw_lines[i - 1]
            if line_allows(raw_line, "naked-new"):
                continue
            if NAKED_NEW_RE.search(line):
                if SMART_WRAP_RE.search(line):
                    continue  # new inside unique_ptr<T>(new T) on one line
                self.report(path, i, "naked-new",
                            "naked `new`; use std::make_unique/make_shared "
                            "(or annotate `// lint:allow naked-new (reason)`)")
            if NAKED_DELETE_RE.search(line):
                # `= delete;` declarations and deleted functions are fine.
                if re.search(r"=\s*delete\b", line):
                    continue
                self.report(path, i, "naked-new",
                            "naked `delete`; prefer owning smart pointers "
                            "(or annotate `// lint:allow naked-new (reason)`)")

    def check_raw_mutex(self, path, raw_lines, lines):
        for i, line in enumerate(lines, 1):
            raw_line = raw_lines[i - 1]
            if line_allows(raw_line, "raw-mutex"):
                continue
            m = RAW_MUTEX_RE.search(line)
            if m:
                self.report(path, i, "raw-mutex",
                            f"direct use of {m.group(0)}; use skadi::Mutex / "
                            "MutexLock / CondVar from src/common/mutex.h")

    def check_raw_thread(self, path, raw_lines, lines):
        for i, line in enumerate(lines, 1):
            if line_allows(raw_lines[i - 1], "raw-thread"):
                continue
            m = RAW_THREAD_RE.search(line)
            if m:
                self.report(path, i, "raw-thread",
                            f"direct use of {m.group(0)}; run the work on a "
                            "Reactor (Start / Post / ScheduleAfter) — or "
                            "annotate `// lint:allow raw-thread (reason)`")

    def check_guarded_by(self, path, raw_lines, lines):
        # Per-mutex: each `Mutex foo_;` member must be referenced by a
        # GUARDED_BY/PT_GUARDED_BY/REQUIRES/ACQUIRE/RELEASE annotation in
        # the same file, or carry `// lint:allow unguarded-mutex (reason)`.
        body = "\n".join(lines)
        annotated_refs = set()
        for m in re.finditer(
                r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRED_AFTER|"
                r"ACQUIRED_BEFORE|ACQUIRE|RELEASE)\s*\(([^)]*)\)", body):
            for ident in re.findall(r"[A-Za-z_]\w*", m.group(1)):
                annotated_refs.add(ident)
        for i, line in enumerate(lines, 1):
            m = MUTEX_MEMBER_RE.search(line)
            if not m or line_allows(raw_lines[i - 1], "unguarded-mutex"):
                continue
            name = m.group(1)
            if name not in annotated_refs:
                self.report(path, i, "guarded-by",
                            f"Mutex member '{name}' has no GUARDED_BY/"
                            "REQUIRES annotation naming it in this file; "
                            "annotate what it protects or add "
                            "`// lint:allow unguarded-mutex (reason)`")

    def check_sharded_map(self, path, raw_lines, lines):
        # In the sharded control-plane headers every std::unordered_map member
        # must be GUARDED_BY some lock. The declaration may wrap (annotation on
        # the next line), so join lines up to the terminating `;` first.
        i = 0
        while i < len(lines):
            line = lines[i]
            if not UNORDERED_MAP_DECL_RE.match(line) or re.match(
                    r"^\s*(using|typedef)\b", line):
                i += 1
                continue
            lineno = i + 1
            stmt_lines = [line]
            while ";" not in stmt_lines[-1] and i + 1 < len(lines):
                i += 1
                stmt_lines.append(lines[i])
            i += 1
            if any(line_allows(raw_lines[lineno - 1 + k], "sharded-map")
                   for k in range(len(stmt_lines))):
                continue
            stmt = " ".join(stmt_lines)
            if "GUARDED_BY" not in stmt:
                self.report(path, lineno, "sharded-map",
                            "std::unordered_map member in a sharded "
                            "control-plane header has no GUARDED_BY "
                            "annotation; name the shard/queue lock that "
                            "protects it (or annotate "
                            "`// lint:allow sharded-map (reason)`)")

    def check_zero_copy_hot_path(self, path, raw_lines, lines):
        for i, line in enumerate(lines, 1):
            raw_line = raw_lines[i - 1]
            if line_allows(raw_line, "zero-copy-hot-path"):
                continue
            m = COPYING_CTOR_RE.search(line)
            if m:
                self.report(path, i, "zero-copy-hot-path",
                            f"Buffer::From{m.group(1)}() copies the payload; the "
                            "data plane must alias (Buffer::Wrap/Slice) — or "
                            "annotate `// lint:allow zero-copy-hot-path (reason)`")

    def check_metric_name_decls(self, path, raw):
        # metric_names.h itself: every declared name must be dot-case.
        text = strip_comments_keep_strings(raw)
        for m in METRIC_DECL_RE.finditer(text):
            name = m.group(1)
            if not DOT_CASE_RE.match(name):
                lineno = text.count("\n", 0, m.start()) + 1
                self.report(path, lineno, "metric-name",
                            f'declared name "{name}" is not dot-case '
                            "(lowercase segments joined by dots; trailing dot "
                            "only for prefix families)")

    def check_metric_names(self, path, raw, raw_lines):
        declared, prefixes = self.metric_names()
        text = strip_comments_keep_strings(raw)
        for m in METRIC_CALL_RE.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            if line_allows(raw_lines[lineno - 1], "metric-name"):
                continue
            call, name = m.group(1), m.group(2)
            if name in declared:
                continue
            if any(name.startswith(p) for p in prefixes):
                continue
            self.report(path, lineno, "metric-name",
                        f'{call}("{name}"): literal metric/span name not '
                        f"declared in {METRIC_NAME_FILE}; pass the names:: "
                        "constant (or annotate "
                        "`// lint:allow metric-name (reason)`)")

    def check_annotation_reason(self, path, raw_lines):
        # Analyzer suppressions are load-bearing: a reasonless one cannot be
        # audited, so the analyzer's trust in them decays to zero. Runs on
        # the raw lines — the annotations live inside comments.
        for i, raw_line in enumerate(raw_lines, 1):
            for m in ANALYZE_ALLOW_RE.finditer(raw_line):
                if not PAREN_REASON_RE.search(m.group(2)):
                    self.report(path, i, "annotation-reason",
                                f"`analyze:allow {m.group(1)}` has no "
                                "(<reason>); say why the finding is safe "
                                "to suppress")
            m = ANALYZE_LIFETIME_RE.search(raw_line)
            if m is not None and not m.group(1).strip():
                self.report(path, i, "annotation-reason",
                            "`analyze:lifetime` has no reason; state the "
                            "lifetime guarantee the continuation relies on")

    def check_discarded_status(self, path, raw_lines, lines):
        call_re = re.compile(
            r"^\s*(?:[A-Za-z_][\w]*(?:\.|->|::))*(" +
            "|".join(sorted(STATUS_RETURNING)) + r")\s*\(")
        for i, line in enumerate(lines, 1):
            raw_line = raw_lines[i - 1]
            if line_allows(raw_line, "discarded-status"):
                continue
            m = call_re.match(line)
            if not m:
                continue
            # A statement that is just the call: `x.Put(...);` / `p->Put(...);`
            # or a call spanning lines that begins a statement (the anchored
            # regex already rejects `return x.Put(...)`, assignments, and
            # macro-wrapped calls). Heuristic guard: the previous non-blank
            # stripped line must end a statement/block, so continuations of a
            # larger expression are skipped.
            j = i - 2
            while j >= 0 and not lines[j].strip():
                j -= 1
            if j >= 0:
                prev = lines[j].rstrip()
                if prev and prev[-1] not in "{};:)" :
                    continue  # continuation of a larger expression
            self.report(path, i, "discarded-status",
                        f"result of {m.group(1)}() is discarded; handle it, "
                        "propagate it, or cast to (void) with a comment")


def collect_files(root, paths):
    if paths:
        for p in paths:
            if os.path.isfile(p):
                yield os.path.abspath(p)
        return
    for d in LINT_DIRS:
        top = os.path.join(root, d)
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    ap.add_argument("--list-rules", action="store_true",
                    help="print the lint rule names and summaries, then exit")
    ap.add_argument("paths", nargs="*")
    args = ap.parse_args()

    if args.list_rules:
        for name in sorted(RULE_DOCS):
            print(f"{name}: {RULE_DOCS[name]}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint.py: no src/ under --root {root}", file=sys.stderr)
        return 2

    linter = Linter(root)
    n = 0
    for path in collect_files(root, args.paths):
        linter.lint_file(path)
        n += 1

    for finding in linter.findings:
        print(finding)
    print(f"lint.py: {n} files checked, {len(linter.findings)} finding(s)")
    return 1 if linter.findings else 0


if __name__ == "__main__":
    sys.exit(main())
