// skadi::trace — low-overhead distributed tracing (DESIGN.md §12).
//
// The control plane is continuation chains: a Submit's work hops from the
// driver thread to the scheduler, a raylet worker, the runtime's control
// reactor, and back, so thread-based stacks say nothing about where a
// task's latency went. Spans fix that: every unit of causal work records a
// TraceEvent carrying (trace_id, span_id, parent_id), and the context
// propagates
//
//   * down the stack via a thread-local Context (RAII TraceSpan),
//   * across task submission via TaskSpec::trace_ctx (stamped by Submit,
//     adopted by Raylet::RunTask),
//   * along reactor continuation chains: Reactor::Post/ScheduleAfter capture
//     the poster's context and the dispatcher re-installs it around the
//     continuation (ScopedContext),
//   * through multi-step async state machines (GetOp, cache flights) via
//     explicit SpanHandle begin/end — the two halves may run on different
//     threads and nodes.
//
// Storage is per-thread lock-free ring buffers (fixed slots, per-field
// relaxed atomics, release-published cursor — TSan-clean by construction;
// see §12 for the memory-ordering argument). A disabled tracer costs one
// relaxed atomic load per span site; an unsampled trace costs that plus a
// TLS read. Snapshot() + WriteChromeTrace() export everything recorded as
// Chrome-trace / Perfetto-loadable JSON (load in ui.perfetto.dev or
// chrome://tracing).
//
// Span names in src/ are dot-case constants from src/common/metric_names.h
// (the lint metric-name rule applies to span sites too).
#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace skadi {
namespace trace {

// Causal coordinates of the currently-executing span. trace_id == 0 means
// "not inside any flow" — a span site there is a root candidate. The
// all-ones trace id marks an UNSAMPLED flow: the root's sampling decision
// said no, and the marker propagates exactly like a real context (TLS,
// reactor hops, TaskSpec) so no descendant of an unsampled root starts a
// fresh root of its own. Span sites early-out on !sampled(), so an enabled
// tracer with sampling N only pays full cost on 1/N of the root flows.
struct Context {
  static constexpr uint64_t kUnsampledTraceId = ~uint64_t{0};
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
  bool sampled() const { return valid() && trace_id != kUnsampledTraceId; }
};

// One recorded event. `name`/`arg_name` point at string literals (the
// metric_names.h constants); the ring stores the pointers, not copies.
struct TraceEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;  // 0 for instants
  int64_t arg = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint32_t tid = 0;  // tracer-assigned small thread index
  uint8_t phase = 0;  // 0 = span ("X"), 1 = instant ("i")
};

// --- global switchboard ---

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// Master switch. Off by default; flipping it on/off is safe at any time
// (in-flight spans on other threads finish recording normally).
void SetEnabled(bool on);
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Root-span sampling: 1 (default) traces every root span, N traces every
// Nth. Child spans follow their root's decision, so a sampled flow is always
// complete.
void SetSampleEvery(uint32_t n);

// Drops all recorded events (rings are reset, ids keep counting).
void Reset();

// The calling thread's current context ({} when untraced).
Context CurrentContext();

// Allocates a fresh span/trace id (monotonic, process-wide).
uint64_t NextId();

// --- spans ---

// RAII span tied to the calling thread: the constructor parents under the
// thread's current context (or starts a sampled root when there is none) and
// installs itself as the current context; End()/the destructor records the
// event and restores the previous context. Construct and destroy on the same
// thread, strictly nested (stack order) — state machines whose begin/end hop
// threads use BeginSpan/EndSpan instead.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(name, 0, nullptr) {}
  TraceSpan(const char* name, int64_t arg, const char* arg_name);
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Records the event (idempotent) and restores the previous context.
  void End();

  // Coordinates to stamp into a TaskSpec or SpanHandle parent; {} when the
  // span is inactive (tracing off / unsampled).
  Context context() const { return active_ ? ctx_ : Context{}; }
  bool active() const { return active_; }

 private:
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  int64_t arg_ = 0;
  int64_t start_nanos_ = 0;
  Context ctx_{};
  Context prev_{};
  uint64_t parent_ = 0;
  bool active_ = false;
  // This span was an unsampled root: it installed the unsampled marker for
  // its scope (suppressing descendant roots) and records nothing.
  bool marker_installed_ = false;
};

// Non-RAII span for async state machines: Begin on one thread, End on
// whichever thread completes the work. Does NOT touch the thread-local
// context — steps that want child spans to parent correctly install the
// handle's context themselves (ScopedContext adopt(handle.ctx)).
struct SpanHandle {
  const char* name = nullptr;
  Context ctx{};
  uint64_t parent = 0;
  int64_t start_nanos = 0;
  bool active = false;
};

// Starts a span under `parent` (pass CurrentContext() to parent under the
// caller; an invalid parent starts a sampled root). Inactive handle when
// tracing is off or the root is unsampled.
SpanHandle BeginSpan(const char* name, Context parent);

// Records the span (idempotent; the event lands on the calling thread's
// ring, which may differ from BeginSpan's thread).
void EndSpan(SpanHandle& handle, int64_t arg = 0, const char* arg_name = nullptr);

// Zero-duration marker under the calling thread's current context. No-op
// outside a sampled trace.
void Instant(const char* name, int64_t arg = 0, const char* arg_name = nullptr);

// Installs `ctx` as the calling thread's context for the current scope — the
// continuation-hop adopter (reactor dispatch, task-body entry, async steps).
class ScopedContext {
 public:
  explicit ScopedContext(Context ctx);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context prev_{};
  bool installed_ = false;
};

// --- export ---

// All recorded events across every thread's ring, oldest-first by start
// time. Take it after the traced work has quiesced: concurrent writers never
// race the reader (all slot fields are atomic), but a wrapping ring may
// interleave old and new field values within one slot.
std::vector<TraceEvent> Snapshot();

// Chrome-trace JSON ("traceEvents" array of "X"/"i" events with
// args.{trace,span,parent}, plus flow arrows for cross-thread parent links).
// Loadable by ui.perfetto.dev, chrome://tracing, and tools/trace.py.
void WriteChromeTrace(std::ostream& os);
Status WriteChromeTraceFile(const std::string& path);

}  // namespace trace
}  // namespace skadi

#endif  // SRC_COMMON_TRACE_H_
