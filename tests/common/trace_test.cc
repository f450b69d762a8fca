#include "src/common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/event.h"
#include "src/common/reactor.h"

namespace skadi {
namespace {

constexpr int64_t kMs = 1'000'000;

// Global tracer state: every test starts from a clean, enabled,
// sample-everything tracer and leaves it disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::Reset();
    trace::SetSampleEvery(1);
    trace::SetEnabled(true);
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::SetSampleEvery(1);
    trace::Reset();
  }
};

std::vector<trace::TraceEvent> EventsNamed(const std::vector<trace::TraceEvent>& all,
                                           const char* name) {
  std::vector<trace::TraceEvent> out;
  for (const trace::TraceEvent& e : all) {
    if (e.name != nullptr && std::strcmp(e.name, name) == 0) {
      out.push_back(e);
    }
  }
  return out;
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  trace::SetEnabled(false);
  { trace::TraceSpan span("test.disabled"); }
  trace::Instant("test.disabled.instant");
  EXPECT_TRUE(trace::Snapshot().empty());
  EXPECT_FALSE(trace::CurrentContext().valid());
}

TEST_F(TraceTest, NestedSpansShareTraceAndParentCorrectly) {
  {
    trace::TraceSpan outer("test.outer");
    trace::TraceSpan inner("test.inner");
    EXPECT_TRUE(trace::CurrentContext().valid());
  }
  auto all = trace::Snapshot();
  auto outer = EventsNamed(all, "test.outer");
  auto inner = EventsNamed(all, "test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].trace_id, outer[0].trace_id);
  EXPECT_EQ(inner[0].parent_id, outer[0].span_id);
  EXPECT_EQ(outer[0].parent_id, 0u);  // root
  EXPECT_FALSE(trace::CurrentContext().valid());  // restored on scope exit
}

TEST_F(TraceTest, InstantRecordsOnlyInsideSampledTrace) {
  trace::Instant("test.orphan");  // no current context: dropped
  {
    trace::TraceSpan root("test.root");
    trace::Instant("test.marker", 42, "n");
  }
  auto all = trace::Snapshot();
  EXPECT_TRUE(EventsNamed(all, "test.orphan").empty());
  auto marker = EventsNamed(all, "test.marker");
  auto root = EventsNamed(all, "test.root");
  ASSERT_EQ(marker.size(), 1u);
  ASSERT_EQ(root.size(), 1u);
  EXPECT_EQ(marker[0].phase, 1);
  EXPECT_EQ(marker[0].parent_id, root[0].span_id);
  EXPECT_EQ(marker[0].arg, 42);
}

// The hop every continuation chain depends on: Post captures the poster's
// context, the dispatcher re-installs it, so a span opened inside the posted
// continuation parents under the posting span — across threads.
TEST_F(TraceTest, ContextPropagatesAcrossReactorPost) {
  Reactor reactor("trace-test");
  reactor.Start(1);
  Event done;
  {
    trace::TraceSpan root("test.post.root");
    reactor.Post([&done] {
      trace::TraceSpan hopped("test.post.hopped");
      done.Set();
    });
    done.BlockingWait();
  }
  reactor.Shutdown();
  auto all = trace::Snapshot();
  auto root = EventsNamed(all, "test.post.root");
  auto hopped = EventsNamed(all, "test.post.hopped");
  ASSERT_EQ(root.size(), 1u);
  ASSERT_EQ(hopped.size(), 1u);
  EXPECT_EQ(hopped[0].trace_id, root[0].trace_id);
  EXPECT_EQ(hopped[0].parent_id, root[0].span_id);
  EXPECT_NE(hopped[0].tid, root[0].tid);  // really crossed a thread
}

TEST_F(TraceTest, ContextPropagatesAcrossScheduleAfter) {
  Reactor reactor("trace-timer-test");
  std::atomic<bool> fired{false};
  {
    trace::TraceSpan root("test.timer.root");
    reactor.ScheduleAfter(1 * kMs, [&fired] {
      trace::TraceSpan hopped("test.timer.hopped");
      fired.store(true);
    });
  }
  const int64_t deadline = NowNanos() + 5'000 * kMs;
  while (!fired.load() && NowNanos() < deadline) {
    reactor.PollOnce();
  }
  ASSERT_TRUE(fired.load());
  auto all = trace::Snapshot();
  auto root = EventsNamed(all, "test.timer.root");
  auto hopped = EventsNamed(all, "test.timer.hopped");
  ASSERT_EQ(root.size(), 1u);
  ASSERT_EQ(hopped.size(), 1u);
  EXPECT_EQ(hopped[0].trace_id, root[0].trace_id);
  EXPECT_EQ(hopped[0].parent_id, root[0].span_id);
}

// Async state machines begin a span on one thread and end it on another.
TEST_F(TraceTest, BeginEndSpanAcrossThreads) {
  trace::SpanHandle handle;
  {
    trace::TraceSpan root("test.handle.root");
    handle = trace::BeginSpan("test.handle.op", trace::CurrentContext());
  }
  std::thread finisher([&handle] { trace::EndSpan(handle, 7, "result"); });
  finisher.join();
  auto all = trace::Snapshot();
  auto root = EventsNamed(all, "test.handle.root");
  auto op = EventsNamed(all, "test.handle.op");
  ASSERT_EQ(root.size(), 1u);
  ASSERT_EQ(op.size(), 1u);
  EXPECT_EQ(op[0].trace_id, root[0].trace_id);
  EXPECT_EQ(op[0].parent_id, root[0].span_id);
  EXPECT_EQ(op[0].arg, 7);
}

TEST_F(TraceTest, EndSpanIsIdempotent) {
  trace::SpanHandle handle = trace::BeginSpan("test.idem", trace::Context{});
  trace::EndSpan(handle);
  trace::EndSpan(handle);
  EXPECT_EQ(EventsNamed(trace::Snapshot(), "test.idem").size(), 1u);
}

TEST_F(TraceTest, SamplingSkipsRootsButKeepsSampledFlowsComplete) {
  trace::SetSampleEvery(2);
  for (int i = 0; i < 4; ++i) {
    trace::TraceSpan root("test.sampled.root");
    trace::TraceSpan child("test.sampled.child");
  }
  auto all = trace::Snapshot();
  // Every sampled root brings its child; unsampled roots record neither.
  auto roots = EventsNamed(all, "test.sampled.root");
  auto children = EventsNamed(all, "test.sampled.child");
  EXPECT_EQ(roots.size(), 2u);
  EXPECT_EQ(children.size(), roots.size());
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed) {
  {
    trace::TraceSpan root("test.export.root");
    trace::TraceSpan child("test.export.child");
    trace::Instant("test.export.marker");
  }
  std::ostringstream os;
  trace::WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("test.export.child"), std::string::npos);
  EXPECT_NE(json.find("\"parent\""), std::string::npos);
  // Balanced braces/brackets as a cheap structural check (the integration
  // test runs tools/trace.py for real JSON validation).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(TraceTest, ResetDropsRecordedEvents) {
  { trace::TraceSpan span("test.reset"); }
  EXPECT_FALSE(trace::Snapshot().empty());
  trace::Reset();
  EXPECT_TRUE(trace::Snapshot().empty());
}

}  // namespace
}  // namespace skadi
