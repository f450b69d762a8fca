// Direct tests of the autoscaler against a real raylet.
#include "src/runtime/autoscaler.h"

#include <gtest/gtest.h>

#include "tests/runtime/runtime_test_util.h"

namespace skadi {
namespace {

class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest() {
    node_.id = NodeId::Next();
    node_.role = NodeRole::kServer;
    node_.device = MakeCpuDevice("as-test");
    node_.store = std::make_shared<LocalObjectStore>(node_.device.id, 1 << 20);
    hold_body_ = std::make_shared<const TaskFunction>(
        [this](TaskContext&, std::vector<Buffer>&) -> Result<std::vector<Buffer>> {
          while (hold_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return std::vector<Buffer>{Buffer()};
        });

    Raylet::Callbacks callbacks;
    callbacks.complete = [this](const TaskSpec&, std::vector<Buffer>) {
      done_.fetch_add(1);
      return Status::Ok();
    };
    callbacks.fail = [this](const TaskSpec&, const Status&, NodeId) { done_.fetch_add(1); };
    raylet_ = std::make_unique<Raylet>(node_, &clock_, callbacks, 1);
  }

  void EnqueueHolds(int n) {
    for (int i = 0; i < n; ++i) {
      TaskSpec spec = Call("hold", {});
      spec.id = TaskId::Next();
      spec.body = hold_body_;
      ASSERT_TRUE(raylet_->Enqueue(std::make_shared<const TaskSpec>(std::move(spec)), {}).ok());
    }
  }

  ClusterNode node_;
  std::shared_ptr<const TaskFunction> hold_body_;
  VirtualClock clock_;
  MetricsRegistry metrics_;
  std::unique_ptr<Raylet> raylet_;
  std::atomic<bool> hold_{true};
  std::atomic<int> done_{0};
};

TEST_F(AutoscalerTest, DisabledDoesNothing) {
  AutoscalerOptions options;
  options.enabled = false;
  Autoscaler autoscaler(options, &metrics_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();  // no-op
  EnqueueHolds(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(autoscaler.scale_ups(), 0);
  EXPECT_EQ(raylet_->num_workers(), 1u);
  hold_.store(false);
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, GrowsUnderBacklogShrinksWhenIdle) {
  AutoscalerOptions options;
  options.enabled = true;
  options.min_workers = 1;
  options.max_workers = 6;
  options.tick_interval_ms = 2;
  options.idle_ticks_before_scale_down = 2;
  Autoscaler autoscaler(options, &metrics_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();

  EnqueueHolds(12);
  // Wait for scale-up.
  for (int i = 0; i < 200 && raylet_->num_workers() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(autoscaler.scale_ups(), 0);
  size_t peak = raylet_->num_workers();
  EXPECT_GT(peak, 1u);
  EXPECT_LE(peak, options.max_workers);

  // Release the tasks; queue drains; scale-down follows.
  hold_.store(false);
  for (int i = 0; i < 500 && done_.load() < 12; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(done_.load(), 12);
  for (int i = 0; i < 500 && autoscaler.scale_downs() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(autoscaler.scale_downs(), 0);
  EXPECT_GE(raylet_->num_workers(), options.min_workers);

  autoscaler.Stop();
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, TracksWorkerTime) {
  AutoscalerOptions options;
  options.enabled = true;
  options.tick_interval_ms = 2;
  Autoscaler autoscaler(options, &metrics_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  autoscaler.Stop();
  EXPECT_GT(autoscaler.worker_nanos(), 0);
  hold_.store(false);
  raylet_->Shutdown();
}

// Stop shuts the ticker down: once it returns no Tick runs, so nothing the
// ticks feed moves, even with a backlog still queued.
TEST_F(AutoscalerTest, NoTickAfterStop) {
  AutoscalerOptions options;
  options.enabled = true;
  options.max_workers = 4;
  options.tick_interval_ms = 2;
  Autoscaler autoscaler(options, &metrics_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();
  EnqueueHolds(12);
  for (int i = 0; i < 500 && autoscaler.scale_ups() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  autoscaler.Stop();
  const int64_t worker_nanos = autoscaler.worker_nanos();
  const int64_t scale_ups = autoscaler.scale_ups();
  const int64_t scale_downs = autoscaler.scale_downs();
  EXPECT_GT(worker_nanos, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10 * options.tick_interval_ms));
  EXPECT_EQ(autoscaler.worker_nanos(), worker_nanos);
  EXPECT_EQ(autoscaler.scale_ups(), scale_ups);
  EXPECT_EQ(autoscaler.scale_downs(), scale_downs);
  hold_.store(false);
  raylet_->Shutdown();
}

// Stop is final: a Start after it ticks no more.
TEST_F(AutoscalerTest, StartAfterStopDoesNotTick) {
  AutoscalerOptions options;
  options.enabled = true;
  options.tick_interval_ms = 2;
  Autoscaler autoscaler(options, &metrics_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();
  autoscaler.Stop();
  const int64_t worker_nanos = autoscaler.worker_nanos();
  autoscaler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10 * options.tick_interval_ms));
  EXPECT_EQ(autoscaler.worker_nanos(), worker_nanos);
  raylet_->Shutdown();
}

TEST_F(AutoscalerTest, RespectsMaxWorkers) {
  AutoscalerOptions options;
  options.enabled = true;
  options.min_workers = 1;
  options.max_workers = 3;
  options.tick_interval_ms = 1;
  Autoscaler autoscaler(options, &metrics_);
  autoscaler.Register(raylet_.get());
  autoscaler.Start();
  EnqueueHolds(50);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(raylet_->num_workers(), 3u);
  hold_.store(false);
  autoscaler.Stop();
  raylet_->Shutdown();
}

}  // namespace
}  // namespace skadi
