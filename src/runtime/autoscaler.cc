#include "src/runtime/autoscaler.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/common/metric_names.h"

namespace skadi {

namespace {
// Scale up when queued tasks per worker exceed this.
constexpr size_t kScaleUpQueuePerWorker = 2;
}  // namespace

void Autoscaler::Start() {
  if (!options_.enabled || ticker_.num_threads() > 0) {
    return;
  }
  {
    MutexLock lock(mu_);
    last_tick_nanos_ = NowNanos();
  }
  // Post fails once Stop has shut the ticker down; then no driver is
  // started for a Tick that could never run.
  if (ticker_.Post([this] { Tick(); })) {
    ticker_.Start(1);
  }
}

void Autoscaler::Tick() {
  MutexLock lock(mu_);
  // Real time, not tick_interval_ms: the wheel fires a timer up to one wheel
  // tick after its deadline.
  const int64_t now = NowNanos();
  const int64_t tick_nanos = now - last_tick_nanos_;
  last_tick_nanos_ = now;
  for (TrackedRaylet& tracked : tracked_) {
    Raylet* raylet = tracked.raylet;
    if (raylet->dead()) {
      continue;
    }
    size_t workers = raylet->num_workers();
    size_t queued = raylet->queue_depth();
    worker_nanos_.fetch_add(static_cast<int64_t>(workers) * tick_nanos);

    if (queued > kScaleUpQueuePerWorker * workers && workers < options_.max_workers) {
      const size_t grow = std::min(options_.max_workers - workers,
                                   std::max<size_t>(1, queued / kScaleUpQueuePerWorker));
      raylet->GrowWorkers(grow);
      scale_ups_.fetch_add(static_cast<int64_t>(grow));
      metrics_->GetCounter(names::kAutoscalerScaleUps).Add(static_cast<int64_t>(grow));
      tracked.idle_ticks = 0;
      continue;
    }

    if (queued == 0) {
      ++tracked.idle_ticks;
      if (tracked.idle_ticks >= options_.idle_ticks_before_scale_down &&
          workers > options_.min_workers) {
        raylet->ShrinkWorkers(1);
        scale_downs_.fetch_add(1);
        metrics_->GetCounter(names::kAutoscalerScaleDowns).Increment();
        tracked.idle_ticks = 0;
      }
    } else {
      tracked.idle_ticks = 0;
    }
  }
  ticker_.ScheduleAfter(static_cast<int64_t>(options_.tick_interval_ms) * 1000000,
                        [this] { Tick(); });
}

}  // namespace skadi
