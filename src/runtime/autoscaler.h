// Worker autoscaler: the pay-as-you-go half of the serverless principle.
// Samples each raylet's queue depth on a re-arming timer of its own
// one-driver Reactor and grows/shrinks its worker pool within [min, max];
// integrates worker-time so experiments can report the cost side
// (worker-seconds) next to the latency side.
#ifndef SRC_RUNTIME_AUTOSCALER_H_
#define SRC_RUNTIME_AUTOSCALER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/reactor.h"
#include "src/runtime/raylet.h"

namespace skadi {

struct AutoscalerOptions {
  bool enabled = false;
  size_t min_workers = 1;
  size_t max_workers = 8;
  // Scale down when the queue has been empty for this many consecutive ticks.
  int idle_ticks_before_scale_down = 3;
  int tick_interval_ms = 5;
};

class Autoscaler {
 public:
  Autoscaler(AutoscalerOptions options, MetricsRegistry* metrics)
      : options_(options), metrics_(metrics) {}

  ~Autoscaler() { Stop(); }

  void Register(Raylet* raylet) {
    MutexLock lock(mu_);
    tracked_.push_back(TrackedRaylet{raylet, 0});
  }

  // Starts the ticker's driver and the first Tick; a no-op when disabled,
  // already started or stopped.
  void Start();
  // Shuts the ticker down (drain and join): no Tick runs after Stop returns.
  // Stop is final; a later Start does nothing.
  void Stop() { ticker_.Shutdown(); }

  int64_t scale_ups() const { return scale_ups_.load(); }
  int64_t scale_downs() const { return scale_downs_.load(); }
  // Integrated worker occupancy: sum over ticks of (workers * real time
  // since the previous tick).
  int64_t worker_nanos() const { return worker_nanos_.load(); }

 private:
  struct TrackedRaylet {
    Raylet* raylet;
    int idle_ticks;
  };

  // Samples and resizes every tracked raylet, then re-arms itself
  // tick_interval_ms later on the ticker.
  void Tick();

  AutoscalerOptions options_;
  MetricsRegistry* metrics_;

  Mutex mu_;
  std::vector<TrackedRaylet> tracked_ GUARDED_BY(mu_);
  int64_t last_tick_nanos_ GUARDED_BY(mu_) = 0;

  std::atomic<int64_t> scale_ups_{0};
  std::atomic<int64_t> scale_downs_{0};
  std::atomic<int64_t> worker_nanos_{0};

  // Declared last: its driver runs Tick, which uses every member above.
  Reactor ticker_{"autoscaler"};
};

}  // namespace skadi

#endif  // SRC_RUNTIME_AUTOSCALER_H_
