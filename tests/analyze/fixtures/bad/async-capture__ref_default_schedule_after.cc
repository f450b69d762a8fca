// Analyzer fixture (not compiled): a [&] default capture silently takes
// every frame-local the body touches by reference; the timer fires 1ms
// after Probe() returned, pointing into a dead frame. async-capture must
// flag the [&] default's frame-locals.
#include "src/common/reactor.h"

namespace skadi {

class HealthProbe {
 public:
  void Probe() {
    int attempts = 0;
    bool healthy = false;
    reactor_->ScheduleAfter(1'000'000, [&] {
      attempts += 1;
      healthy = attempts < 3;
    });
  }

 private:
  Reactor* reactor_;
};

}  // namespace skadi
