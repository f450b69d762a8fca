// Analyzer fixture (not compiled): the class owns its reactor by value —
// but the owned-reactor guarantee also requires a destructor that calls
// Shutdown, so queued continuations drain before the members they touch are
// destroyed. This class has no destructor: member destruction order still
// races the in-flight tick. async-this must flag it.
#include "src/common/reactor.h"

namespace skadi {

class RetryQueue {
 public:
  void Requeue() {
    workers_.ScheduleAfter(5'000'000, [this] { depth_ += 1; });
  }

 private:
  Reactor workers_;  // owned, but nobody drains it at destruction
  int depth_ = 0;
};

}  // namespace skadi
