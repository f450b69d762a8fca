// Analyzer fixture (not compiled): the batcher does not own the reactor it
// arms the timer on, has no destructor, and offers no lifetime guarantee —
// the tick can fire after the batcher is gone (the PushBatcher bug this
// rule was built from). async-this must flag the raw `this` capture.
#include "src/common/reactor.h"

namespace skadi {

class TickBatcher {
 public:
  void Arm() {
    reactor_->ScheduleAfter(200'000, [this] { Flush(); });
  }

  void Flush() { pending_ = 0; }

 private:
  Reactor* reactor_;  // external: can outlive-or-be-outlived arbitrarily
  int pending_ = 0;
};

}  // namespace skadi
