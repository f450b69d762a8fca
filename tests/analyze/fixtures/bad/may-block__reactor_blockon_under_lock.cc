// Analyzer fixture (not compiled): BlockOn is the reactor's blocking
// boundary — a drain-loop (or parked-thread) wait. Registering the
// continuation is fine; calling the blocking shim while holding the
// directory lock stalls every other thread that needs directory_mu_ for as
// long as the event stays unset. The reactor-wait seed kind plus the
// lock-blocking interprocedural pass must flag the helper's wait under the
// caller's lock.
#include "src/common/mutex.h"
#include "src/common/reactor.h"

namespace skadi {

class DirectoryFrontend {
 public:
  void Refresh() {
    MutexLock lock(directory_mu_);
    epoch_++;
    AwaitWarmup();  // transitively reaches reactor_.BlockOn under directory_mu_
  }

 private:
  void AwaitWarmup() {
    Event warmed;
    reactor_.BlockOn(warmed);  // reactor-wait: parks or drains indefinitely
  }

  Mutex directory_mu_;
  Reactor reactor_;
  int epoch_ GUARDED_BY(directory_mu_) = 0;
};

}  // namespace skadi
