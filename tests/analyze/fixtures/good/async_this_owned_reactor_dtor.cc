// Analyzer fixture (not compiled): guarantee 2 — the Raylet pattern. The
// class owns the reactor by value and its destructor calls Shutdown, which
// drains queued continuations before any member is destroyed; `this` in a
// continuation posted to that reactor cannot dangle. No async finding.
#include "src/common/reactor.h"

namespace skadi {

class WorkerPool {
 public:
  ~WorkerPool() { workers_.Shutdown(); }

  void Enqueue() {
    workers_.Post([this] { executed_ += 1; });
  }

 private:
  Reactor workers_;  // owned by value; drained in the destructor
  long executed_ = 0;
};

}  // namespace skadi
