// Analyzer fixture (not compiled): guarantee 1 — a strong guard rides in
// the capture list. `self` keeps the object alive for as long as the
// continuation exists, so the raw `this` alongside it is safe. No async
// finding.
#include <memory>

#include "src/common/reactor.h"

namespace skadi {

class Session : public std::enable_shared_from_this<Session> {
 public:
  void Renew() {
    auto self = shared_from_this();
    reactor_->ScheduleAfter(1'000'000, [this, self] { leases_ += 1; });
  }

 private:
  Reactor* reactor_;
  int leases_ = 0;
};

}  // namespace skadi
