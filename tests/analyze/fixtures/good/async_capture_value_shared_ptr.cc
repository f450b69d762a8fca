// Analyzer fixture (not compiled): the reactor-era idiom — continuation
// state lives in a shared_ptr captured by value, so the continuation owns
// what it touches no matter when it runs. No async finding.
#include <memory>

#include "src/common/reactor.h"

namespace skadi {

struct FetchState {
  int retries = 0;
  bool done = false;
};

class Fetcher {
 public:
  void Fetch() {
    auto state = std::make_shared<FetchState>();
    reactor_->Post([state] { state->retries += 1; });
    reactor_->ScheduleAfter(1'000'000, [state] { state->done = true; });
  }

 private:
  Reactor* reactor_;
};

}  // namespace skadi
