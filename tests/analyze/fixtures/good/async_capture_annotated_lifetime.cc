// Analyzer fixture (not compiled): a by-reference capture into a deferred
// sink that the author has vouched for — the frame provably outlives the
// continuation because BlockOn drains the reactor before returning. The
// `// analyze:lifetime <reason>` annotation (guarantee 3) silences the
// rule; the reason is mandatory (tools/lint.py checks it is non-empty).
#include "src/common/event.h"
#include "src/common/reactor.h"

namespace skadi {

class Collector {
 public:
  int Sum() {
    int total = 0;
    Event done;
    // analyze:lifetime frame outlives the continuation: BlockOn(done) below
    reactor_->Post([&total, &done] {
      total += 1;
      done.Set();
    });
    reactor_->BlockOn(done);
    return total;
  }

 private:
  Reactor* reactor_;
};

}  // namespace skadi
