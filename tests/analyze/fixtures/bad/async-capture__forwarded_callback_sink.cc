// Analyzer fixture (not compiled): Defer() is not itself a reactor entry
// point, but it forwards its callback into Post — the escapes-to-deferred
// fixpoint must mark Defer as a sink, and the by-reference capture handed
// to it is then a use-after-return. async-capture must flag the lambda at
// the Defer() call site.
#include <functional>

#include "src/common/reactor.h"

namespace skadi {

class Committer {
 public:
  void Commit(int epoch) {
    int acked = 0;
    Defer([&acked] { acked += 1; });  // reaches Post through Defer
  }

 private:
  void Defer(std::function<void()> fn) {
    reactor_->Post(std::move(fn));  // makes Defer a deferred sink
  }

  Reactor* reactor_;
};

}  // namespace skadi
