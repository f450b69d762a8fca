// Analyzer fixture (not compiled): the continuation is queued on the
// reactor and runs after Register() has returned — `total` lives on
// Register()'s frame, so the by-reference capture is a use-after-return.
// async-capture must flag the lambda.
#include "src/common/reactor.h"

namespace skadi {

class Admission {
 public:
  void Register(int n) {
    int total = 0;
    reactor_->Post([&total] { total += 1; });  // frame-local by reference
    last_ = total;
  }

 private:
  Reactor* reactor_;
  int last_ = 0;
};

}  // namespace skadi
