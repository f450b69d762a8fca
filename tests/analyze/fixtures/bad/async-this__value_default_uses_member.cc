// Analyzer fixture (not compiled): [=] looks safe ("everything by value")
// but members are reached through an implicitly captured raw `this` — the
// copy-by-value is of the pointer, not the object. async-this must flag the
// implicit this capture, since the body touches a member and the class
// offers no lifetime guarantee.
#include "src/common/reactor.h"

namespace skadi {

class SeqStamper {
 public:
  void Stamp() {
    reactor_->Post([=] { seq_ += 1; });  // [=] captures `this`, not seq_
  }

 private:
  Reactor* reactor_;
  long seq_ = 0;
};

}  // namespace skadi
