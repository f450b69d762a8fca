// Analyzer fixture (not compiled): doubly wrong — a view type captured by
// reference. Both the view object (frame-local) and the bytes it points at
// are gone when the continuation runs. async-view-escape must flag it.
#include "src/common/buffer.h"
#include "src/common/reactor.h"

namespace skadi {

class FrameRelay {
 public:
  void Relay() {
    Span<const char> frame = NextFrame();
    reactor_->Post([&frame] { Forward(frame); });
  }

 private:
  Span<const char> NextFrame();
  static void Forward(Span<const char> f);

  Reactor* reactor_;
};

}  // namespace skadi
