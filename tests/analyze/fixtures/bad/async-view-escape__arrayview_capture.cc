// Analyzer fixture (not compiled): ArrayView does not own the column chunk
// it points into; deferring it across the timer means the pinned page can
// be unpinned / evicted before the continuation runs. async-view-escape
// must flag the view capture crossing the async boundary.
#include "src/common/buffer.h"
#include "src/common/reactor.h"

namespace skadi {

class ChunkShipper {
 public:
  void Ship() {
    ArrayView<int> rows = TakeRows();
    reactor_->ScheduleAfter(1'000'000, [rows] { Send(rows); });
  }

 private:
  ArrayView<int> TakeRows();
  static void Send(ArrayView<int> rows);

  Reactor* reactor_;
};

}  // namespace skadi
