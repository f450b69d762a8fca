// Analyzer fixture (not compiled): the string_view is captured by value,
// but a view is a non-owning pointer+length — the std::string backing it is
// a frame-local that dies when Announce() returns, long before the posted
// continuation reads it. async-view-escape must flag the view capture.
#include <string>
#include <string_view>

#include "src/common/reactor.h"

namespace skadi {

class Announcer {
 public:
  void Announce() {
    std::string banner = BuildBanner();
    std::string_view text = banner;
    reactor_->Post([text] { Emit(text); });  // view outlives its backing
  }

 private:
  std::string BuildBanner();
  static void Emit(std::string_view t);

  Reactor* reactor_;
};

}  // namespace skadi
