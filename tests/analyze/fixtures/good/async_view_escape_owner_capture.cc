// Analyzer fixture (not compiled): the fix for a view crossing the async
// boundary — capture the owning object by value (move the string, copy the
// Buffer handle) and make the view inside the continuation, where the owner
// is guaranteed alive. No async finding.
#include <string>
#include <utility>

#include "src/common/reactor.h"

namespace skadi {

class Publisher {
 public:
  void Publish() {
    std::string payload = Render();
    reactor_->Post([payload] { Emit(payload); });  // owner, not a view
  }

 private:
  std::string Render();
  static void Emit(const std::string& p);

  Reactor* reactor_;
};

}  // namespace skadi
