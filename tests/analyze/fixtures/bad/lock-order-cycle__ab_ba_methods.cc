// Analyzer fixture (not compiled): the classic AB/BA inversion split
// across two methods of one class. Either order alone is fine; together
// they deadlock on some interleaving. TSan's deadlock detector only sees
// this if both paths actually execute — the static graph proves it.
#include "src/common/mutex.h"

namespace skadi {

class Directory {
 public:
  void Promote(ObjectId id) {
    MutexLock index(index_mu_);
    MutexLock stats(stats_mu_);
    hot_count_++;
    promoted_.insert(id);
  }

  void Demote(ObjectId id) {
    MutexLock stats(stats_mu_);
    MutexLock index(index_mu_);
    hot_count_--;
    promoted_.erase(id);
  }

 private:
  Mutex index_mu_;
  Mutex stats_mu_;
  std::set<ObjectId> promoted_ GUARDED_BY(index_mu_);
  int hot_count_ GUARDED_BY(stats_mu_) = 0;
};

}  // namespace skadi
