#include "src/net/push_batcher.h"

#include <utility>

#include "src/common/metric_names.h"

namespace skadi {

PushBatcher::PushBatcher(FlushFn flush, int max_batch)
    : flush_(std::move(flush)), max_batch_(max_batch < 1 ? 1 : max_batch) {}

void PushBatcher::set_metrics(MetricsRegistry* registry) {
  batches_ctr_ = &registry->GetCounter(names::kRuntimePushBatches);
  entries_ctr_ = &registry->GetCounter(names::kRuntimePushBatchedEntries);
}

void PushBatcher::Add(NodeId owner, PushEntry entry) {
  std::map<Key, std::vector<PushEntry>> full;
  {
    MutexLock lock(mu_);
    const Key key{owner, entry.consumer_node};
    std::vector<PushEntry>& batch = pending_[key];
    batch.push_back(entry);
    ++pending_count_;
    if (static_cast<int>(batch.size()) >= max_batch_) {
      full[key] = std::move(batch);
      pending_count_ -= full[key].size();
      pending_.erase(key);
    }
  }
  if (!full.empty()) {
    Deliver(std::move(full));
  }
}

void PushBatcher::FlushAll() {
  std::map<Key, std::vector<PushEntry>> batches;
  {
    MutexLock lock(mu_);
    batches = std::move(pending_);
    pending_.clear();
    pending_count_ = 0;
  }
  if (!batches.empty()) {
    Deliver(std::move(batches));
  }
}

size_t PushBatcher::pending() const {
  MutexLock lock(mu_);
  return pending_count_;
}

void PushBatcher::Deliver(std::map<Key, std::vector<PushEntry>> batches) {
  for (auto& [key, entries] : batches) {
    if (entries.empty()) {
      continue;
    }
    if (batches_ctr_ != nullptr) {
      batches_ctr_->Increment();
      entries_ctr_->Add(static_cast<int64_t>(entries.size()));
    }
    flush_(key.first, key.second, std::move(entries));
  }
}

}  // namespace skadi
