#include "src/net/fabric.h"

#include <string>
#include <utility>

#include "src/common/metric_names.h"
#include "src/common/trace.h"

namespace skadi {

Fabric::Fabric(std::shared_ptr<Topology> topology)
    : topology_(std::move(topology)),
      control_messages_(&metrics_.GetCounter(names::kFabricControlMessages)),
      data_transfers_(&metrics_.GetCounter(names::kFabricDataTransfers)),
      data_bytes_(&metrics_.GetCounter(names::kFabricDataBytes)) {
  for (int i = 0; i < kNumLinkClasses; ++i) {
    const std::string name(LinkClassName(static_cast<LinkClass>(i)));
    link_[i] = {&metrics_.GetCounter(names::kFabricMessagesPrefix + name),
                &metrics_.GetCounter(names::kFabricBytesPrefix + name)};
  }
}

void Fabric::Charge(NodeId src, NodeId dst, int64_t bytes) {
  const LinkCounters& link = Link(topology_->Classify(src, dst));
  link.messages->Increment();
  link.bytes->Add(bytes);
  control_messages_->Increment();
  clock_.Charge(topology_->TransferNanos(src, dst, bytes));
}

Status Fabric::Control(NodeId src, NodeId dst, int64_t request_bytes) {
  if (IsDead(dst)) {
    return Status::Unavailable("node " + dst.ToString() + " is dead");
  }
  trace::TraceSpan call_span(names::kSpanFabricCall, request_bytes, "bytes");
  Charge(src, dst, request_bytes);
  Charge(dst, src, 0);  // the reply
  return Status::Ok();
}

int64_t Fabric::TransferBytes(NodeId src, NodeId dst, int64_t bytes) {
  {
    MutexLock lock(mu_);
    // A transfer from/to a dead node silently accounts nothing; callers check
    // liveness before initiating transfers, this is a backstop.
    if (dead_nodes_.count(src) > 0 || dead_nodes_.count(dst) > 0) {
      return 0;
    }
  }
  const LinkCounters& link = Link(topology_->Classify(src, dst));
  link.bytes->Add(bytes);
  link.messages->Increment();
  data_transfers_->Increment();
  data_bytes_->Add(bytes);
  trace::TraceSpan transfer_span(names::kSpanFabricTransfer, bytes, "bytes");
  const int64_t nanos = topology_->TransferNanos(src, dst, bytes);
  clock_.Charge(nanos);
  return nanos;
}

void Fabric::MarkDead(NodeId node) {
  MutexLock lock(mu_);
  dead_nodes_.insert(node);
}

bool Fabric::IsDead(NodeId node) const {
  MutexLock lock(mu_);
  return dead_nodes_.count(node) > 0;
}

int64_t Fabric::total_messages() const {
  int64_t total = 0;
  for (const LinkCounters& link : link_) {
    total += link.messages->value();
  }
  return total;
}

int64_t Fabric::total_bytes() const {
  int64_t total = 0;
  for (const LinkCounters& link : link_) {
    total += link.bytes->value();
  }
  return total;
}

int64_t Fabric::messages(LinkClass link_class) const {
  return Link(link_class).messages->value();
}

int64_t Fabric::bytes(LinkClass link_class) const {
  return Link(link_class).bytes->value();
}

}  // namespace skadi
