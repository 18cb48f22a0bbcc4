#include "net/network.h"

#include <algorithm>

#include "common/logging.h"

namespace claims {

Network::Network(int num_nodes, NetworkOptions options)
    : num_nodes_(num_nodes), options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Default()) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  bytes_sent_metric_ = reg->counter("net.bytes_sent");
  remote_bytes_metric_ = reg->counter("net.remote_bytes");
  sent_metric_ = reg->counter("net.sent");
  dropped_metric_ = reg->counter("net.dropped");
  retries_metric_ = reg->counter("net.retries");
  send_failures_metric_ = reg->counter("net.send_failures");
  for (int i = 0; i < num_nodes; ++i) {
    std::string suffix = ":n" + std::to_string(i);
    sent_per_node_.push_back(reg->counter("net.sent" + suffix));
    dropped_per_node_.push_back(reg->counter("net.dropped" + suffix));
    retries_per_node_.push_back(reg->counter("net.retries" + suffix));
  }
  for (int i = 0; i < num_nodes; ++i) {
    // The buckets share the fabric's clock: under a virtual clock, NIC
    // throttle waits advance virtual time instead of sleeping real time.
    egress_.push_back(
        std::make_unique<TokenBucket>(options.bandwidth_bytes_per_sec,
                                      clock_));
    ingress_.push_back(
        std::make_unique<TokenBucket>(options.bandwidth_bytes_per_sec,
                                      clock_));
  }
}

void Network::CreateExchange(int exchange_id, int num_producers,
                             const std::vector<int>& consumer_nodes,
                             int capacity_override, QueryBudget* budget) {
  std::lock_guard<std::mutex> lock(mu_);
  int capacity = options_.capacity_blocks;
  if (capacity_override > 0) capacity = capacity_override;
  if (capacity_override < 0) capacity = 0;  // unbounded
  for (int node : consumer_nodes) {
    channels_[{exchange_id, node}] =
        std::make_unique<BlockChannel>(num_producers, capacity, budget);
  }
  exchange_consumers_[exchange_id] = consumer_nodes;
}

bool Network::Send(int exchange_id, int from, int to, BlockPtr block,
                   const std::atomic<bool>* cancel) {
  Route route;
  route.exchange_id = exchange_id;
  route.from_logical = route.from_physical = from;
  route.to_logical = route.to_physical = to;
  return SendRoute(route, std::move(block), /*visit_rate=*/1.0, cancel) ==
         SendOutcome::kOk;
}

void Network::SetFaultInjector(FaultInjector* injector) {
  injector_.store(injector, std::memory_order_release);
}

void Network::SetNodeDead(int node) {
  if (node < 0 || node >= 64) return;
  dead_mask_.fetch_or(uint64_t{1} << node, std::memory_order_release);
}

bool Network::NodeAlive(int node) const {
  if (node < 0 || node >= 64) return true;
  return ((dead_mask_.load(std::memory_order_acquire) >> node) & 1) == 0;
}

bool Network::SleepCancellable(int64_t delay_ns,
                               const std::atomic<bool>* cancel) {
  while (delay_ns > 0) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      return false;
    }
    int64_t chunk = std::min<int64_t>(delay_ns, 1'000'000);
    clock_->SleepNanos(chunk);
    delay_ns -= chunk;
  }
  return true;
}

SendOutcome Network::SendRoute(const Route& route, BlockPtr block,
                               double visit_rate,
                               const std::atomic<bool>* cancel,
                               uint64_t* wire_seq) {
  NetBlock envelope;
  envelope.block = std::move(block);
  envelope.visit_rate = visit_rate;
  return Deliver(route, std::move(envelope), cancel, wire_seq);
}

SendOutcome Network::SendRoute(const Route& route, FramePtr frame,
                               double visit_rate,
                               const std::atomic<bool>* cancel,
                               uint64_t* wire_seq) {
  NetBlock envelope;
  envelope.frame = std::move(frame);
  envelope.visit_rate = visit_rate;
  return Deliver(route, std::move(envelope), cancel, wire_seq);
}

SendOutcome Network::Deliver(const Route& route, NetBlock envelope,
                             const std::atomic<bool>* cancel,
                             uint64_t* wire_seq) {
  // Channels are addressed by *logical* endpoints: after re-dispatch the
  // surviving node keeps consuming the dead node's channel, so producers
  // need not learn new addresses mid-query.
  BlockChannel* channel = GetChannel(route.exchange_id, route.to_logical);
  if (channel == nullptr) return SendOutcome::kUnavailable;
  // NetBlock carries the logical producer id: mergers key visit-rate
  // aggregation and wire sequencing on the plan-level endpoint.
  envelope.from_node = route.from_logical;
  envelope.exchange_id = route.exchange_id;
  envelope.to_node = route.to_logical;
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  const int64_t bytes = envelope.wire_bytes();
  int64_t backoff_ns = options_.retry_backoff_ns;
  for (int attempt = 0;; ++attempt) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      return SendOutcome::kCancelled;
    }
    if (!NodeAlive(route.from_physical) || !NodeAlive(route.to_physical)) {
      send_failures_metric_->Add();
      return SendOutcome::kUnavailable;
    }
    SendDecision decision;
    if (injector != nullptr) {
      decision = injector->OnSend(route.exchange_id, route.from_physical,
                                  route.to_physical);
    }
    if (decision.delay_ns > 0 &&
        !SleepCancellable(decision.delay_ns, cancel)) {
      return SendOutcome::kCancelled;
    }
    if (decision.fate == SendDecision::Fate::kDrop) {
      dropped_metric_->Add();
      dropped_per_node_[route.from_physical]->Add();
      if (attempt + 1 >= options_.max_send_attempts) {
        send_failures_metric_->Add();
        return SendOutcome::kUnavailable;
      }
      retries_metric_->Add();
      retries_per_node_[route.from_physical]->Add();
      // Exponential backoff with symmetric jitter from the injector's seeded
      // stream, so colliding retriers decorrelate deterministically.
      double jitter =
          1.0 + options_.retry_jitter * (2.0 * injector->NextDouble() - 1.0);
      int64_t wait =
          std::max<int64_t>(1, static_cast<int64_t>(backoff_ns * jitter));
      if (!SleepCancellable(wait, cancel)) return SendOutcome::kCancelled;
      backoff_ns = static_cast<int64_t>(backoff_ns *
                                        options_.retry_backoff_multiplier);
      continue;
    }
    // NIC budgets are physical: a re-dispatched segment spends its *host's*
    // bandwidth, and a send that lands on the same box is loopback-free.
    if (route.from_physical != route.to_physical) {
      if (egress_[route.from_physical]->Acquire(bytes, cancel) < 0) {
        return SendOutcome::kCancelled;
      }
      if (ingress_[route.to_physical]->Acquire(bytes, cancel) < 0) {
        return SendOutcome::kCancelled;
      }
      remote_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      remote_bytes_metric_->Add(bytes);
    }
    uint64_t seq = 0;
    if (!channel->Send(envelope, cancel, &seq)) {
      return SendOutcome::kCancelled;
    }
    if (wire_seq != nullptr) *wire_seq = seq;
    if (decision.fate == SendDecision::Fate::kDuplicate) {
      // Second envelope under the same wire sequence, sharing the block or
      // frame; the receiver's duplicate suppression drops it. Best-effort: a
      // cancelled duplicate is no loss.
      envelope.wire_seq = seq;
      channel->SendDuplicate(std::move(envelope), cancel);
    }
    bytes_sent_metric_->Add(bytes);
    sent_metric_->Add();
    sent_per_node_[route.from_physical]->Add();
    return SendOutcome::kOk;
  }
}

void Network::CloseProducer(int exchange_id) {
  std::vector<int> consumers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = exchange_consumers_.find(exchange_id);
    if (it == exchange_consumers_.end()) return;
    consumers = it->second;
  }
  for (int node : consumers) {
    BlockChannel* channel = GetChannel(exchange_id, node);
    if (channel != nullptr) channel->CloseProducer();
  }
}

void Network::DestroyExchange(int exchange_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = exchange_consumers_.find(exchange_id);
  if (it == exchange_consumers_.end()) return;
  for (int node : it->second) channels_.erase({exchange_id, node});
  exchange_consumers_.erase(it);
}

BlockChannel* Network::GetChannel(int exchange_id, int node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find({exchange_id, node});
  return it == channels_.end() ? nullptr : it->second.get();
}

int64_t Network::total_remote_bytes() const {
  return remote_bytes_.load(std::memory_order_relaxed);
}

}  // namespace claims
