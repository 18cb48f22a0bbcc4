#ifndef CLAIMS_NET_NETWORK_H_
#define CLAIMS_NET_NETWORK_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "fault/injector.h"
#include "net/channel.h"
#include "net/token_bucket.h"
#include "obs/metrics_registry.h"

namespace claims {

struct NetworkOptions {
  /// Per-node NIC bandwidth (full duplex: separate egress/ingress budgets).
  /// The paper's gigabit switch ≈ 125 MB/s. <= 0 disables throttling.
  int64_t bandwidth_bytes_per_sec = 0;
  /// Per-channel buffer depth; <= 0 means unbounded (materialized execution).
  int capacity_blocks = 64;
  /// Time source of the NIC token buckets and the retry backoff; nullptr
  /// uses SteadyClock, the virtual-time simulator passes its SimClock.
  Clock* clock = nullptr;
  /// Send retry policy, exercised only when a fault injector drops blocks
  /// (the fault-free fabric never NACKs). Backoff is exponential with
  /// +/- `retry_jitter` relative jitter drawn from the injector's seed.
  int max_send_attempts = 5;
  int64_t retry_backoff_ns = 200'000;
  double retry_backoff_multiplier = 2.0;
  double retry_jitter = 0.2;
};

/// Terminal result of a (possibly retried) fabric send.
enum class SendOutcome {
  kOk,
  kCancelled,    ///< cancelled mid-send, or the query's ledger refused it
  kUnavailable,  ///< endpoint node dead, or drops exhausted every retry
};

/// A send's addressing. Logical ids name the *plan-level* endpoints (which
/// partition produced the block, which merger consumes it — channels and
/// visit-rate accounting key on these); physical ids name the *placement*
/// (whose NIC budget is charged, whether the send is loopback). They differ
/// only after node loss, when the executor re-dispatches a logical node's
/// segments onto a surviving physical node (docs/FAULTS.md).
struct Route {
  int exchange_id = 0;
  int from_logical = 0;
  int from_physical = 0;
  int to_logical = 0;
  int to_physical = 0;
};

/// The in-process network fabric of the simulated cluster: one BlockChannel
/// per (exchange, consumer node), plus token-bucket NICs per node. A send
/// from node f to node t charges f's egress and t's ingress budgets, so the
/// aggregate repartitioning traffic of a query saturates exactly like the
/// paper's gigabit links (a loopback "send" — f == t — is free, matching the
/// short-circuit every distributed engine applies to local exchanges).
class Network {
 public:
  Network(int num_nodes, NetworkOptions options);
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(Network);

  int num_nodes() const { return num_nodes_; }

  /// Declares an exchange: `num_producers` producer segments will send to
  /// each of `consumer_nodes`. Must be called before Send/OpenChannel.
  /// `capacity_override` > 0 replaces the default channel depth; < 0 makes
  /// the exchange unbounded (ME materialization). Every channel charges
  /// its queued blocks to `budget`, the owning execution's ledger (nullable;
  /// it must outlive the exchange).
  void CreateExchange(int exchange_id, int num_producers,
                      const std::vector<int>& consumer_nodes,
                      int capacity_override = 0,
                      QueryBudget* budget = nullptr);

  /// Sends `block`'s rows, unencoded, from node `from` to the exchange's
  /// channel at node `to`, charging NIC budgets. False when cancelled or
  /// unavailable. Equivalent to SendRoute with logical == physical on both
  /// ends and a visit-rate tail of 1.
  bool Send(int exchange_id, int from, int to, BlockPtr block,
            const std::atomic<bool>* cancel = nullptr);

  /// The full-fidelity send: consults the fault injector (drop / delay /
  /// duplicate fates), retries dropped blocks with exponential backoff +
  /// jitter up to `max_send_attempts`, fast-fails kUnavailable when either
  /// physical endpoint is dead, and charges the *physical* NIC budgets while
  /// addressing the *logical* channel. `visit_rate` is the producer's
  /// contribution V_i·δ_i·p_ij to the consumer's visit rate; it rides the
  /// envelope (a duplicate carries the same). On kOk, `wire_seq` (when
  /// non-null) receives the wire sequence number the channel assigned — the
  /// recorder keys its send↔receive links on it (a fabric-dropped attempt is
  /// never enqueued, so each delivered block has exactly one sequence).
  SendOutcome SendRoute(const Route& route, BlockPtr block, double visit_rate,
                        const std::atomic<bool>* cancel = nullptr,
                        uint64_t* wire_seq = nullptr);

  /// The same send for a block encoded as a frame (net/wire_frame.h): the
  /// NICs, the fabric's byte counters and the channel's ledger count the
  /// frame's bytes, and the receiving channel decodes it. Several sends may
  /// share one frame (a broadcast's remote consumers).
  SendOutcome SendRoute(const Route& route, FramePtr frame, double visit_rate,
                        const std::atomic<bool>* cancel = nullptr,
                        uint64_t* wire_seq = nullptr);

  /// Attaches the chaos plane; nullptr detaches. The injector must outlive
  /// every in-flight send.
  void SetFaultInjector(FaultInjector* injector);

  /// Marks a node crashed: subsequent sends touching it fail kUnavailable
  /// immediately instead of burning retries. Called by Cluster::KillNode.
  void SetNodeDead(int node);
  bool NodeAlive(int node) const;

  /// One producer of `exchange_id` is done with *all* destinations.
  void CloseProducer(int exchange_id);

  /// Removes an exchange's channels once its query completed. Callers must
  /// have joined every producer and consumer of the exchange first — the
  /// channels are destroyed, so any pointer from GetChannel goes stale. Lets
  /// concurrent queries (which namespace their exchange ids per execution)
  /// return their channels instead of growing the fabric map forever.
  void DestroyExchange(int exchange_id);

  /// The consumer-side endpoint at node `node`.
  BlockChannel* GetChannel(int exchange_id, int node);

  TokenBucket* egress(int node) { return egress_[node].get(); }
  TokenBucket* ingress(int node) { return ingress_[node].get(); }

  /// Aggregate bytes sent across node boundaries by every query (network
  /// utilization), counted as wire bytes. A query's own share is
  /// ExecutionReport::remote_bytes.
  int64_t total_remote_bytes() const;

 private:
  /// Both SendRoutes: `envelope` holds the block or its frame; the route
  /// fills its addressing.
  SendOutcome Deliver(const Route& route, NetBlock envelope,
                      const std::atomic<bool>* cancel, uint64_t* wire_seq);

  /// Sleeps `delay_ns` on the fabric clock in cancellation-responsive
  /// chunks; false when `cancel` trips.
  bool SleepCancellable(int64_t delay_ns, const std::atomic<bool>* cancel);

  int num_nodes_;
  NetworkOptions options_;
  Clock* clock_;
  MetricCounter* bytes_sent_metric_;
  MetricCounter* remote_bytes_metric_;
  MetricCounter* sent_metric_;
  MetricCounter* dropped_metric_;
  MetricCounter* retries_metric_;
  MetricCounter* send_failures_metric_;
  /// Per-origin-node fabric health ("net.sent:n3"), resolved at construction.
  std::vector<MetricCounter*> sent_per_node_;
  std::vector<MetricCounter*> dropped_per_node_;
  std::vector<MetricCounter*> retries_per_node_;
  std::atomic<FaultInjector*> injector_{nullptr};
  std::atomic<uint64_t> dead_mask_{0};
  std::vector<std::unique_ptr<TokenBucket>> egress_;
  std::vector<std::unique_ptr<TokenBucket>> ingress_;

  mutable std::mutex mu_;
  /// (exchange_id, consumer node) → channel.
  std::map<std::pair<int, int>, std::unique_ptr<BlockChannel>> channels_;
  /// exchange_id → consumer nodes (for CloseProducer fan-out).
  std::map<int, std::vector<int>> exchange_consumers_;
  std::atomic<int64_t> remote_bytes_{0};
};

}  // namespace claims

#endif  // CLAIMS_NET_NETWORK_H_
