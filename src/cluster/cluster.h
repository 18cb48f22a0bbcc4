#ifndef CLAIMS_CLUSTER_CLUSTER_H_
#define CLAIMS_CLUSTER_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/scheduler.h"
#include "fault/injector.h"
#include "net/network.h"
#include "storage/catalog.h"

namespace claims {

struct ClusterOptions {
  /// Shared-nothing nodes; table partition i lives on node i (paper §2).
  int num_nodes = 4;
  /// Worker cores per node available to query segments (paper: 24 logical).
  int cores_per_node = 24;
  /// NIC bandwidth per node; 0 disables throttling (unit tests). The paper's
  /// gigabit switch is 125 MB/s.
  int64_t bandwidth_bytes_per_sec = 0;
  /// Exchange channel depth (blocks).
  int channel_capacity_blocks = 64;
  /// Dynamic scheduler tick period (EP mode).
  int64_t scheduler_period_ms = 50;
};

/// The in-process shared-nothing cluster: k nodes, each with a core budget
/// and a DynamicScheduler, joined by the bandwidth-modelled Network. One
/// node (0) doubles as the master that gathers results.
class Cluster {
 public:
  Cluster(ClusterOptions options, Catalog* catalog);
  ~Cluster();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(Cluster);

  const ClusterOptions& options() const { return options_; }
  int num_nodes() const { return options_.num_nodes; }
  Catalog* catalog() { return catalog_; }
  Network* network() { return network_.get(); }
  GlobalThroughputBoard* board() { return &board_; }
  DynamicScheduler* scheduler(int node) { return schedulers_[node].get(); }

  /// Each node's scheduler runs one control loop (DynamicScheduler::RunLoop)
  /// from construction to destruction, parked while the node has no segment
  /// registered, so queries neither start nor stop it. StopSchedulers halts
  /// every loop promptly (a tick in progress finishes first);
  /// StartSchedulers resumes them and is a no-op on running loops.
  void StartSchedulers();
  void StopSchedulers();

  // --- Node health (chaos plane) --------------------------------------------

  /// False once KillNode(node) ran. Node 0 is the master (gathers results);
  /// killing it is rejected — the in-process cluster has no master failover.
  bool NodeAlive(int node) const;
  /// Logical ids of the nodes still alive, ascending.
  std::vector<int> AliveNodes() const;

  /// Kills a node: the fabric fails its sends kUnavailable, its scheduler
  /// stops ticking and withdraws from the throughput board, and every death
  /// listener fires (executors cancel in-flight work touching the node so the
  /// workload manager can re-dispatch). Idempotent; listeners run once, on
  /// the caller's thread, without cluster locks held.
  void KillNode(int node);

  /// Registers a callback invoked on every subsequent KillNode. Returns a
  /// token for RemoveNodeDeathListener. Executors register for their run.
  int AddNodeDeathListener(std::function<void(int node)> listener);
  void RemoveNodeDeathListener(int token);

  /// Wires a chaos injector into this cluster: the fabric consults it per
  /// send, its NIC-degradation faults rewrite token-bucket rates (restoring
  /// the configured bandwidth when the window closes), and its crash faults
  /// call KillNode. The injector must outlive the attachment; nullptr
  /// detaches the fabric hook.
  void AttachFaultInjector(FaultInjector* injector);

 private:
  ClusterOptions options_;
  Catalog* catalog_;
  std::unique_ptr<Network> network_;
  GlobalThroughputBoard board_;
  std::vector<std::unique_ptr<DynamicScheduler>> schedulers_;
  /// One RunLoop thread per node, joined by the destructor.
  std::vector<std::thread> scheduler_threads_;

  mutable std::mutex health_mu_;  ///< guards node_alive_ + listeners
  std::vector<bool> node_alive_;
  std::map<int, std::function<void(int)>> death_listeners_;
  int next_listener_token_ = 0;
};

}  // namespace claims

#endif  // CLAIMS_CLUSTER_CLUSTER_H_
