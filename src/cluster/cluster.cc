#include "cluster/cluster.h"

#include <chrono>

#include "common/logging.h"

namespace claims {

Cluster::Cluster(ClusterOptions options, Catalog* catalog)
    : options_(options), catalog_(catalog) {
  NetworkOptions net;
  net.bandwidth_bytes_per_sec = options_.bandwidth_bytes_per_sec;
  net.capacity_blocks = options_.channel_capacity_blocks;
  network_ = std::make_unique<Network>(options_.num_nodes, net);
  for (int n = 0; n < options_.num_nodes; ++n) {
    schedulers_.push_back(std::make_unique<DynamicScheduler>(
        n, SchedulerOptions{options_.cores_per_node}, SteadyClock::Default(),
        &board_));
  }
  node_alive_.assign(options_.num_nodes, true);
  const std::chrono::milliseconds period(options_.scheduler_period_ms);
  for (auto& scheduler : schedulers_) {
    scheduler_threads_.emplace_back(
        [s = scheduler.get(), period] { s->RunLoop(period); });
  }
}

Cluster::~Cluster() {
  for (auto& scheduler : schedulers_) scheduler->Shutdown();
  for (std::thread& t : scheduler_threads_) t.join();
}

void Cluster::StartSchedulers() {
  for (auto& scheduler : schedulers_) scheduler->SetHalted(false);
}

void Cluster::StopSchedulers() {
  for (auto& scheduler : schedulers_) scheduler->SetHalted(true);
}

bool Cluster::NodeAlive(int node) const {
  if (node < 0 || node >= options_.num_nodes) return false;
  std::lock_guard<std::mutex> lock(health_mu_);
  return node_alive_[node];
}

std::vector<int> Cluster::AliveNodes() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  std::vector<int> alive;
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (node_alive_[n]) alive.push_back(n);
  }
  return alive;
}

void Cluster::KillNode(int node) {
  if (node <= 0 || node >= options_.num_nodes) {
    // Node 0 is the master/result collector; there is no failover for it in
    // the in-process model, so a plan that crashes it is a plan error.
    CLAIMS_LOG(Warning) << "KillNode(" << node << ") ignored"
                     << (node == 0 ? " (node 0 is the master)" : "");
    return;
  }
  std::vector<std::function<void(int)>> listeners;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (!node_alive_[node]) return;  // already dead; listeners already ran
    node_alive_[node] = false;
    for (auto& [token, listener] : death_listeners_) {
      listeners.push_back(listener);
    }
  }
  // Order matters: fail the fabric first so segments touching the node stop
  // making progress, withdraw the node from the control plane, then tell the
  // executors — which cancel and surface kUnavailable for re-dispatch.
  network_->SetNodeDead(node);
  schedulers_[node]->SetEnabled(false);
  MetricsRegistry::Global()->counter("cluster.nodes_killed")->Add();
  for (auto& listener : listeners) listener(node);
}

int Cluster::AddNodeDeathListener(std::function<void(int)> listener) {
  std::lock_guard<std::mutex> lock(health_mu_);
  int token = next_listener_token_++;
  death_listeners_[token] = std::move(listener);
  return token;
}

void Cluster::RemoveNodeDeathListener(int token) {
  std::lock_guard<std::mutex> lock(health_mu_);
  death_listeners_.erase(token);
}

void Cluster::AttachFaultInjector(FaultInjector* injector) {
  network_->SetFaultInjector(injector);
  if (injector == nullptr) return;
  injector->SetNicRewriter([this](int node, int64_t bps) {
    if (node < 0 || node >= options_.num_nodes) return;
    // bps < 0 restores the configured healthy bandwidth.
    int64_t rate = bps < 0 ? options_.bandwidth_bytes_per_sec : bps;
    network_->egress(node)->SetBytesPerSec(rate);
    network_->ingress(node)->SetBytesPerSec(rate);
  });
  injector->SetCrashHandler([this](int node) { KillNode(node); });
}

}  // namespace claims
