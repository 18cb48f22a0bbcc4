#ifndef CLAIMS_FAULT_FAULT_PLAN_H_
#define CLAIMS_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace claims {

/// The faults the chaos plane can inject. Windowed kinds (drop, delay,
/// duplicate, disconnect, straggle, NIC degrade) hold for `duration_ns` from
/// `at_ns`; node crash is one-shot and permanent for the cluster's lifetime
/// (a process that rejoins is a new cluster in this in-process model).
enum class FaultKind {
  kDropBlock,       ///< exchange sends fail (transport NACK) with `probability`
  kDelayBlock,      ///< exchange sends stall `delay_ns` before delivery
  kDuplicateBlock,  ///< delivered blocks arrive twice with one wire sequence
  kDisconnect,      ///< every send on the targeted exchange/node link fails
  kDegradeNic,      ///< rewrite the node's NIC budget to `bandwidth_bytes_per_sec`
  kCrashNode,       ///< the node dies: segments abort, cores leave the board
  kStraggleNode,    ///< the node turns straggler: `slowdown_factor` slower
  kMemPressure,     ///< cap the bounded ledgers' total charge at
                    ///< `mem_cap_bytes`: their charges refuse, forcing the
                    ///< spill → reject degradation ladder
};

const char* FaultKindName(FaultKind kind);

/// One scheduled fault. Times are relative to FaultInjector::Arm() (or to
/// virtual time zero in the simulator), so a plan is a pure value: running
/// the same plan twice produces the same schedule by construction.
struct FaultSpec {
  FaultKind kind = FaultKind::kDropBlock;
  int64_t at_ns = 0;        ///< activation, relative to arm / sim start
  int64_t duration_ns = 0;  ///< window length; <= 0 means "until disarm"
  int node = -1;            ///< target node; -1 matches any node
  int exchange_id = -1;     ///< target exchange (post-namespacing); -1 any
  double probability = 1.0; ///< per-send chance while active (drop/dup/delay)
  int64_t delay_ns = 0;                  ///< kDelayBlock hold time
  int64_t bandwidth_bytes_per_sec = 0;   ///< kDegradeNic new budget
  double slowdown_factor = 1.0;          ///< kStraggleNode (>= 1)
  int64_t mem_cap_bytes = 0;             ///< kMemPressure ledger cap (0 = off)

  /// Canonical one-line rendering, also the serialized form ParseFaultSpec
  /// accepts: "at=50ms kind=crash node=2".
  std::string ToString() const;
};

/// A declarative, seeded chaos schedule. The seed drives every probabilistic
/// per-send decision, so a (plan, substrate) pair replays deterministically
/// wherever the substrate itself is deterministic (the virtual-time
/// simulator; single-threaded fabrics). See docs/FAULTS.md for the grammar.
struct FaultPlan {
  uint64_t seed = 42;
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }
  /// One spec per line, "seed=<n>" first. Round-trips through ParseFaultPlan.
  std::string ToString() const;
};

/// Parses one "key=value ..." spec line. Keys: kind (drop|delay|dup|
/// disconnect|nic|crash|straggle|mempressure), at, dur, delay (durations:
/// ns/us/ms/s suffix), node, exchange, p, bps, factor, bytes.
Result<FaultSpec> ParseFaultSpec(const std::string& line);

/// Parses a whole plan: blank lines and '#' comments ignored; an optional
/// "seed=<n>" line sets the seed.
Result<FaultPlan> ParseFaultPlan(const std::string& text);

/// A fault transition that was applied (or scheduled, in the simulator).
/// `at_ns` is the *planned* plan-relative time, never a wall-clock stamp, so
/// two runs of the same plan produce byte-identical logs (the determinism
/// contract the chaos tests assert).
struct FaultEvent {
  int64_t at_ns = 0;
  bool activated = true;  ///< false = window closed / NIC restored
  std::string description;

  std::string ToString() const;
};

/// Renders an event log one event per line (the byte-compared artifact).
std::string FormatFaultEventLog(const std::vector<FaultEvent>& events);

/// A seeded random fault storm for chaos stress runs: windowed drop / delay /
/// duplicate / NIC-degrade / straggle faults spread over `duration_ns`
/// across `num_nodes`. Never emits kCrashNode — crash scenarios are scripted
/// explicitly so the test controls which node dies and when.
FaultPlan RandomFaultStorm(uint64_t seed, int num_nodes, int64_t duration_ns);

}  // namespace claims

#endif  // CLAIMS_FAULT_FAULT_PLAN_H_
