// The traced run's in-process replays. Each replays a workload's request
// stream through the program's public entry points with a Tracer around
// every call, and steps a shadow core::DrtpNetwork call by call beside
// the real code path; the shadow must end in the same state, which shows
// the traced calls did the same work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client.h"
#include "net/topology.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "tracer.h"

namespace drtpbench {

struct DaemonReplayConfig {
  const drtp::net::Topology* topo = nullptr;
  std::vector<LoadEvent> events;
  /// Closed-loop rule: a release is sent only for a live connection.
  bool release_only_live = false;
  int batch = 1;                ///< requests per engine batch
  std::size_t stats_every = 0;  ///< a stats request after every N events
  std::string wal_stem;         ///< shadow WAL path prefix; empty = none
};

struct ReplayOutcome {
  double untraced_s = 0.0;  ///< summed batch wall time, untraced replica
  double traced_s = 0.0;    ///< summed batch wall time, traced replica
  std::int64_t batches = 0;
  std::int64_t wal_batches = 0;
  std::int64_t wal_bytes = 0;
  double recover_ms = 0.0;  ///< svc::Engine::Recover of the shadow WAL
  std::vector<std::string> problems;
};

/// Replays `config.events` through svc wire/rpc framing, svc::Engine and
/// a shadow network; with a WAL stem, also appends the shadow's effective
/// events to a WAL and recovers a fresh engine from it. Digests of engine,
/// shadow and recovered engine must agree. Two replicas run each batch
/// back to back, one untraced and one under `tracer`; the difference of
/// their summed batch times is the tracing overhead.
ReplayOutcome ReplayDaemonStream(const DaemonReplayConfig& config,
                                 Tracer* tracer);

/// Steps one sweep cell's scenario on a shadow network the way
/// sim::RunScenario does for a fault-free, instant-advertisement cell,
/// and returns the measures RunScenario reports for it.
struct ShadowCellMetrics {
  std::int64_t requests = 0, admitted = 0, blocked = 0;
  std::int64_t pbk_hits = 0, pbk_trials = 0;
};
ShadowCellMetrics ReplaySimCell(const drtp::net::Topology& topo,
                                const drtp::sim::Scenario& scenario,
                                const std::string& scheme,
                                std::uint64_t scheme_seed,
                                const drtp::sim::ExperimentConfig& ec,
                                Tracer* tracer);

}  // namespace drtpbench
