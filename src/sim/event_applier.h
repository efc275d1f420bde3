// The one event core. sim::RunScenario, the daemon's svc::Engine and its
// WAL recovery all drive it, so the paper's rules run from one copy:
// admission, release, link / node / SRLG failure with backup activation
// and step-4 re-protection, repair, and jittered-backoff re-protection
// retries. Drivers keep what differs on purpose (metrics, traces,
// responses, WAL) and decide when to advertise (Publish); the applier
// publishes only before a retry's route selection.
#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "drtp/admission.h"
#include "drtp/failure.h"
#include "sim/scenario.h"

namespace drtp::sim {

/// The replay knobs of ExperimentConfig (same meanings); the seed is
/// used as given.
struct ApplierConfig {
  core::SpareMode spare_mode = core::SpareMode::kMultiplexed;
  int num_backups = 1;
  int reprotect_max_retries = 0;
  Time reprotect_backoff = 5.0;
  std::uint64_t reprotect_seed = 0;
};

enum class Effect {
  /// State-neutral: releasing an inactive connection, failing links
  /// already down, repairing links already up, or a request reusing an
  /// active connection id.
  kNone,
  kBlocked,  ///< a request refused admission
  kChanged,
};

struct EventOutcome {
  Effect effect = Effect::kNone;
  core::AdmitOutcome admit;       ///< requests
  core::SwitchoverReport report;  ///< enacted failures
  /// Enacted failures under a protecting scheme: connections newly left
  /// unprotected, in report order.
  std::vector<ConnId> degraded;

  bool changed() const { return effect == Effect::kChanged; }
};

struct RetryOutcome {
  Time at = 0.0;
  ConnId conn = kInvalidConn;
  /// False when the connection was released, dropped or re-protected
  /// before the retry came due.
  bool attempted = false;
  bool recovered = false;  ///< a backup was registered
  bool exhausted = false;  ///< the last attempt failed
  int overbooked_hops = 0;
};

class EventApplier {
 public:
  /// `scheme` is not owned and must outlive the applier.
  EventApplier(const net::Topology& topo, core::RoutingScheme& scheme,
               const ApplierConfig& config);

  /// Applies `e` at e.time; its ids must be in range (Scenario::Validate).
  EventOutcome Apply(const ScenarioEvent& e);

  /// Due time of the earliest pending retry; kTimeInfinity if none.
  Time NextRetryTime() const;
  /// Runs the earliest pending retry (there must be one).
  RetryOutcome ApplyNextRetry();

  void Publish(Time now) { net_.PublishTo(db_, now); }
  void PublishFull(Time now) { net_.PublishFullTo(db_, now); }

  const core::DrtpNetwork& network() const { return net_; }
  /// For snapshot restore only; events go through Apply.
  core::DrtpNetwork& mutable_network() { return net_; }

 private:
  /// Links each enacted node / SRLG failure took down, so its repair
  /// restores exactly that set (members already down keep their own
  /// repair event).
  using Downed = std::unordered_map<std::int32_t, std::vector<LinkId>>;

  void Fail(std::span<const LinkId> links, Time now, EventOutcome& out);
  void Fail(Downed& downed, std::int32_t id,
            std::span<const LinkId> members, Time now, EventOutcome& out);
  /// Brings up whichever links are down; true if any came up.
  bool Repair(std::span<const LinkId> links);
  bool Repair(Downed& downed, std::int32_t id);
  void ScheduleRetry(ConnId id, int attempt, Time from);

  struct Retry {
    Time at = 0.0;
    std::int64_t seq = 0;  // FIFO tie-break at equal times
    ConnId conn = kInvalidConn;
    int attempt = 1;
    /// Due later: the queue's top is the earliest retry.
    bool operator<(const Retry& o) const {
      return at > o.at || (at == o.at && seq > o.seq);
    }
  };

  ApplierConfig config_;
  core::DrtpNetwork net_;
  lsdb::LinkStateDb db_;
  core::RoutingScheme& scheme_;
  bool protecting_;
  core::RoutingScheme* reroute_;  ///< step 4's scheme; null if no backups
  Downed node_downed_;
  Downed srlg_downed_;
  Rng retry_rng_;
  std::priority_queue<Retry> retries_;
  std::int64_t retry_seq_ = 0;
  /// Counted as degraded and not yet re-protected, released or dropped:
  /// overlapping failures must not count a connection twice.
  std::unordered_set<ConnId> degraded_pending_;
};

}  // namespace drtp::sim
