#include "sim/experiment.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "drtp/failure.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_applier.h"

namespace drtp::sim {
namespace {

/// Process-wide lifecycle counters (drtp.sim.*), resolved once. These
/// feed the sweep ProgressReporter's live readout and per-cell snapshot
/// tags; under DRTP_OBS_DISABLED every Add is a no-op.
struct SimCounters {
  /// One per ScenarioEvent::Type, in enum order: every request, and the
  /// other kinds when they take effect.
  obs::Counter events[8] = {
      obs::GetCounter("drtp.sim.requests"),
      obs::GetCounter("drtp.sim.releases"),
      obs::GetCounter("drtp.sim.link_fails"),
      obs::GetCounter("drtp.sim.link_repairs"),
      obs::GetCounter("drtp.sim.node_fails"),
      obs::GetCounter("drtp.sim.node_repairs"),
      obs::GetCounter("drtp.sim.srlg_fails"),
      obs::GetCounter("drtp.sim.srlg_repairs")};
  obs::Counter admits = obs::GetCounter("drtp.sim.admits");
  obs::Counter blocks = obs::GetCounter("drtp.sim.blocks");
  obs::Counter failovers = obs::GetCounter("drtp.sim.failovers");
  obs::Counter drops = obs::GetCounter("drtp.sim.drops");
  obs::Counter backup_breaks = obs::GetCounter("drtp.sim.backup_breaks");
  obs::Counter reestablishes =
      obs::GetCounter("drtp.sim.backups_reestablished");
  obs::Counter degraded = obs::GetCounter("drtp.sim.degraded");
  obs::Counter reprotect_retries =
      obs::GetCounter("drtp.sim.reprotect_retries");
  obs::Counter reprotects = obs::GetCounter("drtp.sim.reprotects");
};

const SimCounters& Counters() {
  static const SimCounters counters;
  return counters;
}

/// after_event labels, one per ScenarioEvent::Type in enum order.
constexpr std::string_view kEventLabels[] = {
    "request",   "release",     "link_fail", "link_repair",
    "node_fail", "node_repair", "srlg_fail", "srlg_repair"};

/// Trace record kinds, one per ScenarioEvent::Type in enum order.
constexpr obs::TraceEventKind kTraceKinds[] = {
    obs::TraceEventKind::kRequest,    obs::TraceEventKind::kRelease,
    obs::TraceEventKind::kLinkFail,   obs::TraceEventKind::kLinkRepair,
    obs::TraceEventKind::kNodeFail,   obs::TraceEventKind::kNodeRepair,
    obs::TraceEventKind::kSrlgFail,   obs::TraceEventKind::kSrlgRepair};

}  // namespace

RunMetrics RunScenario(const net::Topology& topo, const Scenario& scenario,
                       core::RoutingScheme& scheme,
                       const ExperimentConfig& config) {
  const Time duration = scenario.traffic.duration;
  DRTP_CHECK_MSG(config.warmup < duration,
                 "warmup " << config.warmup << " >= duration " << duration);
  DRTP_CHECK(config.sample_interval > 0.0);
  // Reject scenario/topology mismatches (a trace generated for a bigger
  // graph, an SRLG id past this topology's groups) as ParseError up front
  // — bad input, not a mid-replay invariant trip.
  scenario.Validate(topo);

  // The jitter seed is combined with the traffic seed so replays stay
  // deterministic while distinct cells decorrelate.
  EventApplier applier(
      topo, scheme,
      ApplierConfig{
          .spare_mode = config.spare_mode,
          .num_backups = config.num_backups,
          .reprotect_max_retries = config.reprotect_max_retries,
          .reprotect_backoff = config.reprotect_backoff,
          .reprotect_seed = config.reprotect_seed ^ scenario.traffic.seed});
  const core::DrtpNetwork& net = applier.network();
  obs::TraceSink* const trace = config.trace;

  RunMetrics m;
  m.scheme = scheme.name();
  m.measure_start = config.warmup;
  m.measure_end = duration;

  const bool instant = config.lsdb_refresh_interval <= 0.0;
  applier.Publish(0.0);
  Time next_refresh = instant ? kTimeInfinity : config.lsdb_refresh_interval;

  // Time-weighted active-connection count over the measurement window;
  // called after every event that changes the count.
  TimeWeightedStat window;
  int active_count = 0;
  const auto note_active = [&](Time t) {
    // The measurement window is [warmup, duration]; trailing releases
    // beyond the horizon no longer affect the average.
    const Time clamped = std::min(t, duration);
    if (clamped >= config.warmup) {
      if (!window.started()) window.Set(config.warmup, active_count);
      window.Set(clamped, net.ActiveCount());
    }
    active_count = net.ActiveCount();
  };

  Time next_sample = config.warmup;
  const auto sample = [&] {
    m.pbk.Merge(core::EvaluateAllSingleLinkFailures(net));
    if (topo.has_srlgs()) m.pbk_srlg.Merge(core::EvaluateSrlgSurvival(net));
    m.prime_bw.Add(static_cast<double>(net.ledger().TotalPrime()));
    m.spare_bw.Add(static_cast<double>(net.ledger().TotalSpare()));
    if (config.check_consistency) net.CheckConsistency();
  };

  // Trace records, built only when tracing is on. Each starts stamped
  // with its time, kind, the scheme's name and the connection, if any.
  using Kind = obs::TraceEventKind;
  const auto record = [&](Time t, Kind kind, ConnId conn = kInvalidConn) {
    obs::TraceEvent ev;
    ev.t = t;
    ev.kind = kind;
    ev.scheme = m.scheme;
    ev.conn = conn;
    return ev;
  };
  // Attaches a backup route and its post-event per-link APLV maxima; the
  // spans stay valid until the next call.
  std::vector<std::pair<LinkId, std::int32_t>> aplv_scratch;
  const auto set_backup = [&](obs::TraceEvent& ev, const routing::Path& b) {
    aplv_scratch.clear();
    for (const LinkId l : b.links()) {
      aplv_scratch.emplace_back(l, net.aplv(l).Max());
    }
    ev.backup = b.nodes();
    ev.aplv = aplv_scratch;
  };
  const auto trace_reestablish = [&](Time t, ConnId id,
                                     const routing::Path& backup) {
    obs::TraceEvent ev = record(t, Kind::kReestablish, id);
    set_backup(ev, backup);
    trace->Write(ev);
  };
  // A failure or repair record, naming its link, node or SRLG.
  const auto fault_record = [&](const ScenarioEvent& e) {
    obs::TraceEvent ev =
        record(e.time, kTraceKinds[static_cast<std::size_t>(e.type)]);
    switch (e.type) {
      case ScenarioEvent::Type::kLinkFail:
      case ScenarioEvent::Type::kLinkRepair:
        ev.link = e.link;
        break;
      case ScenarioEvent::Type::kNodeFail:
      case ScenarioEvent::Type::kNodeRepair:
        ev.node = e.node;
        break;
      default:  // SRLG failures and repairs
        ev.srlg = e.srlg;
    }
    return ev;
  };

  // inspect_final fires once the clock passes the horizon, i.e. on the
  // loaded steady-state network rather than the drained one.
  bool inspected = false;
  const auto maybe_inspect = [&](Time t) {
    if (!inspected && t > duration && config.inspect_final) {
      config.inspect_final(net);
      inspected = true;
    }
  };

  const auto handle_retry = [&] {
    const RetryOutcome r = applier.ApplyNextRetry();
    if (!r.attempted) return;
    ++m.reprotect_retries;
    Counters().reprotect_retries.Add();
    if (r.recovered) {
      m.overbooked_hops += r.overbooked_hops;
      ++m.reprotect_recovered;
      Counters().reprotects.Add();
      if (trace != nullptr) {
        trace_reestablish(r.at, r.conn, *net.Find(r.conn)->first_backup());
      }
    } else if (r.exhausted) {
      ++m.reprotect_exhausted;
    }
    if (config.after_event) {
      config.after_event(net, r.at, "reprotect_retry", nullptr);
    }
  };

  // Interleaves P_bk samples and due re-protection retries in time order
  // up to `until`.
  const auto advance_to = [&](Time until) {
    while (true) {
      const Time ts = next_sample <= duration ? next_sample : kTimeInfinity;
      const Time tr = applier.NextRetryTime();
      if (ts > until && tr > until) break;
      if (tr <= ts) {
        handle_retry();
      } else {
        sample();
        next_sample += config.sample_interval;
      }
    }
  };

  const auto on_admission = [&](const ScenarioEvent& e,
                                const core::AdmitOutcome& out) {
    ++m.requests;
    m.control_messages += out.control_messages;
    m.control_bytes += out.control_bytes;
    if (!out.admitted) {
      ++m.blocked;
      Counters().blocks.Add();
      if (trace != nullptr) {
        obs::TraceEvent ev = record(e.time, Kind::kBlock, e.conn);
        ev.src = e.src;
        ev.dst = e.dst;
        trace->Write(ev);
      }
      return;
    }
    ++m.admitted;
    m.primary_hops.Add(out.primary->hops());
    if (out.backup.has_value()) {
      m.overbooked_hops += out.overbooked_hops;
      ++m.with_backup;
      m.backup_hops.Add(out.backup->hops());
      m.backup_overlap_links += out.backup->OverlapCount(*out.primary);
    }
    note_active(e.time);
    Counters().admits.Add();
    if (trace != nullptr) {
      const core::DrConnection* conn = net.Find(e.conn);
      obs::TraceEvent ev = record(e.time, Kind::kAdmit, e.conn);
      ev.bw = e.bw;
      ev.primary = conn->primary.nodes();
      ev.src = ev.primary.front();
      ev.dst = ev.primary.back();
      if (const routing::Path* backup = conn->first_backup()) {
        set_backup(ev, *backup);
      }
      trace->Write(ev);
    }
  };

  // An enacted link / node / SRLG failure: the aggregate trace line, then
  // metrics, counters and per-connection traces in the report's order.
  const auto on_failure = [&](const ScenarioEvent& e,
                              const EventOutcome& out) {
    const core::SwitchoverReport& report = out.report;
    const auto recovered = static_cast<int>(report.recovered.size());
    const auto dropped = static_cast<int>(report.dropped.size());
    const auto lost = static_cast<int>(report.backups_lost.size());
    const auto rerouted = static_cast<std::int64_t>(report.rerouted.size());
    const auto degraded = static_cast<std::int64_t>(out.degraded.size());
    ++m.failures_enacted;
    if (trace != nullptr) {
      obs::TraceEvent ev = fault_record(e);
      ev.recovered = recovered;
      ev.dropped = dropped;
      ev.broken = lost;
      trace->Write(ev);
    }
    m.failover_recovered += recovered;
    m.failover_dropped += dropped;
    m.backups_broken += lost;
    m.backups_reestablished += rerouted;
    m.degraded += degraded;
    note_active(e.time);
    Counters().failovers.Add(recovered);
    Counters().drops.Add(dropped);
    Counters().backup_breaks.Add(lost);
    Counters().reestablishes.Add(rerouted);
    Counters().degraded.Add(degraded);
    if (trace == nullptr) return;
    for (const ConnId id : report.recovered) {
      const core::DrConnection* conn = net.Find(id);
      if (conn == nullptr) continue;
      // The promoted backup is the connection's new primary.
      obs::TraceEvent ev = record(e.time, Kind::kFailover, id);
      ev.primary = conn->primary.nodes();
      trace->Write(ev);
    }
    for (const ConnId id : report.dropped) {
      trace->Write(record(e.time, Kind::kDrop, id));
    }
    for (const ConnId id : report.backups_lost) {
      trace->Write(record(e.time, Kind::kBackupBreak, id));
    }
    for (const ConnId id : report.rerouted) {
      const core::DrConnection* conn = net.Find(id);
      const routing::Path* backup =
          conn != nullptr ? conn->first_backup() : nullptr;
      if (backup != nullptr) trace_reestablish(e.time, id, *backup);
    }
    for (const ConnId id : out.degraded) {
      obs::TraceEvent ev = record(e.time, Kind::kDegrade, id);
      ev.retries_left = config.reprotect_max_retries;
      trace->Write(ev);
    }
  };

  for (const ScenarioEvent& e : scenario.events) {
    maybe_inspect(e.time);
    advance_to(e.time);
    while (next_refresh <= e.time) {
      // The periodic refresh is a full re-advertisement by construction
      // (the paper's refresh cycle re-floods everything), and doubles as
      // the incremental path's safety net.
      applier.PublishFull(next_refresh);
      next_refresh += config.lsdb_refresh_interval;
    }

    const bool request = e.type == ScenarioEvent::Type::kRequest;
    if (request && trace != nullptr) {
      obs::TraceEvent ev = record(e.time, Kind::kRequest, e.conn);
      ev.src = e.src;
      ev.dst = e.dst;
      ev.bw = e.bw;
      trace->Write(ev);
    }
    const EventOutcome out = applier.Apply(e);
    if (request || out.changed()) {
      Counters().events[static_cast<std::size_t>(e.type)].Add();
    }
    bool failure = false;
    if (request) {
      on_admission(e, out.admit);
    } else if (out.changed()) {
      switch (e.type) {
        case ScenarioEvent::Type::kRelease:
          note_active(e.time);
          if (trace != nullptr) {
            trace->Write(record(e.time, Kind::kRelease, e.conn));
          }
          break;
        case ScenarioEvent::Type::kLinkRepair:
        case ScenarioEvent::Type::kNodeRepair:
        case ScenarioEvent::Type::kSrlgRepair:
          if (trace != nullptr) trace->Write(fault_record(e));
          break;
        default:  // link, node and SRLG failures
          failure = true;
          on_failure(e, out);
      }
    }
    if (instant && out.changed()) applier.Publish(e.time);

    if (config.after_event) {
      config.after_event(net, e.time,
                         kEventLabels[static_cast<std::size_t>(e.type)],
                         failure ? &out.report : nullptr);
    }
  }
  // Drain trailing samples and any retries scheduled before the horizon.
  advance_to(duration);
  if (!window.started()) window.Set(config.warmup, active_count);
  m.avg_active = window.Average(duration);
  if (config.after_event) {
    config.after_event(net, duration, "final", nullptr);
  }

  DRTP_CHECK(m.admitted + m.blocked == m.requests);
  if (config.check_consistency) net.CheckConsistency();
  if (!inspected && config.inspect_final) config.inspect_final(net);
  return m;
}

}  // namespace drtp::sim
