#include "sim/event_applier.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace drtp::sim {

EventApplier::EventApplier(const net::Topology& topo,
                           core::RoutingScheme& scheme,
                           const ApplierConfig& config)
    : config_(config),
      net_(topo, core::NetworkConfig{.spare_mode = config.spare_mode,
                                     .duplex_failures = false}),
      db_(topo.num_links(), topo.num_links()),
      scheme_(scheme),
      protecting_(scheme.wants_backup() && config.num_backups > 0),
      reroute_(config.num_backups > 0 ? &scheme : nullptr),
      retry_rng_(config.reprotect_seed) {
  DRTP_CHECK(config.num_backups >= 0);
}

EventOutcome EventApplier::Apply(const ScenarioEvent& e) {
  EventOutcome out;
  switch (e.type) {
    case ScenarioEvent::Type::kRequest:
      if (net_.Find(e.conn) != nullptr) break;
      out.admit = core::AdmitConnection(
          scheme_, net_, db_, e.conn, e.src, e.dst, e.bw, e.time,
          core::AdmitOptions{.num_backups = config_.num_backups});
      out.effect = out.admit.admitted ? Effect::kChanged : Effect::kBlocked;
      break;
    case ScenarioEvent::Type::kRelease:
      if (net_.Find(e.conn) == nullptr) break;
      net_.ReleaseConnection(e.conn);
      degraded_pending_.erase(e.conn);
      out.effect = Effect::kChanged;
      break;
    case ScenarioEvent::Type::kLinkFail:
      if (net_.IsLinkUp(e.link)) Fail({&e.link, 1}, e.time, out);
      break;
    case ScenarioEvent::Type::kLinkRepair:
      if (Repair({&e.link, 1})) out.effect = Effect::kChanged;
      break;
    case ScenarioEvent::Type::kNodeFail:
      Fail(node_downed_, e.node, core::IncidentLinks(net_.topology(), e.node),
           e.time, out);
      break;
    case ScenarioEvent::Type::kSrlgFail:
      Fail(srlg_downed_, e.srlg, net_.topology().LinksInSrlg(e.srlg), e.time,
           out);
      break;
    case ScenarioEvent::Type::kNodeRepair:
      if (Repair(node_downed_, e.node)) out.effect = Effect::kChanged;
      break;
    case ScenarioEvent::Type::kSrlgRepair:
      if (Repair(srlg_downed_, e.srlg)) out.effect = Effect::kChanged;
      break;
  }
  return out;
}

void EventApplier::Fail(std::span<const LinkId> links, Time now,
                        EventOutcome& out) {
  out.effect = Effect::kChanged;
  out.report = core::ApplyLinkSetFailure(net_, links, now, reroute_, &db_);
  // ApplyLinkSetFailure refreshed reroute's topology caches before step 4;
  // without a reroute scheme nothing has.
  if (reroute_ == nullptr) scheme_.OnTopologyChanged(net_);
  for (const ConnId id : out.report.dropped) degraded_pending_.erase(id);
  for (const ConnId id : out.report.rerouted) degraded_pending_.erase(id);
  if (!protecting_) return;
  for (const std::vector<ConnId>* ids :
       {&out.report.recovered, &out.report.backups_lost}) {
    for (const ConnId id : *ids) {
      const core::DrConnection* conn = net_.Find(id);
      if (conn == nullptr || conn->has_backup()) continue;
      if (!degraded_pending_.insert(id).second) continue;
      out.degraded.push_back(id);
      if (config_.reprotect_max_retries > 0) ScheduleRetry(id, 1, now);
    }
  }
}

void EventApplier::Fail(Downed& downed, std::int32_t id,
                        std::span<const LinkId> members, Time now,
                        EventOutcome& out) {
  std::vector<LinkId> taking_down;
  for (const LinkId l : members) {
    if (net_.IsLinkUp(l)) taking_down.push_back(l);
  }
  if (taking_down.empty()) return;
  Fail(taking_down, now, out);
  downed[id] = std::move(taking_down);
}

bool EventApplier::Repair(Downed& downed, std::int32_t id) {
  const auto it = downed.find(id);
  if (it == downed.end()) return false;
  const bool any = Repair(it->second);
  downed.erase(it);
  return any;
}

bool EventApplier::Repair(std::span<const LinkId> links) {
  bool any = false;
  for (const LinkId l : links) {
    if (!net_.IsLinkUp(l)) {
      net_.SetLinkUp(l);
      any = true;
    }
  }
  if (any) scheme_.OnTopologyChanged(net_);
  return any;
}

void EventApplier::ScheduleRetry(ConnId id, int attempt, Time from) {
  const double nominal =
      config_.reprotect_backoff * std::ldexp(1.0, attempt - 1);
  retries_.push({.at = from + nominal * retry_rng_.UniformReal(0.5, 1.5),
                 .seq = retry_seq_++,
                 .conn = id,
                 .attempt = attempt});
}

Time EventApplier::NextRetryTime() const {
  return retries_.empty() ? kTimeInfinity : retries_.top().at;
}

RetryOutcome EventApplier::ApplyNextRetry() {
  DRTP_CHECK(!retries_.empty());
  const Retry r = retries_.top();
  retries_.pop();
  RetryOutcome out{.at = r.at, .conn = r.conn};
  const core::DrConnection* conn = net_.Find(r.conn);
  if (conn == nullptr || conn->has_backup()) {
    degraded_pending_.erase(r.conn);
    return out;
  }
  out.attempted = true;
  net_.PublishTo(db_, r.at);
  const auto backup =
      scheme_.SelectBackupFor(net_, db_, conn->primary, conn->bw);
  if (backup.has_value() &&
      backup->OverlapCount(conn->primary) < conn->primary.hops() &&
      std::all_of(backup->links().begin(), backup->links().end(),
                  [&](LinkId l) { return net_.IsLinkUp(l); })) {
    out.overbooked_hops = net_.RegisterBackup(r.conn, *backup);
    out.recovered = true;
    degraded_pending_.erase(r.conn);
  } else if (r.attempt < config_.reprotect_max_retries) {
    ScheduleRetry(r.conn, r.attempt + 1, r.at);
  } else {
    out.exhausted = true;
    degraded_pending_.erase(r.conn);
  }
  return out;
}

}  // namespace drtp::sim
