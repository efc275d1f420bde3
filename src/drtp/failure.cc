#include "drtp/failure.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/check.h"
#include "common/error.h"
#include "obs/span.h"

namespace drtp::core {
namespace {

/// The set of links taken down by failing `l` (one, or both halves of the
/// duplex pair under duplex_failures).
std::vector<LinkId> FailedSet(const DrtpNetwork& net, LinkId l) {
  std::vector<LinkId> failed{l};
  if (net.config().duplex_failures) {
    const LinkId rev = net.topology().link(l).reverse;
    if (rev != kInvalidLink) failed.push_back(rev);
  }
  return failed;
}

bool UsesAny(const routing::Path& path, std::span<const LinkId> links) {
  return std::any_of(links.begin(), links.end(),
                     [&](LinkId l) { return path.Contains(l); });
}

/// Reusable scratch for switchover decisions: a what-if ledger of the
/// bandwidth each link can still give activations, invalidated by epoch
/// stamp (no O(num_links) clear between uses), plus a merge buffer for
/// affected connection ids.
struct EvalScratch {
  /// Balance of a failed or down link. No sum of credits lifts it to a
  /// connection's bandwidth, so every backup crossing it is rejected.
  static constexpr Bandwidth kNoCapacity =
      std::numeric_limits<Bandwidth>::min() / 2;

  explicit EvalScratch(int num_links)
      : remaining(static_cast<std::size_t>(num_links), 0),
        stamp(static_cast<std::size_t>(num_links), 0) {}

  /// Starts a fresh ledger in which the `failed` links carry nothing.
  void NewEpoch(std::span<const LinkId> failed) {
    ++epoch;
    for (LinkId l : failed) {
      const auto i = static_cast<std::size_t>(l);
      stamp[i] = epoch;
      remaining[i] = kNoCapacity;
    }
  }

  /// Link `l`'s balance in the current epoch: on first touch, its live
  /// spare+free, or kNoCapacity if it is down.
  Bandwidth& Available(const DrtpNetwork& net, LinkId l) {
    const auto i = static_cast<std::size_t>(l);
    if (stamp[i] != epoch) {
      stamp[i] = epoch;
      remaining[i] = net.IsLinkUp(l)
                         ? net.ledger().spare(l) + net.ledger().free(l)
                         : kNoCapacity;
    }
    return remaining[i];
  }

  std::vector<Bandwidth> remaining;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<ConnId> affected;
};

/// The channel-switching rule: the index of the first backup of `conn`
/// that can be promoted, or conn.backups.size() when none can.
///
/// ActivateBackup releases the old primary and then force-reserves the
/// promoted route from spare+free, so the primary's bandwidth is credited
/// on each of its links first. Each backup is then charged link by link
/// and rejected at the first link short of `conn.bw` (every failed or
/// down link is); a rejected backup's charges are rolled back before the
/// next one is tried. The balance of a link repeated on the backup only
/// falls along the walk, so checking every step is the same as checking
/// spare + free + bw·occurrences(primary) ≥ bw·occurrences(backup) per
/// distinct link. The primary's credit and the chosen backup's charge
/// stay in `scratch`: connections decided later in the same epoch contend
/// with them. O(h_primary + h_backups) per connection.
std::size_t SwitchOver(const DrtpNetwork& net, const DrConnection& conn,
                       EvalScratch& scratch) {
  for (LinkId l : conn.primary.links()) scratch.Available(net, l) += conn.bw;
  for (std::size_t b = 0; b < conn.backups.size(); ++b) {
    const std::span<const LinkId> links = conn.backups[b].links();
    std::size_t charged = 0;
    for (; charged < links.size(); ++charged) {
      Bandwidth& left = scratch.Available(net, links[charged]);
      if (left < conn.bw) break;
      left -= conn.bw;
    }
    if (charged == links.size()) return b;
    for (std::size_t k = 0; k < charged; ++k) {
      scratch.Available(net, links[k]) += conn.bw;
    }
  }
  return conn.backups.size();
}

/// Ascending-id union of the primaries crossing each failed link, built
/// from the network's reverse index into `scratch.affected`. Matches the
/// id-order the full table scan visits affected connections in.
void CollectAffectedPrimaries(const DrtpNetwork& net,
                              std::span<const LinkId> failed_set,
                              std::vector<ConnId>& out) {
  out.clear();
  if (failed_set.size() == 1) {
    const auto conns = net.PrimaryConnsOn(failed_set[0]);
    out.assign(conns.begin(), conns.end());
    return;
  }
  for (LinkId l : failed_set) {
    const auto conns = net.PrimaryConnsOn(l);
    out.insert(out.end(), conns.begin(), conns.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

FailureImpact EvaluateLinkFailureWith(const DrtpNetwork& net,
                                      std::span<const LinkId> failed_set,
                                      EvalScratch& scratch,
                                      FailureImpactDetail* detail = nullptr) {
  // Affected connections in id order; the paper leaves contention order
  // unspecified, id order keeps it deterministic across schemes.
  FailureImpact impact;
  CollectAffectedPrimaries(net, failed_set, scratch.affected);
  if (scratch.affected.empty()) return impact;

  // One what-if ledger for the whole failure: each connection's primary
  // release and chosen activation stay charged while later connections
  // contend, as the enacted switchover proceeds in id order.
  scratch.NewEpoch(failed_set);
  for (ConnId id : scratch.affected) {
    const DrConnection* conn = net.Find(id);
    DRTP_DCHECK(conn != nullptr);
    ++impact.attempts;
    const bool activated =
        SwitchOver(net, *conn, scratch) < conn->backups.size();
    if (activated) ++impact.activated;
    if (detail != nullptr) {
      (activated ? detail->activated : detail->dropped).push_back(id);
    }
  }
  return impact;
}

}  // namespace

FailureImpact EvaluateLinkFailure(const DrtpNetwork& net, LinkId failed) {
  const std::vector<LinkId> failed_set = FailedSet(net, failed);
  EvalScratch scratch(net.topology().num_links());
  return EvaluateLinkFailureWith(net, failed_set, scratch);
}

FailureImpactDetail EvaluateLinkFailureDetailed(const DrtpNetwork& net,
                                                LinkId failed) {
  const std::vector<LinkId> failed_set = FailedSet(net, failed);
  EvalScratch scratch(net.topology().num_links());
  FailureImpactDetail detail;
  detail.impact = EvaluateLinkFailureWith(net, failed_set, scratch, &detail);
  return detail;
}

Ratio EvaluateAllSingleLinkFailures(const DrtpNetwork& net) {
  DRTP_OBS_SPAN("drtp.kernel.failure_sweep");
  Ratio ratio;
  const net::Topology& topo = net.topology();
  EvalScratch scratch(topo.num_links());
  LinkId failed_set[2];
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (!net.IsLinkUp(l)) continue;
    std::size_t n = 1;
    failed_set[0] = l;
    // Under duplex failures, count each physical fiber once.
    if (net.config().duplex_failures) {
      const LinkId rev = topo.link(l).reverse;
      if (rev != kInvalidLink) {
        if (rev < l) continue;
        failed_set[n++] = rev;
      }
    }
    const FailureImpact impact =
        EvaluateLinkFailureWith(net, {failed_set, n}, scratch);
    ratio.AddMany(impact.activated, impact.attempts);
  }
  return ratio;
}

SwitchoverReport ApplyLinkFailure(DrtpNetwork& net, LinkId failed, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db) {
  const LinkId one[1] = {failed};
  return ApplyLinkSetFailure(net, one, now, reroute, db);
}

SwitchoverReport ApplyLinkSetFailure(DrtpNetwork& net,
                                     std::span<const LinkId> links, Time now,
                                     RoutingScheme* reroute,
                                     lsdb::LinkStateDb* db) {
  DRTP_OBS_SPAN("drtp.kernel.apply_failure");
  SwitchoverReport report;
  // Expand duplex reverses and drop members already down: the correlated
  // set is whatever actually transitions up->down at `now`.
  std::vector<LinkId> failed_set;
  failed_set.reserve(links.size() * 2);
  for (LinkId l : links) {
    DRTP_CHECK(l >= 0 && l < net.topology().num_links());
    if (!net.IsLinkUp(l)) continue;
    failed_set.push_back(l);
    if (net.config().duplex_failures) {
      const LinkId rev = net.topology().link(l).reverse;
      if (rev != kInvalidLink && net.IsLinkUp(rev)) failed_set.push_back(rev);
    }
  }
  std::sort(failed_set.begin(), failed_set.end());
  failed_set.erase(std::unique(failed_set.begin(), failed_set.end()),
                   failed_set.end());
  if (failed_set.empty()) return report;
  for (LinkId l : failed_set) net.SetLinkDown(l);
  // Topology-derived caches (BF distance tables) must reflect the failure
  // before any step-4 reroute floods.
  if (reroute != nullptr) reroute->OnTopologyChanged(net);

  // Collect the affected ids first (from the reverse indexes — mutations
  // below invalidate both iteration and the indexes themselves).
  std::vector<ConnId> primary_hit;
  CollectAffectedPrimaries(net, failed_set, primary_hit);
  std::vector<ConnId> backup_hit;
  for (LinkId l : failed_set) {
    const auto conns = net.BackupConnsOn(l);
    backup_hit.insert(backup_hit.end(), conns.begin(), conns.end());
  }
  std::sort(backup_hit.begin(), backup_hit.end());
  backup_hit.erase(std::unique(backup_hit.begin(), backup_hit.end()),
                   backup_hit.end());
  // A connection whose primary is hit is handled by channel switching,
  // not backup release.
  std::erase_if(backup_hit, [&](ConnId id) {
    return std::binary_search(primary_hit.begin(), primary_hit.end(), id);
  });

  // Broken backups are released first (their spare claims must not block
  // activations), per the failure-reporting step. Surviving backups of the
  // same connection stay registered.
  for (ConnId id : backup_hit) {
    const DrConnection* conn = net.Find(id);
    DRTP_CHECK(conn != nullptr);
    for (std::size_t i = conn->backups.size(); i-- > 0;) {
      if (UsesAny(conn->backups[i], failed_set)) net.ReleaseBackupAt(id, i);
    }
    report.backups_lost.push_back(id);
  }

  // Channel switching in id order with the what-if's rule: promote the
  // first backup whose links are all up — the just-failed set plus any
  // link still down from earlier failures — and whose promotion fits.
  // Each connection starts a fresh scratch epoch, because the live ledger
  // already carries the switchovers enacted before it; the failed links
  // are down by now, so the epoch needs none marked.
  EvalScratch scratch(net.topology().num_links());
  for (ConnId id : primary_hit) {
    const DrConnection* conn = net.Find(id);
    DRTP_CHECK(conn != nullptr);
    scratch.NewEpoch({});
    const std::size_t usable = SwitchOver(net, *conn, scratch);
    if (usable == conn->backups.size()) {
      net.ReleaseConnection(id);
      report.dropped.push_back(id);
      continue;
    }
    if (net.ActivateBackup(id, usable, now)) {
      report.recovered.push_back(id);
    } else {
      report.dropped.push_back(id);  // ActivateBackup already cleaned up
    }
  }

  // Step 4, resource reconfiguration: re-protect every connection left
  // without a backup.
  if (reroute != nullptr && db != nullptr) {
    std::vector<ConnId> unprotected;
    for (ConnId id : report.recovered) unprotected.push_back(id);
    for (ConnId id : report.backups_lost) unprotected.push_back(id);
    std::sort(unprotected.begin(), unprotected.end());
    for (ConnId id : unprotected) {
      const DrConnection* conn = net.Find(id);
      if (conn == nullptr || conn->has_backup()) continue;
      net.PublishTo(*db, now);
      auto backup =
          reroute->SelectBackupFor(net, *db, conn->primary, conn->bw);
      // Schemes shun rather than forbid primary links, so under scarcity
      // the cheapest "backup" can be the promoted primary itself. Partial
      // overlap is the usual penalized tradeoff, but a backup covering
      // every primary link protects nothing — degrade instead and let the
      // retry loop re-protect once a real alternative appears.
      if (backup.has_value() &&
          backup->OverlapCount(conn->primary) < conn->primary.hops() &&
          !UsesAny(*backup, net.down_links())) {
        net.RegisterBackup(id, *backup);
        report.rerouted.push_back(id);
      }
    }
  }
  return report;
}

std::vector<LinkId> IncidentLinks(const net::Topology& topo, NodeId node) {
  DRTP_CHECK(node >= 0 && node < topo.num_nodes());
  std::vector<LinkId> incident;
  const net::Node& n = topo.node(node);
  incident.reserve(n.out_links.size() + n.in_links.size());
  incident.insert(incident.end(), n.out_links.begin(), n.out_links.end());
  incident.insert(incident.end(), n.in_links.begin(), n.in_links.end());
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  return incident;
}

SwitchoverReport ApplyNodeFailure(DrtpNetwork& net, NodeId node, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db) {
  return ApplyLinkSetFailure(net, IncidentLinks(net.topology(), node), now,
                             reroute, db);
}

SwitchoverReport ApplySrlgFailure(DrtpNetwork& net, SrlgId srlg, Time now,
                                  RoutingScheme* reroute,
                                  lsdb::LinkStateDb* db) {
  // The group id typically comes straight from a scenario file or an RPC,
  // so an out-of-range value is bad *input*, not a broken invariant —
  // reject it as ParseError here rather than letting LinksInSrlg's
  // DRTP_CHECK fire.
  if (srlg < 0 || srlg >= net.topology().num_srlgs()) {
    throw ParseError("fail-srlg: group " + std::to_string(srlg) +
                     " out of range [0, " +
                     std::to_string(net.topology().num_srlgs()) + ")");
  }
  return ApplyLinkSetFailure(net, net.topology().LinksInSrlg(srlg), now,
                             reroute, db);
}

Ratio EvaluateSrlgSurvival(const DrtpNetwork& net) {
  Ratio r;
  const net::Topology& topo = net.topology();
  if (!topo.has_srlgs()) return r;
  std::vector<SrlgId> primary_groups;
  std::vector<SrlgId> backup_groups;
  for (const auto& [id, conn] : net.connections()) {
    if (!conn.has_backup()) continue;
    primary_groups.clear();
    for (const LinkId l : conn.primary.links()) {
      const SrlgId g = topo.srlg(l);
      if (g != kInvalidSrlg) primary_groups.push_back(g);
    }
    std::sort(primary_groups.begin(), primary_groups.end());
    primary_groups.erase(
        std::unique(primary_groups.begin(), primary_groups.end()),
        primary_groups.end());
    if (primary_groups.empty()) continue;
    backup_groups.clear();
    for (const routing::Path& b : conn.backups) {
      for (const LinkId l : b.links()) {
        const SrlgId g = topo.srlg(l);
        if (g != kInvalidSrlg) backup_groups.push_back(g);
      }
    }
    std::sort(backup_groups.begin(), backup_groups.end());
    for (const SrlgId g : primary_groups) {
      r.Add(!std::binary_search(backup_groups.begin(), backup_groups.end(),
                                g));
    }
  }
  return r;
}

}  // namespace drtp::core
