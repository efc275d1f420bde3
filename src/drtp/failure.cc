#include "drtp/failure.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

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

/// The channel-switching rule: the index of the first backup that can be
/// promoted, or `backups` when none can. `credit` lists the primary's
/// links and `charge(b)` backup b's links: whole paths when a failure is
/// enacted or a single what-if is answered, only the deciding links in
/// the sweep (see SweepTable).
///
/// ActivateBackup releases the old primary and then force-reserves the
/// promoted route from spare+free, so the primary's bandwidth is credited
/// on each of its links first. Each backup is then charged link by link
/// and rejected at the first link short of `bw` (every failed or down
/// link is); a rejected backup's charges are rolled back before the next
/// one is tried. A backup never repeats a link (its registration would
/// fail), so its links are charged independently and the decision does
/// not depend on the order they are listed in; checking every step is the
/// same as checking spare + free + bw·occurrences(primary) ≥ bw per link.
/// The primary's credit and the chosen backup's charge stay in `scratch`:
/// connections decided later in the same epoch contend with them.
/// O(|credit| + Σ |charge(b)|) per connection.
template <typename ChargeOf>
std::size_t SwitchOver(const DrtpNetwork& net, Bandwidth bw,
                       std::span<const LinkId> credit, std::size_t backups,
                       ChargeOf charge, EvalScratch& scratch) {
  for (LinkId l : credit) scratch.Available(net, l) += bw;
  for (std::size_t b = 0; b < backups; ++b) {
    const std::span<const LinkId> links = charge(b);
    std::size_t charged = 0;
    for (; charged < links.size(); ++charged) {
      Bandwidth& left = scratch.Available(net, links[charged]);
      if (left < bw) break;
      left -= bw;
    }
    if (charged == links.size()) return b;
    for (std::size_t k = 0; k < charged; ++k) {
      scratch.Available(net, links[k]) += bw;
    }
  }
  return backups;
}

/// SwitchOver over `conn`'s whole paths.
std::size_t SwitchOver(const DrtpNetwork& net, const DrConnection& conn,
                       EvalScratch& scratch) {
  return SwitchOver(
      net, conn.bw, conn.primary.links(), conn.backups.size(),
      [&](std::size_t b) { return conn.backups[b].links(); }, scratch);
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

/// The links that can refuse an activation when up to `k` links fail
/// together, ascending: the down ones, and the up ones whose spare + free
/// is below k times their spare target.
///
/// Every other link x can never refuse a charge. Within one failure's
/// epoch, x is charged only by backups of connections whose primary
/// crosses a failed link j, at most once per connection (its backups are
/// link-disjoint), and each such backup counts toward x's demand[j]. So
/// the charges sum to at most Σ_j demand[j] ≤ k · max_j demand[j], the
/// kMultiplexed target; under kDedicated they are bounded by the target
/// itself, the bandwidth of every backup on x. Credits only raise the
/// balance, so each charge meets at least spare + free − (k · target −
/// bw) ≥ bw.
std::vector<LinkId> DecidingLinks(const DrtpNetwork& net, Bandwidth k) {
  const net::Topology& topo = net.topology();
  std::vector<LinkId> deciding;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (!net.IsLinkUp(l) ||
        net.ledger().spare(l) + net.ledger().free(l) <
            k * net.manager(topo.link(l).src).SpareTarget(l)) {
      deciding.push_back(l);
    }
  }
  return deciding;
}

/// Sorts (key, link) pairs into compressed rows: key k's links, in the
/// order the pairs list them, are links[begin[k], begin[k + 1]).
void GroupByKey(std::size_t keys,
                std::span<const std::pair<std::uint32_t, LinkId>> pairs,
                std::vector<std::uint32_t>& begin, std::vector<LinkId>& links) {
  begin.assign(keys + 1, 0);
  for (const auto& [key, l] : pairs) ++begin[key + 1];
  for (std::size_t k = 0; k < keys; ++k) begin[k + 1] += begin[k];
  std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
  links.resize(pairs.size());
  for (const auto& [key, l] : pairs) links[next[key]++] = l;
}

/// One sweep's view of the connection table: per connection, in id
/// order, its bandwidth and the deciding links of its primary and of each
/// backup. Filled from the deciding links' reverse indexes, so building
/// it costs the map walk plus the deciding links' entries, not the
/// paths. Invalidated by any connection mutation.
class SweepTable {
 public:
  SweepTable(const DrtpNetwork& net, std::span<const LinkId> deciding) {
    const std::size_t rows = net.connections().size();
    ids_.reserve(rows);
    conns_.reserve(rows);
    bw_.reserve(rows);
    slot_begin_.reserve(rows + 1);
    slot_begin_.push_back(0);
    for (const auto& [id, conn] : net.connections()) {
      ids_.push_back(id);
      conns_.push_back(&conn);
      bw_.push_back(conn.bw);
      slot_begin_.push_back(slot_begin_.back() +
                            static_cast<std::uint32_t>(conn.backups.size()));
    }

    // Primary and backup lists live in separate arrays: one shared array
    // would let the last backup's range run into the next row's primary.
    std::vector<std::pair<std::uint32_t, LinkId>> pairs;
    for (LinkId d : deciding) {
      std::size_t r = 0;
      for (ConnId id : net.PrimaryConnsOn(d)) {
        r = Row(id, r);
        const routing::Path& primary = conns_[r]->primary;
        // A primary that repeats d reserved, and releases, bw per pass.
        const auto passes =
            primary.links().size() == conns_[r]->primary_lset.size()
                ? 1
                : std::count(primary.links().begin(), primary.links().end(),
                             d);
        pairs.insert(pairs.end(), static_cast<std::size_t>(passes),
                     {static_cast<std::uint32_t>(r), d});
      }
    }
    GroupByKey(rows, pairs, primary_begin_, primary_links_);

    pairs.clear();
    for (LinkId d : deciding) {
      std::size_t r = 0;
      for (ConnId id : net.BackupConnsOn(d)) {
        r = Row(id, r);
        pairs.emplace_back(static_cast<std::uint32_t>(SlotOn(r, d)), d);
      }
    }
    GroupByKey(slot_begin_.back(), pairs, backup_begin_, backup_links_);
  }

  /// Row of connection `id`, searching from row `from` up (ids ascend).
  std::size_t Row(ConnId id, std::size_t from) const {
    const auto it = std::lower_bound(
        ids_.begin() + static_cast<std::ptrdiff_t>(from), ids_.end(), id);
    DRTP_DCHECK(it != ids_.end() && *it == id);
    return static_cast<std::size_t>(it - ids_.begin());
  }

  /// Slot of row r's backup that crosses link `l`. Only a connection with
  /// several backups needs its paths searched.
  std::size_t SlotOn(std::size_t r, LinkId l) const {
    const std::size_t first = slot_begin_[r];
    if (slot_begin_[r + 1] - first == 1) return first;
    const std::vector<routing::Path>& backups = conns_[r]->backups;
    std::size_t b = 0;
    while (b < backups.size() && !backups[b].Contains(l)) ++b;
    DRTP_DCHECK(b < backups.size());
    return first + b;
  }

  Bandwidth bw(std::size_t r) const { return bw_[r]; }
  std::size_t first_slot(std::size_t r) const { return slot_begin_[r]; }
  std::size_t num_backups(std::size_t r) const {
    return slot_begin_[r + 1] - slot_begin_[r];
  }
  std::size_t num_slots() const { return slot_begin_.back(); }
  std::span<const LinkId> primary_links(std::size_t r) const {
    return {primary_links_.data() + primary_begin_[r],
            primary_begin_[r + 1] - primary_begin_[r]};
  }
  std::span<const LinkId> backup_links(std::size_t slot) const {
    return {backup_links_.data() + backup_begin_[slot],
            backup_begin_[slot + 1] - backup_begin_[slot]};
  }

 private:
  std::vector<ConnId> ids_;
  std::vector<const DrConnection*> conns_;
  std::vector<Bandwidth> bw_;
  /// Row r's backups are slots [slot_begin_[r], slot_begin_[r + 1]).
  std::vector<std::uint32_t> slot_begin_;
  std::vector<std::uint32_t> primary_begin_;
  std::vector<LinkId> primary_links_;
  std::vector<std::uint32_t> backup_begin_;
  std::vector<LinkId> backup_links_;
};

/// EvaluateLinkFailureWith over the table's deciding links. A backup that
/// crosses a failed link is charged at that link alone, which refuses it;
/// those are found by merging each failed link's backup index with the
/// affected ids, both ascending.
FailureImpact EvaluateDecidingLinks(const DrtpNetwork& net,
                                    std::span<const LinkId> failed_set,
                                    const SweepTable& table,
                                    EvalScratch& scratch,
                                    std::vector<std::size_t>& rows,
                                    std::vector<std::uint32_t>& refused) {
  FailureImpact impact;
  CollectAffectedPrimaries(net, failed_set, scratch.affected);
  if (scratch.affected.empty()) return impact;

  rows.clear();
  std::size_t r = 0;
  for (ConnId id : scratch.affected) {
    r = table.Row(id, r);
    rows.push_back(r);
  }
  scratch.NewEpoch(failed_set);
  for (LinkId f : failed_set) {
    const std::span<const ConnId> on = net.BackupConnsOn(f);
    std::size_t i = 0;
    for (ConnId id : on) {
      while (i < rows.size() && scratch.affected[i] < id) ++i;
      if (i == rows.size()) break;
      if (scratch.affected[i] == id) {
        refused[table.SlotOn(rows[i], f)] = scratch.epoch;
      }
    }
  }

  const std::span<const LinkId> at_failed_link = failed_set.first(1);
  for (std::size_t row : rows) {
    ++impact.attempts;
    const std::size_t first = table.first_slot(row);
    const std::size_t backups = table.num_backups(row);
    const auto charge = [&](std::size_t b) {
      return refused[first + b] == scratch.epoch ? at_failed_link
                                                 : table.backup_links(first + b);
    };
    if (SwitchOver(net, table.bw(row), table.primary_links(row), backups,
                   charge, scratch) < backups) {
      ++impact.activated;
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

Ratio EvaluateAllSingleLinkFailures(const DrtpNetwork& net,
                                    std::vector<FailureImpact>* per_link) {
  DRTP_OBS_SPAN("drtp.kernel.failure_sweep");
  Ratio ratio;
  const net::Topology& topo = net.topology();
  if (per_link != nullptr) {
    per_link->assign(static_cast<std::size_t>(topo.num_links()), {});
  }
  const bool duplex = net.config().duplex_failures;
  const std::vector<LinkId> deciding = DecidingLinks(net, duplex ? 2 : 1);
  const SweepTable table(net, deciding);
  EvalScratch scratch(topo.num_links());
  std::vector<std::size_t> rows;
  std::vector<std::uint32_t> refused(table.num_slots(), 0);
  LinkId failed_set[2];
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (!net.IsLinkUp(l)) continue;
    std::size_t n = 1;
    failed_set[0] = l;
    // Under duplex failures, count each physical fiber once.
    if (duplex) {
      const LinkId rev = topo.link(l).reverse;
      if (rev != kInvalidLink) {
        if (rev < l) continue;
        failed_set[n++] = rev;
      }
    }
    const std::span<const LinkId> failed{failed_set, n};
    const FailureImpact impact =
        EvaluateDecidingLinks(net, failed, table, scratch, rows, refused);
#ifndef NDEBUG
    // Restricting the walk to deciding links must not change a decision.
    const FailureImpact full = EvaluateLinkFailureWith(net, failed, scratch);
    DRTP_DCHECK(full.attempts == impact.attempts &&
                full.activated == impact.activated);
#endif
    ratio.AddMany(impact.activated, impact.attempts);
    if (per_link != nullptr) (*per_link)[static_cast<std::size_t>(l)] = impact;
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
