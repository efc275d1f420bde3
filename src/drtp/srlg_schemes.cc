#include "drtp/srlg_schemes.h"

#include <utility>

#include "common/check.h"
#include "routing/srlg_disjoint.h"

namespace drtp::core {

SrlgLsr::SrlgLsr(bool deterministic, SrlgMode mode, int backup_hop_slack)
    : deterministic_(deterministic), mode_(mode), slack_(backup_hop_slack) {
  DRTP_CHECK_MSG(mode != SrlgMode::kOff,
                 "SrlgLsr with SrlgMode::kOff is just the base scheme — "
                 "construct Plsr/Dlsr instead");
}

std::string SrlgLsr::name() const {
  std::string n = deterministic_ ? "D-LSR" : "P-LSR";
  n += mode_ == SrlgMode::kHard ? "-SRLG-HARD" : "-SRLG-SOFT";
  return n;
}

RouteSelection SrlgLsr::SelectRoutes(const DrtpNetwork& net,
                                     const lsdb::LinkStateDb& db, NodeId src,
                                     NodeId dst, Bandwidth bw) {
  RouteSelection sel;
  sel.primary = SelectPrimaryMinHop(net.topology(), db, src, dst, bw);
  if (!sel.primary.has_value()) return sel;
  sel.backup = SelectBackupLsr(net.topology(), db, sel.primary->ToLinkSet(),
                               src, dst, bw, deterministic_, {},
                               MaxHops(*sel.primary), mode_);
  return sel;
}

std::optional<routing::Path> SrlgLsr::SelectBackupFor(
    const DrtpNetwork& net, const lsdb::LinkStateDb& db,
    const routing::Path& primary, Bandwidth bw,
    std::span<const routing::Path> avoid) {
  return SelectBackupLsr(net.topology(), db, primary.ToLinkSet(),
                         primary.src(), primary.dst(), bw, deterministic_,
                         avoid, MaxHops(primary), mode_);
}

RouteSelection SrlgPairScheme::SelectRoutes(const DrtpNetwork& net,
                                            const lsdb::LinkStateDb& db,
                                            NodeId src, NodeId dst,
                                            Bandwidth bw) {
  RouteSelection sel;
  const net::Topology& topo = net.topology();
  auto pair = routing::FindSrlgDisjointPair(
      topo, src, dst,
      [&](LinkId l) {
        const lsdb::LinkRecord& rec = db.record(l);
        return rec.up && rec.free_for_primary >= bw ? 1.0
                                                    : routing::kInfiniteCost;
      },
      [&](LinkId l) {
        const lsdb::LinkRecord& rec = db.record(l);
        return rec.up && rec.available_for_backup >= bw
                   ? static_cast<double>(rec.aplv_l1) + kEpsilon
                   : routing::kInfiniteCost;
      });
  if (pair.found()) {
    sel.primary = std::move(pair.active);
    sel.backup = std::move(pair.protection);
    return sel;
  }
  // No jointly routable pair within the candidate budget: degrade to the
  // heuristics' two-step order (min-hop primary, hard-constrained backup
  // — possibly none, flowing into the usual unprotected/retry machinery).
  sel.primary = SelectPrimaryMinHop(topo, db, src, dst, bw);
  if (!sel.primary.has_value()) return sel;
  sel.backup = SelectBackupLsr(topo, db, sel.primary->ToLinkSet(), src, dst,
                               bw, /*deterministic=*/true, {}, /*max_hops=*/0,
                               SrlgMode::kHard);
  return sel;
}

std::optional<routing::Path> SrlgPairScheme::SelectBackupFor(
    const DrtpNetwork& net, const lsdb::LinkStateDb& db,
    const routing::Path& primary, Bandwidth bw,
    std::span<const routing::Path> avoid) {
  // Re-protection keeps the existing primary, so the joint search does
  // not apply — one hard-constrained Dijkstra around it.
  return SelectBackupLsr(net.topology(), db, primary.ToLinkSet(),
                         primary.src(), primary.dst(), bw,
                         /*deterministic=*/true, avoid, /*max_hops=*/0,
                         SrlgMode::kHard);
}

}  // namespace drtp::core
