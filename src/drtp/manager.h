// Per-router DR-connection manager (§2.2, §5).
//
// Each router runs one manager that owns, for every *outgoing* link:
//   - the link's APLV (updated from the primary LSETs carried in
//     backup-path register/release packets),
//   - the backup channel table (which backups traverse the link),
//   - the spare-resource policy: keep spare_bw >= max_j demand[j] — the
//     bandwidth-weighted form of §5's max(APLV) × bw rule — so any single
//     link failure can activate every affected backup; grow the pool from
//     free bandwidth when possible, accept overbooking when not (§5
//     choice (2)), and shrink/return bandwidth as backups or conflicting
//     primaries depart.
//
// No manager ever sees another link's APLV — routing uses the *advertised*
// abridgements (||APLV||_1 or the Conflict Vector) from the link-state
// database, exactly as the paper prescribes for scalability.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "drtp/messages.h"
#include "lsdb/aplv.h"
#include "lsdb/srlg_vector.h"
#include "net/bandwidth_ledger.h"
#include "net/topology.h"

namespace drtp::core {

/// How spare bandwidth is provisioned for backups.
enum class SpareMode {
  /// Paper's scheme: pool sized by max(APLV), shared by multiplexing.
  kMultiplexed,
  /// Ablation X3: one dedicated slot per backup (no sharing).
  kDedicated,
};

/// Bandwidth-weighted companion to the APLV: element j is the backup
/// bandwidth that would activate on this link if link L_j failed. The §5
/// sizing rule generalizes from `max(APLV) × bw` (identical-bandwidth
/// connections, the paper's simplification) to `max_j demand[j]` for
/// heterogeneous bandwidths.
///
/// Same hybrid storage as lsdb::Aplv: dense at paper scale, a sorted
/// nonzero-only struct-of-arrays pair above kWideLinkThreshold links.
///
/// Max() is exact without a full rescan: block_max_ keeps the maximum of
/// each run of kBlock consecutive link ids, and block_at_max_ how many of
/// the block's elements equal it. A removal from a tied maximum only
/// decrements that count; one that takes away the block's last maximum
/// rescans that block only, and the global maximum is re-read from the
/// block maxima only when it dropped, so a removal costs
/// O(|LSET| · kBlock + links / kBlock) at worst instead of O(links).
class DemandVector {
 public:
  DemandVector() = default;
  explicit DemandVector(int num_links) : num_links_(num_links) {
    if (!wide()) demand_.assign(static_cast<std::size_t>(num_links), 0);
  }

  void Add(const routing::LinkSet& lset, Bandwidth bw);
  void Remove(const routing::LinkSet& lset, Bandwidth bw);

  /// Worst-case simultaneous activation bandwidth under a single link
  /// failure.
  Bandwidth Max() const { return max_; }

  Bandwidth at(LinkId j) const;

 private:
  static constexpr int kBlock = 64;

  bool wide() const { return num_links_ > lsdb::kWideLinkThreshold; }
  /// Recomputes block b's maximum over link ids [b·kBlock, (b+1)·kBlock)
  /// and how many elements hold it.
  void ScanBlock(std::size_t b);

  int num_links_ = 0;
  std::vector<Bandwidth> demand_;  // dense mode only
  std::vector<LinkId> keys_;       // wide mode: sorted nonzero indices
  std::vector<Bandwidth> vals_;    // wide mode: demands, parallel to keys_
  /// Per-block maxima; allocated by the first Add, so the many vectors
  /// that never carry a backup (and the auditor's rebuilt ones) stay
  /// cheap to construct.
  std::vector<Bandwidth> block_max_;
  /// Elements equal to block_max_[b] (meaningful while it is nonzero).
  std::vector<std::int32_t> block_at_max_;
  Bandwidth max_ = 0;
};

/// State the manager keeps per owned (outgoing) link.
struct ManagedLink {
  lsdb::Aplv aplv;
  DemandVector demand;
  /// Per-SRLG aggregate of the APLV (element g = Σ_{j ∈ SRLG g} aplv[j]),
  /// maintained alongside it and advertised for the SRLG-aware schemes.
  /// Default (zero groups) on untagged topologies — no extra work there.
  lsdb::SrlgVector srlg_aplv;
  /// Sum of the bandwidths of all backups on the link (dedicated-spare
  /// mode's target).
  Bandwidth total_backup_bw = 0;
  /// Backup channel table: conn id -> (primary LSET, bandwidth) as
  /// registered.
  std::unordered_map<ConnId, std::pair<routing::LinkSet, Bandwidth>> backups;
};

/// One router's DR-connection manager.
class DrConnectionManager {
 public:
  DrConnectionManager(NodeId node, const net::Topology& topo,
                      net::BandwidthLedger& ledger, SpareMode mode);

  NodeId node() const { return node_; }

  /// Handles one hop of a backup-path register packet: updates the APLV
  /// from the primary's LSET, records the backup, and reconciles the spare
  /// pool. `link` must be an outgoing link of this router. Registration
  /// never fails — when the pool cannot grow, the backup is multiplexed
  /// over existing spares (§5 choice (2)) and the hop reports overbooked.
  /// Returns true when the spare pool fully covers the post-registration
  /// target (i.e., not overbooked).
  bool RegisterBackupHop(LinkId link, const BackupRegisterPacket& packet);

  /// Handles one hop of a backup-path release packet (inverse of
  /// RegisterBackupHop); shrinks the spare pool to the new target.
  void ReleaseBackupHop(LinkId link, const BackupReleasePacket& packet);

  /// Re-evaluates the spare pool of `link` against its target; called when
  /// free bandwidth reappears (e.g., a primary on this link terminated,
  /// §5 last paragraph). Returns true when the pool meets the target.
  bool ReconcileSpare(LinkId link);

  /// The spare bandwidth this link *should* hold for its backups.
  Bandwidth SpareTarget(LinkId link) const;

  /// True when the link currently holds less spare than its target.
  bool IsOverbooked(LinkId link) const;

  const lsdb::Aplv& aplv(LinkId link) const { return Owned(link).aplv; }
  const ManagedLink& managed(LinkId link) const { return Owned(link); }

  /// Number of backups registered on the link.
  int BackupCount(LinkId link) const {
    return static_cast<int>(Owned(link).backups.size());
  }

 private:
  /// Position of `link` among this router's out-links (CHECKs ownership).
  std::size_t Slot(LinkId link) const;
  const ManagedLink& Owned(LinkId link) const { return links_[Slot(link)]; }
  ManagedLink& Owned(LinkId link) { return links_[Slot(link)]; }

  NodeId node_;
  /// For SrlgVector maintenance (LinkId -> SrlgId lookups). SRLGs must be
  /// assigned before the manager is built; later AssignSrlg calls would
  /// desynchronize the aggregates.
  const net::Topology* topo_;
  net::BandwidthLedger& ledger_;
  SpareMode mode_;
  /// This router's out-links, and their state at the same positions. A
  /// router has a handful of out-links, so a linear scan finds one faster
  /// than a hash lookup.
  std::vector<LinkId> link_ids_;
  std::vector<ManagedLink> links_;
};

}  // namespace drtp::core
