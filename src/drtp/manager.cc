#include "drtp/manager.h"

#include <algorithm>

#include "common/check.h"

namespace drtp::core {

Bandwidth DemandVector::at(LinkId j) const {
  DRTP_DCHECK(j >= 0 && j < num_links_);
  if (!wide()) return demand_[static_cast<std::size_t>(j)];
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
  if (it == keys_.end() || *it != j) return 0;
  return vals_[static_cast<std::size_t>(it - keys_.begin())];
}

void DemandVector::ScanBlock(std::size_t b) {
  const auto lo = static_cast<LinkId>(b * kBlock);
  const LinkId hi = std::min(lo + kBlock, num_links_);
  Bandwidth m = 0;
  std::int32_t at_max = 0;
  const auto visit = [&](Bandwidth d) {
    if (d > m) {
      m = d;
      at_max = 1;
    } else if (d == m) {
      ++at_max;
    }
  };
  if (!wide()) {
    for (LinkId j = lo; j < hi; ++j) {
      visit(demand_[static_cast<std::size_t>(j)]);
    }
  } else {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), lo);
    for (; it != keys_.end() && *it < hi; ++it) {
      visit(vals_[static_cast<std::size_t>(it - keys_.begin())]);
    }
  }
  block_max_[b] = m;
  block_at_max_[b] = at_max;
}

void DemandVector::Add(const routing::LinkSet& lset, Bandwidth bw) {
  DRTP_CHECK(bw > 0);
  if (block_max_.empty()) {
    const auto blocks =
        static_cast<std::size_t>((num_links_ + kBlock - 1) / kBlock);
    block_max_.assign(blocks, 0);
    block_at_max_.assign(blocks, 0);
  }
  for (LinkId j : lset) {
    DRTP_CHECK(j >= 0 && j < num_links_);
    Bandwidth d;
    if (!wide()) {
      d = demand_[static_cast<std::size_t>(j)] += bw;
    } else {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      if (it != keys_.end() && *it == j) {
        d = vals_[static_cast<std::size_t>(it - keys_.begin())] += bw;
      } else {
        vals_.insert(vals_.begin() + (it - keys_.begin()), bw);
        keys_.insert(it, j);
        d = bw;
      }
    }
    const auto b = static_cast<std::size_t>(j / kBlock);
    if (d > block_max_[b]) {
      block_max_[b] = d;
      block_at_max_[b] = 1;
    } else if (d == block_max_[b]) {
      ++block_at_max_[b];
    }
    max_ = std::max(max_, d);
  }
}

void DemandVector::Remove(const routing::LinkSet& lset, Bandwidth bw) {
  DRTP_CHECK(bw > 0);
  bool max_dropped = false;
  for (LinkId j : lset) {
    DRTP_CHECK(j >= 0 && j < num_links_);
    Bandwidth before;
    if (!wide()) {
      auto& d = demand_[static_cast<std::size_t>(j)];
      DRTP_CHECK_MSG(d >= bw, "removing more demand than present on " << j);
      before = d;
      d -= bw;
    } else {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      DRTP_CHECK_MSG(it != keys_.end() && *it == j &&
                         vals_[static_cast<std::size_t>(it - keys_.begin())] >=
                             bw,
                     "removing more demand than present on " << j);
      const auto idx = static_cast<std::size_t>(it - keys_.begin());
      before = vals_[idx];
      vals_[idx] -= bw;
      if (vals_[idx] == 0) {  // canonical: no zero entries
        keys_.erase(it);
        vals_.erase(vals_.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    // Only the block's last element at its maximum can lower it.
    const auto b = static_cast<std::size_t>(j / kBlock);
    if (before == block_max_[b] && --block_at_max_[b] == 0) {
      ScanBlock(b);
      if (before == max_) max_dropped = true;
    }
  }
  if (max_dropped) {
    max_ = *std::max_element(block_max_.begin(), block_max_.end());
  }
}

DrConnectionManager::DrConnectionManager(NodeId node,
                                         const net::Topology& topo,
                                         net::BandwidthLedger& ledger,
                                         SpareMode mode)
    : node_(node), topo_(&topo), ledger_(ledger), mode_(mode) {
  DRTP_CHECK(node >= 0 && node < topo.num_nodes());
  const auto out = topo.out_links(node);
  link_ids_.assign(out.begin(), out.end());
  // Built in place: copying one prototype would double the setup cost
  // of the per-link vectors.
  links_.reserve(link_ids_.size());
  for (std::size_t i = 0; i < link_ids_.size(); ++i) {
    links_.push_back(ManagedLink{
        lsdb::Aplv(topo.num_links()), DemandVector(topo.num_links()),
        topo.has_srlgs()
            ? lsdb::SrlgVector(topo.num_srlgs(), topo.num_links())
            : lsdb::SrlgVector(),
        0,
        {}});
  }
}

std::size_t DrConnectionManager::Slot(LinkId link) const {
  const auto it = std::find(link_ids_.begin(), link_ids_.end(), link);
  DRTP_CHECK_MSG(it != link_ids_.end(),
                 "link " << link << " is not an out-link of node " << node_);
  return static_cast<std::size_t>(it - link_ids_.begin());
}

Bandwidth DrConnectionManager::SpareTarget(LinkId link) const {
  const ManagedLink& ml = Owned(link);
  // kMultiplexed sizes for the worst single-link failure (the weighted
  // generalization of §5's max(APLV) × bw rule); kDedicated reserves for
  // every backup at once.
  return mode_ == SpareMode::kMultiplexed ? ml.demand.Max()
                                          : ml.total_backup_bw;
}

bool DrConnectionManager::RegisterBackupHop(LinkId link,
                                            const BackupRegisterPacket& p) {
  DRTP_CHECK(p.conn_id != kInvalidConn);
  DRTP_CHECK(p.bw > 0);
  DRTP_CHECK_MSG(!p.primary_lset.empty(),
                 "backup registered with empty primary LSET");
  ManagedLink& ml = Owned(link);
  DRTP_CHECK_MSG(!ml.backups.contains(p.conn_id),
                 "connection " << p.conn_id << " already has a backup on link "
                               << link);
  ml.backups.emplace(p.conn_id, std::make_pair(p.primary_lset, p.bw));
  ml.aplv.AddPrimaryLset(p.primary_lset);
  if (ml.srlg_aplv.num_srlgs() > 0) {
    ml.srlg_aplv.AddLset(p.primary_lset,
                         [&](LinkId j) { return topo_->srlg(j); });
  }
  ml.demand.Add(p.primary_lset, p.bw);
  ml.total_backup_bw += p.bw;
  return ReconcileSpare(link);
}

void DrConnectionManager::ReleaseBackupHop(LinkId link,
                                           const BackupReleasePacket& p) {
  ManagedLink& ml = Owned(link);
  auto it = ml.backups.find(p.conn_id);
  DRTP_CHECK_MSG(it != ml.backups.end(),
                 "releasing unknown backup " << p.conn_id << " on link "
                                             << link);
  DRTP_CHECK_MSG(it->second.first == p.primary_lset,
                 "release LSET mismatch for connection " << p.conn_id);
  DRTP_CHECK_MSG(it->second.second == p.bw,
                 "release bandwidth mismatch for connection " << p.conn_id);
  ml.aplv.RemovePrimaryLset(p.primary_lset);
  if (ml.srlg_aplv.num_srlgs() > 0) {
    ml.srlg_aplv.RemoveLset(p.primary_lset,
                            [&](LinkId j) { return topo_->srlg(j); });
  }
  ml.demand.Remove(p.primary_lset, p.bw);
  ml.total_backup_bw -= p.bw;
  ml.backups.erase(it);
  ReconcileSpare(link);
}

bool DrConnectionManager::ReconcileSpare(LinkId link) {
  const Bandwidth target = SpareTarget(link);
  const Bandwidth current = ledger_.spare(link);
  if (current < target) {
    ledger_.GrowSpare(link, target - current);
  } else if (current > target) {
    ledger_.ShrinkSpare(link, current - target);
  }
  return ledger_.spare(link) >= target;
}

bool DrConnectionManager::IsOverbooked(LinkId link) const {
  return ledger_.spare(link) < SpareTarget(link);
}

}  // namespace drtp::core
