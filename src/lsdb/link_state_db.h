// Link-state database (§3).
//
// Routers advertise, per outgoing link: available bandwidth plus the
// scheme-specific APLV abridgement — ||APLV||_1 for P-LSR, the Conflict
// Vector for D-LSR. The database is the *routing view*: with the default
// refresh interval of 0 it mirrors authoritative state instantly (the
// paper's simulation assumption); a positive interval models advertisement
// staleness for ablations.
//
// Alongside the records the database keeps the transpose of the
// advertised conflict matrix: column j is the set of links i whose CV has
// bit j. Eq. 5's term Σ_{j ∈ LSET(P)} c_{i,j} is then a sum of |LSET|
// columns, computed for every link at once rather than one CV at a time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "lsdb/conflict_vector.h"
#include "lsdb/srlg_vector.h"
#include "routing/path.h"

namespace drtp::lsdb {

/// One link's advertised state.
struct LinkRecord {
  /// Liveness: routers withdraw failed links from the database; no route
  /// selection may use a withdrawn link.
  bool up = true;
  /// ||APLV||_1 (P-LSR's cost ingredient).
  std::int64_t aplv_l1 = 0;
  /// Conflict vector (D-LSR's cost ingredient).
  ConflictVector cv;
  /// Bandwidth a *backup* may still use: free + spare pool (§3.1:
  /// "the sum of the un-allocated bandwidth and the spare bandwidth
  /// shared by the backup channels").
  Bandwidth available_for_backup = 0;
  /// Bandwidth a *primary* may still reserve: the free pool only.
  Bandwidth free_for_primary = 0;
  /// Per-SRLG APLV aggregate (SRLG-aware schemes' cost ingredient).
  /// Empty (zero groups) on untagged topologies, so SRLG-free runs carry
  /// and compare nothing extra.
  SrlgVector srlg_aplv;

  friend bool operator==(const LinkRecord&, const LinkRecord&) = default;
};

/// Snapshot store of every link's advertisement.
class LinkStateDb {
 public:
  LinkStateDb(int num_links, int cv_width);

  int num_links() const { return static_cast<int>(records_.size()); }

  const LinkRecord& record(LinkId l) const {
    DRTP_DCHECK(l >= 0 && l < num_links());
    return records_[static_cast<std::size_t>(l)];
  }
  /// Writable access for every field but `cv`: conflict vectors are
  /// written through SetConflictVector, which keeps the conflict index in
  /// step (CheckConflictIndex catches a CV written here).
  LinkRecord& record(LinkId l) {
    DRTP_DCHECK(l >= 0 && l < num_links());
    return records_[static_cast<std::size_t>(l)];
  }

  // ---- conflict index -----------------------------------------------------

  /// Overwrites link l's advertised CV with `cv` (same width). One pass
  /// over the words copies them and flips one index bit per changed CV
  /// bit: O(words) plus O(changed bits).
  void SetConflictVector(LinkId l, const ConflictVector& cv);

  /// Adds Σ_{j ∈ lset} c_{i,j} — Eq. 5's conflict term — to counts[i] for
  /// every link i, by summing the lset's columns of the index.
  /// `counts` must hold num_links() entries. Equals
  /// record(i).cv.CountIn(lset) for every i.
  void AddConflictCounts(const routing::LinkSet& lset,
                         std::span<std::int32_t> counts) const;

  /// Rebuilds the index from the records and DRTP_CHECKs that it equals
  /// the maintained one. O(links · words); for self-checks and tests.
  void CheckConflictIndex() const;

  Time last_refresh() const { return last_refresh_; }
  void set_last_refresh(Time t) { last_refresh_ = t; }

  // ---- publish stamp ------------------------------------------------------
  // Identity and sequence number of the last publisher that wrote this
  // database. DrtpNetwork::PublishTo takes its incremental path only when
  // the stamp proves this db received every publication since the last
  // full one; any other writer (a different network, a fresh db, a copy
  // that fell behind) gets a full republish. Opaque to everyone else.

  const void* publisher() const { return publisher_; }
  std::uint64_t publish_seq() const { return publish_seq_; }
  void SetPublishStamp(const void* publisher, std::uint64_t seq) {
    publisher_ = publisher;
    publish_seq_ = seq;
  }

  /// Wire size of one full advertisement cycle (all links), in bytes.
  /// Per link: 4B link id + 4B bandwidth fields x2 + payload
  /// (8B L1 for P-LSR, N/8 B conflict vector for D-LSR); `with_srlg`
  /// additionally counts the per-SRLG aggregate the SRLG-aware variants
  /// read.
  std::int64_t AdvertBytesPerCycle(bool with_cv,
                                   bool with_srlg = false) const;

 private:
  std::vector<LinkRecord> records_;
  int cv_width_ = 0;
  /// The index layout follows the CV's width rule: dense bit columns up
  /// to kWideLinkThreshold links, sorted sparse columns above it.
  bool wide_ = false;
  /// Dense layout: column j is words [j · row_words_, (j+1) · row_words_),
  /// bit i set iff record(i).cv has bit j.
  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> dense_columns_;
  /// Wide layout: column j as the sorted ids of the links i.
  std::vector<std::vector<LinkId>> sparse_columns_;
  Time last_refresh_ = -1.0;
  const void* publisher_ = nullptr;
  std::uint64_t publish_seq_ = 0;
};

}  // namespace drtp::lsdb
