// Accumulated Primary-route Link Vector (§2.1).
//
// APLV_i[j] is the number of primary channels that traverse link L_j and
// whose backup channels go through link L_i. The L1 norm drives P-LSR
// (Eq. 4), the bit pattern (Conflict Vector) drives D-LSR (Eq. 5), and the
// max element sizes the spare pool (§5: any single link failure activates
// at most max_j APLV_i[j] backups on L_i).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "lsdb/conflict_vector.h"
#include "routing/path.h"

namespace drtp::lsdb {

/// One link's APLV with incrementally maintained L1 norm, maximum and
/// conflict-vector abridgement.
///
/// Storage is hybrid: at paper scale (size() <= kWideLinkThreshold) the
/// counts live in a dense array exactly as before. Wide vectors switch to
/// a sorted struct-of-arrays pair (keys_, cnts_) holding only the nonzero
/// elements — an ISP-scale link crosses a few hundred primaries, not all
/// 30k, so the working set stays cache-resident instead of costing
/// O(links) per instance across O(links) instances. Entries are erased
/// when they hit zero, keeping the sparse form canonical so the defaulted
/// equality below stays semantic.
///
/// The maximum comes from a count-of-counts histogram: hist_[c - 1] is the
/// number of elements equal to c, and hist_.size() == Max() (trailing
/// zero bins are popped). Every element step moves one unit between two
/// adjacent bins, so Max() and num_at_max() stay exact in O(1) per
/// element, whatever the vector's width. The histogram is canonical too,
/// so the defaulted equality still compares only the counts.
class Aplv {
 public:
  Aplv() = default;
  explicit Aplv(int num_links) : num_links_(num_links), cv_(num_links) {
    DRTP_CHECK(num_links >= 0);
    if (!wide()) counts_.assign(static_cast<std::size_t>(num_links), 0);
  }

  int size() const { return num_links_; }

  std::int32_t count(LinkId j) const;

  /// ||APLV||_1 — total number of (primary link, backup) incidences.
  std::int64_t L1() const { return l1_; }

  /// max_j APLV[j] — worst-case simultaneous activations on this link
  /// under a single link failure.
  std::int32_t Max() const { return static_cast<std::int32_t>(hist_.size()); }

  /// How many elements currently equal Max() (0 when Max() is 0);
  /// exposed so tests can cross-check the incremental max tracking.
  std::int32_t num_at_max() const { return hist_.empty() ? 0 : hist_.back(); }

  /// Registers a backup on this link whose primary has the given LSET:
  /// increments every element indexed by the primary's links.
  void AddPrimaryLset(const routing::LinkSet& lset);

  /// Inverse of AddPrimaryLset. The whole LSET is validated (including
  /// repeated-link multiplicity) before any element changes, so a failed
  /// removal throws CheckError with the vector untouched. A sorted,
  /// duplicate-free LSET (every routing::LinkSet) validates in one pass;
  /// a raw list that repeats a link falls back to counting each link's
  /// occurrences.
  void RemovePrimaryLset(const routing::LinkSet& lset);

  /// Bit-vector abridgement (c_{i,j} = 1 iff a_{i,j} > 0), maintained
  /// incrementally with the counts — reading it is free.
  const ConflictVector& conflict_vector() const { return cv_; }

  /// Copy of the abridgement (kept for callers that want ownership).
  ConflictVector ToConflictVector() const { return cv_; }

  /// Σ_{j ∈ lset} a_{i,j} > 0 element count — number of the primary's
  /// links already conflicting here (used by tests/diagnostics).
  int ConflictingLinksIn(const routing::LinkSet& lset) const;

  friend bool operator==(const Aplv&, const Aplv&) = default;

 private:
  bool wide() const { return num_links_ > kWideLinkThreshold; }
  /// Moves one element from count c - 1 to c (Inc) or from c + 1 to c
  /// (Dec) in the histogram.
  void HistInc(std::int32_t c);
  void HistDec(std::int32_t c);

  int num_links_ = 0;
  std::vector<std::int32_t> counts_;  // dense mode only
  std::vector<LinkId> keys_;          // wide mode: sorted nonzero indices
  std::vector<std::int32_t> cnts_;    // wide mode: counts, parallel to keys_
  ConflictVector cv_;
  std::int64_t l1_ = 0;
  /// hist_[c - 1] = number of elements equal to c, for c = 1..Max().
  std::vector<std::int32_t> hist_;
};

}  // namespace drtp::lsdb
