#include "lsdb/aplv.h"

#include <algorithm>
#include <functional>

namespace drtp::lsdb {

std::int32_t Aplv::count(LinkId j) const {
  DRTP_DCHECK(j >= 0 && j < size());
  if (!wide()) return counts_[static_cast<std::size_t>(j)];
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
  if (it == keys_.end() || *it != j) return 0;
  return cnts_[static_cast<std::size_t>(it - keys_.begin())];
}

void Aplv::HistInc(std::int32_t c) {
  const auto i = static_cast<std::size_t>(c - 1);
  if (i > 0) --hist_[i - 1];
  if (i == hist_.size()) hist_.push_back(0);
  ++hist_[i];
}

void Aplv::HistDec(std::int32_t c) {
  const auto i = static_cast<std::size_t>(c);
  --hist_[i];
  if (i > 0) ++hist_[i - 1];
  // Only the top bin can empty out: its elements moved one bin down, so
  // one pop restores the canonical size Max().
  if (hist_.back() == 0) hist_.pop_back();
}

void Aplv::AddPrimaryLset(const routing::LinkSet& lset) {
  for (LinkId j : lset) {
    DRTP_CHECK(j >= 0 && j < size());
    std::int32_t c;
    if (!wide()) {
      c = ++counts_[static_cast<std::size_t>(j)];
    } else {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      if (it != keys_.end() && *it == j) {
        c = ++cnts_[static_cast<std::size_t>(it - keys_.begin())];
      } else {
        cnts_.insert(cnts_.begin() + (it - keys_.begin()), 1);
        keys_.insert(it, j);
        c = 1;
      }
    }
    ++l1_;
    if (c == 1) cv_.Set(j, true);
    HistInc(c);
  }
}

void Aplv::RemovePrimaryLset(const routing::LinkSet& lset) {
  // Validate the whole LSET before touching anything, so a caller that
  // catches the CheckError (tests, defensive teardown) never keeps a torn
  // vector. A LSET that repeats a link needs that many registered
  // occurrences, not just a nonzero count; a strictly ascending one
  // cannot repeat, so it skips the per-prefix multiplicity count.
  const bool sorted_unique =
      std::adjacent_find(lset.begin(), lset.end(),
                         std::greater_equal<>()) == lset.end();
  for (std::size_t i = 0; i < lset.size(); ++i) {
    const LinkId j = lset[i];
    DRTP_CHECK_MSG(j >= 0 && j < size(),
                   "link " << j << " outside the " << size() << "-link APLV");
    std::int32_t multiplicity = 1;
    if (!sorted_unique) {
      for (std::size_t k = 0; k < i; ++k) {
        if (lset[k] == j) ++multiplicity;
      }
    }
    DRTP_CHECK_MSG(count(j) >= multiplicity,
                   "removing absent primary link " << j);
  }
  for (LinkId j : lset) {
    std::int32_t c;
    if (!wide()) {
      c = --counts_[static_cast<std::size_t>(j)];
    } else {
      const auto it = std::lower_bound(keys_.begin(), keys_.end(), j);
      const auto idx = static_cast<std::size_t>(it - keys_.begin());
      c = --cnts_[idx];
      if (c == 0) {  // keep the sparse form canonical (no zero entries)
        keys_.erase(it);
        cnts_.erase(cnts_.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    --l1_;
    if (c == 0) cv_.Set(j, false);
    HistDec(c);
  }
}

int Aplv::ConflictingLinksIn(const routing::LinkSet& lset) const {
  int n = 0;
  for (LinkId j : lset) {
    if (j >= 0 && j < size() && count(j) > 0) ++n;
  }
  return n;
}

}  // namespace drtp::lsdb
