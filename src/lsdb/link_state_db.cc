#include "lsdb/link_state_db.h"

#include <algorithm>
#include <bit>

namespace drtp::lsdb {

LinkStateDb::LinkStateDb(int num_links, int cv_width)
    : records_(static_cast<std::size_t>(num_links)),
      cv_width_(cv_width),
      wide_(std::max(num_links, cv_width) > kWideLinkThreshold) {
  DRTP_CHECK(num_links >= 0 && cv_width >= 0);
  for (auto& r : records_) r.cv = ConflictVector(cv_width);
  if (wide_) {
    sparse_columns_.resize(static_cast<std::size_t>(cv_width));
  } else {
    row_words_ = static_cast<std::size_t>((num_links + 63) / 64);
    dense_columns_.assign(static_cast<std::size_t>(cv_width) * row_words_, 0);
  }
}

void LinkStateDb::SetConflictVector(LinkId l, const ConflictVector& cv) {
  DRTP_DCHECK(l >= 0 && l < num_links());
  DRTP_DCHECK(cv.size() == cv_width_);
  ConflictVector& row = records_[static_cast<std::size_t>(l)].cv;
  if (!wide_) {
    const std::size_t word = static_cast<std::size_t>(l) / 64;
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<unsigned>(l) % 64);
    row.Assign(cv, [&](LinkId j) {
      dense_columns_[static_cast<std::size_t>(j) * row_words_ + word] ^= bit;
    });
  } else {
    row.Assign(cv, [&](LinkId j) {
      std::vector<LinkId>& column = sparse_columns_[static_cast<std::size_t>(j)];
      const auto it = std::lower_bound(column.begin(), column.end(), l);
      if (it != column.end() && *it == l) {
        column.erase(it);
      } else {
        column.insert(it, l);
      }
    });
  }
}

void LinkStateDb::AddConflictCounts(const routing::LinkSet& lset,
                                    std::span<std::int32_t> counts) const {
  DRTP_DCHECK(counts.size() == records_.size());
  for (LinkId j : lset) {
    DRTP_DCHECK(j >= 0 && j < cv_width_);
    if (wide_) {
      for (LinkId i : sparse_columns_[static_cast<std::size_t>(j)]) {
        ++counts[static_cast<std::size_t>(i)];
      }
      continue;
    }
    // Popcount walk: one increment per set bit of the column.
    const std::uint64_t* column =
        dense_columns_.data() + static_cast<std::size_t>(j) * row_words_;
    for (std::size_t w = 0; w < row_words_; ++w) {
      for (std::uint64_t bits = column[w]; bits != 0; bits &= bits - 1) {
        ++counts[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      }
    }
  }
}

void LinkStateDb::CheckConflictIndex() const {
  std::vector<std::uint64_t> dense(dense_columns_.size(), 0);
  std::vector<std::vector<LinkId>> sparse(sparse_columns_.size());
  for (LinkId i = 0; i < num_links(); ++i) {
    const ConflictVector& cv = record(i).cv;
    DRTP_CHECK_MSG(cv.size() == cv_width_,
                   "link " << i << " advertises a CV of width " << cv.size());
    const std::span<const std::uint64_t> words = cv.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const std::size_t j =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (wide_) {
          sparse[j].push_back(i);  // ascending i keeps columns sorted
        } else {
          dense[j * row_words_ + static_cast<std::size_t>(i) / 64] |=
              std::uint64_t{1} << (static_cast<unsigned>(i) % 64);
        }
      }
    }
  }
  DRTP_CHECK_MSG(wide_ ? sparse == sparse_columns_ : dense == dense_columns_,
                 "conflict index diverged from the advertised CVs");
}

std::int64_t LinkStateDb::AdvertBytesPerCycle(bool with_cv,
                                              bool with_srlg) const {
  std::int64_t total = 0;
  for (const auto& r : records_) {
    total += 4 + 4 + 4;  // link id + two bandwidth fields
    total += with_cv ? r.cv.AdvertBytes() : 8;
    if (with_srlg) total += r.srlg_aplv.AdvertBytes();
  }
  return total;
}

}  // namespace drtp::lsdb
