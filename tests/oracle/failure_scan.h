// Full-scan reference implementations of the single-link failure what-if
// (the pre-index algorithm), for differential tests and the micro suite.
//
// They scan the whole connection table per failed link and decide each
// backup with the literal per-distinct-link fit rule — a promotion fits
// iff, on every distinct backup link l,
//   spare(l) + free(l) + bw · occurrences(primary, l)
//     ≥ bw · occurrences(backup, l)
// against the contention ledger of earlier connections in id order. The
// shipped evaluator in drtp/failure.h decides the same question with a
// linear charge-and-rollback walk; this formula is its independent
// definition, and the two must agree bit for bit.
#pragma once

#include "common/stats.h"
#include "common/types.h"
#include "drtp/failure.h"
#include "drtp/network.h"

namespace drtp::core {

/// EvaluateLinkFailure by full connection-table scan.
FailureImpact EvaluateLinkFailureScan(const DrtpNetwork& net, LinkId failed);

/// EvaluateAllSingleLinkFailures by full connection-table scan per link.
Ratio EvaluateAllSingleLinkFailuresScan(const DrtpNetwork& net);

}  // namespace drtp::core
