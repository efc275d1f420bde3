// Equivalence suite for the hot-path rewrites: across randomized
// admit/release/fail/repair sequences,
//   - the incrementally published LinkStateDb must be bit-identical to a
//     record-by-record re-derivation from authoritative state (and a
//     second, interleaved db must be kept correct by the publish-stamp
//     fallback),
//   - the indexed failure evaluators must match the full-scan oracle
//     (tests/oracle/failure_scan.h) exactly, sweep totals and per link,
//   - the link->connection reverse indexes must match brute-force scans,
//   - the LSDB's transposed conflict index must give every link the same
//     Eq. 5 term as its own record's CountIn.
// CheckConsistency() rides along, which also re-validates every APLV
// (including its incrementally kept maximum), every demand vector's
// maximum and the down-link mirror. The CI sanitizer job runs this file under
// ASan/UBSan in a Debug build, where PublishTo additionally self-checks
// its incremental path against a full rewrite and its conflict index
// against a rebuilt one.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "drtp/dlsr.h"
#include "drtp/failure.h"
#include "drtp/network.h"
#include "drtp/scheme.h"
#include "lsdb/conflict_vector.h"
#include "net/generators.h"
#include "oracle/failure_scan.h"

namespace drtp::core {
namespace {

/// What WriteRecordTo must have produced for link `l`, re-derived from
/// authoritative state without going through any publish path.
lsdb::LinkRecord ExpectedRecord(const DrtpNetwork& net, LinkId l) {
  lsdb::LinkRecord rec;
  rec.up = net.IsLinkUp(l);
  rec.aplv_l1 = net.aplv(l).L1();
  rec.cv = net.aplv(l).ToConflictVector();
  if (rec.up) {
    rec.available_for_backup = net.ledger().spare(l) + net.ledger().free(l);
    rec.free_for_primary = net.ledger().free(l);
  } else {
    rec.available_for_backup = 0;
    rec.free_for_primary = 0;
  }
  return rec;
}

void ExpectDbMatches(const DrtpNetwork& net, const lsdb::LinkStateDb& db) {
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    ASSERT_EQ(db.record(l), ExpectedRecord(net, l))
        << "published record diverged on link " << l;
  }
}

void ExpectIndexesMatchBruteForce(const DrtpNetwork& net) {
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    std::vector<ConnId> primaries;
    std::vector<ConnId> backups;
    for (const auto& [id, conn] : net.connections()) {
      if (routing::SetContains(conn.primary_lset, l)) primaries.push_back(id);
      for (const routing::Path& backup : conn.backups) {
        if (backup.Contains(l)) {
          backups.push_back(id);
          break;
        }
      }
    }
    EXPECT_EQ(net.ConnsWithPrimaryOn(l), primaries) << "link " << l;
    EXPECT_EQ(net.ConnsWithBackupOn(l), backups) << "link " << l;
  }
}

void ExpectLinkFailureMatchesScan(const DrtpNetwork& net, LinkId l) {
  const FailureImpact a = EvaluateLinkFailure(net, l);
  const FailureImpact b = EvaluateLinkFailureScan(net, l);
  EXPECT_EQ(a.attempts, b.attempts) << "link " << l;
  EXPECT_EQ(a.activated, b.activated) << "link " << l;
}

/// Sweep totals plus 8 random per-link spot checks; with `every_link`,
/// also every up link, since errors that cancel across links would pass
/// the totals.
void ExpectFailureEvalMatchesScan(const DrtpNetwork& net, Rng& rng,
                                  bool every_link) {
  const Ratio indexed = EvaluateAllSingleLinkFailures(net);
  const Ratio scan = EvaluateAllSingleLinkFailuresScan(net);
  EXPECT_EQ(indexed.hits, scan.hits);
  EXPECT_EQ(indexed.trials, scan.trials);
  const auto links = static_cast<std::size_t>(net.topology().num_links());
  for (int i = 0; i < 8; ++i) {
    ExpectLinkFailureMatchesScan(net, static_cast<LinkId>(rng.Index(links)));
  }
  if (!every_link) return;
  for (LinkId l = 0; l < net.topology().num_links(); ++l) {
    if (net.IsLinkUp(l)) ExpectLinkFailureMatchesScan(net, l);
  }
}

/// links() is a span; materialize for gtest equality.
std::vector<LinkId> LinksOf(const routing::Path& p) {
  return {p.links().begin(), p.links().end()};
}

/// At an admit point, the bucket-queue min-hop primary must be exactly
/// the route its retained binary-heap reference picks against the same db.
void ExpectPrimaryKernelsAgree(const net::Topology& topo,
                               const lsdb::LinkStateDb& db, NodeId src,
                               NodeId dst) {
  const auto radix = SelectPrimaryMinHop(topo, db, src, dst, Mbps(1));
  const auto binary =
      detail::SelectPrimaryMinHopBinaryHeap(topo, db, src, dst, Mbps(1));
  ASSERT_EQ(radix.has_value(), binary.has_value()) << src << "->" << dst;
  if (radix.has_value()) {
    ASSERT_EQ(LinksOf(*radix), LinksOf(*binary)) << src << "->" << dst;
  }
}

/// D-LSR scores every candidate link from the db's conflict index. Its
/// Eq. 5 term, the summed LSET columns, must equal the per-link definition
/// record(i).cv.CountIn(lset) for every link, and the whole index must
/// equal one rebuilt from the records.
void ExpectConflictIndexMatches(const lsdb::LinkStateDb& db,
                                const routing::LinkSet& lset) {
  std::vector<std::int32_t> conflict(
      static_cast<std::size_t>(db.num_links()), 0);
  db.AddConflictCounts(lset, conflict);
  for (LinkId i = 0; i < db.num_links(); ++i) {
    ASSERT_EQ(conflict[static_cast<std::size_t>(i)],
              db.record(i).cv.CountIn(lset))
        << "link " << i;
  }
  db.CheckConflictIndex();
}

/// The LSETs the index is checked against after a churn step: a live
/// primary's (the columns D-LSR actually sums) and random links.
routing::LinkSet ProbeLset(const DrtpNetwork& net,
                           const std::vector<ConnId>& live, Rng& rng) {
  std::vector<LinkId> raw;
  if (!live.empty()) {
    const routing::LinkSet& primary =
        net.Find(live[rng.Index(live.size())])->primary_lset;
    raw.assign(primary.begin(), primary.end());
  }
  const auto links = static_cast<std::size_t>(net.topology().num_links());
  for (int i = 0; i < 8; ++i) {
    raw.push_back(static_cast<LinkId>(rng.Index(links)));
  }
  return routing::MakeLinkSet(std::move(raw));
}

void RunRandomizedSequence(const net::Topology& topo, bool duplex,
                           std::uint64_t seed, int ops, int check_every,
                           bool every_link) {
  DrtpNetwork net(topo, NetworkConfig{.duplex_failures = duplex});
  // db is published incrementally after every mutation; db_lagged is
  // published every few ops and must be healed by the stamp fallback
  // (each PublishTo to one db invalidates the other's stamp).
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  lsdb::LinkStateDb db_lagged(topo.num_links(), topo.num_links());
  Dlsr scheme;
  Rng rng(seed);

  net.PublishTo(db, 0.0);
  std::vector<ConnId> live;
  ConnId next_id = 1;
  Time t = 0.0;

  for (int op = 0; op < ops; ++op) {
    t += 1.0;
    const int kind = static_cast<int>(rng.Index(10));
    if (kind < 5) {  // admit
      const auto nodes = static_cast<std::size_t>(topo.num_nodes());
      const NodeId src = static_cast<NodeId>(rng.Index(nodes));
      NodeId dst = static_cast<NodeId>(rng.Index(nodes));
      if (dst == src) dst = (dst + 1) % topo.num_nodes();
      ExpectPrimaryKernelsAgree(topo, db, src, dst);
      const RouteSelection sel = scheme.SelectRoutes(net, db, src, dst,
                                                     Mbps(1));
      if (sel.primary.has_value() &&
          net.EstablishConnection(next_id, *sel.primary, Mbps(1), t)) {
        if (sel.backup.has_value()) net.RegisterBackup(next_id, *sel.backup);
        live.push_back(next_id);
        ++next_id;
      }
    } else if (kind < 7) {  // release
      if (!live.empty()) {
        const std::size_t pick = rng.Index(live.size());
        net.ReleaseConnection(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (kind < 8) {  // fail (with step-4 reroute against db)
      std::vector<LinkId> up;
      for (LinkId l = 0; l < topo.num_links(); ++l) {
        if (net.IsLinkUp(l)) up.push_back(l);
      }
      // Keep a connected-ish network: stop failing below 80% of links.
      if (up.size() * 5 > static_cast<std::size_t>(topo.num_links()) * 4) {
        const LinkId l = up[rng.Index(up.size())];
        const SwitchoverReport report =
            ApplyLinkFailure(net, l, t, &scheme, &db);
        for (ConnId id : report.dropped) {
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
      }
    } else if (kind < 9) {  // repair
      const auto& down = net.down_links();
      if (!down.empty()) {
        net.SetLinkUp(down[rng.Index(down.size())]);
        scheme.OnTopologyChanged(net);
      }
    }
    // else: no mutation — publication of a clean network must also hold.

    net.PublishTo(db, t);
    ExpectDbMatches(net, db);
    ExpectConflictIndexMatches(db, ProbeLset(net, live, rng));
    if (op % 7 == 0) {
      net.PublishTo(db_lagged, t);
      ExpectDbMatches(net, db_lagged);
      ExpectConflictIndexMatches(db_lagged, ProbeLset(net, live, rng));
      // ...and the primary db must survive having lost the latest stamp.
      net.PublishTo(db, t);
      ExpectDbMatches(net, db);
    }
    if (op % check_every == 0) {
      ExpectIndexesMatchBruteForce(net);
      ExpectFailureEvalMatchesScan(net, rng, every_link);
      net.CheckConsistency();
    }
  }
  ExpectIndexesMatchBruteForce(net);
  ExpectFailureEvalMatchesScan(net, rng, every_link);
  net.CheckConsistency();
}

TEST(PerfEquivalence, RandomizedSequenceSimplex) {
  RunRandomizedSequence(net::MakeGrid(5, 5, Mbps(6)), /*duplex=*/false,
                        /*seed=*/11, /*ops=*/300, /*check_every=*/10,
                        /*every_link=*/true);
}

TEST(PerfEquivalence, RandomizedSequenceDuplex) {
  RunRandomizedSequence(net::MakeGrid(5, 5, Mbps(6)), /*duplex=*/true,
                        /*seed=*/23, /*ops=*/300, /*check_every=*/10,
                        /*every_link=*/true);
}

TEST(PerfEquivalence, SecondSeedSimplex) {
  RunRandomizedSequence(net::MakeGrid(5, 5, Mbps(6)), /*duplex=*/false,
                        /*seed=*/47, /*ops=*/300, /*check_every=*/10,
                        /*every_link=*/true);
}

TEST(PerfEquivalence, Waxman60Churn) {
  // The paper's evaluation substrate: 60 nodes, E ~ 3.5.
  RunRandomizedSequence(
      net::MakeWaxman(net::WaxmanConfig{
          .nodes = 60, .avg_degree = 3.5, .link_capacity = Mbps(12),
          .seed = 31}),
      /*duplex=*/true, /*seed=*/61, /*ops=*/200, /*check_every=*/10,
      /*every_link=*/true);
}

TEST(PerfEquivalence, Hierarchical1kChurn) {
  // The 1k bench recipe. Fewer ops and sparser O(links * conns) audits:
  // every publish is still re-derived record-by-record, and every admit
  // still differentially checks the routing kernels.
  RunRandomizedSequence(
      net::MakeHierarchical(net::HierConfig{
          .backbone = 10, .pops_per_backbone = 3, .metro_per_pop = 32,
          .seed = 7}),
      /*duplex=*/true, /*seed=*/71, /*ops=*/60, /*check_every=*/20,
      /*every_link=*/false);
}

TEST(PerfEquivalence, WideLinkStateChurn) {
  // Enough links to push APLV/CV/DemandVector onto the sparse wide-state
  // representations (> lsdb::kWideLinkThreshold), so ExpectDbMatches and
  // CheckConsistency compare wide lazy conflict vectors semantically
  // against freshly derived ones on every op.
  const net::Topology topo = net::MakeHierarchical(net::HierConfig{
      .backbone = 12, .pops_per_backbone = 6, .metro_per_pop = 30,
      .seed = 9});
  ASSERT_GT(topo.num_links(), lsdb::kWideLinkThreshold);
  RunRandomizedSequence(topo, /*duplex=*/true, /*seed=*/83, /*ops=*/40,
                        /*check_every=*/20, /*every_link=*/false);
}

TEST(PerfEquivalence, FreshDbGetsFullRepublish) {
  const net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  DrtpNetwork net(topo);
  lsdb::LinkStateDb warm(topo.num_links(), topo.num_links());
  net.PublishTo(warm, 0.0);

  const auto path = routing::Path::FromNodes(
      topo, std::vector<NodeId>{0, 1, 2});
  ASSERT_TRUE(path.has_value());
  ASSERT_TRUE(net.EstablishConnection(1, *path, Mbps(1), 0.0));
  net.PublishTo(warm, 1.0);

  // A db that never saw any publication must still come out complete.
  lsdb::LinkStateDb fresh(topo.num_links(), topo.num_links());
  net.PublishTo(fresh, 2.0);
  ExpectDbMatches(net, fresh);
  ExpectDbMatches(net, warm);  // warm is one publish behind but untouched
}

TEST(PerfEquivalence, PublishFullToHealsExternalMutation) {
  // The incremental contract: a record mutated behind the network's back
  // is out of contract for PublishTo but must be healed by PublishFullTo.
  const net::Topology topo = net::MakeGrid(3, 3, Mbps(2));
  DrtpNetwork net(topo);
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  net.PublishTo(db, 0.0);
  db.record(0).free_for_primary = Mbps(999);
  net.PublishFullTo(db, 1.0);
  ExpectDbMatches(net, db);
}

}  // namespace
}  // namespace drtp::core
