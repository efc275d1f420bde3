// Equivalence suite for the hot-path rewrites: across randomized
// admit/release/fail/repair sequences,
//   - the incrementally published LinkStateDb must be bit-identical to a
//     record-by-record re-derivation from authoritative state (and a
//     second, interleaved db must be kept correct by the publish-stamp
//     fallback),
//   - the indexed failure evaluators must match the full-scan oracle
//     (tests/oracle/failure_scan.h) exactly, sweep totals and per link,
//     including the P_bk sweep restricted to deciding links under duplex
//     failures, dedicated spares, second backups, down links and scarce
//     capacity,
//   - the link->connection reverse indexes must match brute-force scans,
//   - the LSDB's transposed conflict index must give every link the same
//     Eq. 5 term as its own record's CountIn.
// CheckConsistency() rides along, which also re-validates every APLV
// (including its incrementally kept maximum), every demand vector's
// maximum and the down-link mirror. The CI sanitizer job runs this file under
// ASan/UBSan in a Debug build, where PublishTo additionally self-checks
// its incremental path against a full rewrite and its conflict index
// against a rebuilt one, and the P_bk sweep each failed set's restricted
// result against the full-path walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "drtp/admission.h"
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

/// Share of links the sweep must walk: down, or holding less spare + free
/// than k times their spare target.
double DecidingShare(const DrtpNetwork& net) {
  const net::Topology& topo = net.topology();
  const Bandwidth k = net.config().duplex_failures ? 2 : 1;
  int deciding = 0;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const Bandwidth target = net.manager(topo.link(l).src).SpareTarget(l);
    if (!net.IsLinkUp(l) ||
        net.ledger().spare(l) + net.ledger().free(l) < k * target) {
      ++deciding;
    }
  }
  return static_cast<double>(deciding) / topo.num_links();
}

/// The sweep's totals and every failed set's impact against the
/// full-scan oracle.
void ExpectSweepMatchesScan(const DrtpNetwork& net) {
  const net::Topology& topo = net.topology();
  std::vector<FailureImpact> per_link;
  const Ratio sweep = EvaluateAllSingleLinkFailures(net, &per_link);
  const Ratio scan = EvaluateAllSingleLinkFailuresScan(net);
  EXPECT_EQ(sweep.hits, scan.hits);
  EXPECT_EQ(sweep.trials, scan.trials);
  ASSERT_EQ(per_link.size(), static_cast<std::size_t>(topo.num_links()));
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    // Under duplex failures a fiber is swept once, from its lower id.
    const LinkId rev = topo.link(l).reverse;
    const bool swept = net.IsLinkUp(l) && !(net.config().duplex_failures &&
                                            rev != kInvalidLink && rev < l);
    const FailureImpact expected =
        swept ? EvaluateLinkFailureScan(net, l) : FailureImpact{};
    const FailureImpact& got = per_link[static_cast<std::size_t>(l)];
    EXPECT_EQ(got.attempts, expected.attempts) << "link " << l;
    EXPECT_EQ(got.activated, expected.activated) << "link " << l;
  }
}

/// Sweep totals plus 8 random per-link spot checks; with `every_link`,
/// also every up link, for the single-link what-if and for the sweep,
/// since errors that cancel across links would pass the totals.
void ExpectFailureEvalMatchesScan(const DrtpNetwork& net, Rng& rng,
                                  bool every_link) {
  const auto links = static_cast<std::size_t>(net.topology().num_links());
  for (int i = 0; i < 8; ++i) {
    ExpectLinkFailureMatchesScan(net, static_cast<LinkId>(rng.Index(links)));
  }
  if (!every_link) {
    const Ratio indexed = EvaluateAllSingleLinkFailures(net);
    const Ratio scan = EvaluateAllSingleLinkFailuresScan(net);
    EXPECT_EQ(indexed.hits, scan.hits);
    EXPECT_EQ(indexed.trials, scan.trials);
    return;
  }
  ExpectSweepMatchesScan(net);
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

// ---- the P_bk sweep over deciding links ---------------------------------
// The sweep credits and charges only links that can refuse an activation.
// These cases reach what engine-h1k's stream does not: two failed links
// per sweep entry, dedicated spares, second backups, links already down,
// and networks where many links decide.

struct SweepCase {
  NetworkConfig config;
  int num_backups = 1;
  Bandwidth capacity = Mbps(30);
  int requests = 400;
  std::uint64_t seed = 1;
  /// After loading, fail this many random links for real, then mark as
  /// many more down without switching anything, so backups and primaries
  /// still cross them when the sweep runs.
  int applied_failures = 0;
  int bare_down_links = 0;
  /// Admit every request unprotected, then give each live connection a
  /// D-LSR backup: registrations on links whose free bandwidth is gone
  /// leave their spare pools short of target.
  bool protect_after_load = false;
};

/// Loads a 60-node Waxman network through the shared admission path,
/// comparing the sweep with the oracle every 50 requests and at the end.
/// Returns the deciding share of the final state.
double RunSweepCase(const SweepCase& c) {
  const net::Topology topo = net::MakeWaxman(net::WaxmanConfig{
      .nodes = 60, .avg_degree = 3.5, .link_capacity = c.capacity,
      .seed = c.seed});
  DrtpNetwork net(topo, c.config);
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  Dlsr scheme;
  Rng rng(c.seed * 7 + 3);
  const auto nodes = static_cast<std::size_t>(topo.num_nodes());
  for (ConnId id = 0; id < c.requests; ++id) {
    const NodeId src = static_cast<NodeId>(rng.Index(nodes));
    NodeId dst = static_cast<NodeId>(rng.Index(nodes));
    if (dst == src) dst = (dst + 1) % topo.num_nodes();
    net.PublishTo(db, id);
    (void)AdmitConnection(
        scheme, net, db, id, src, dst, Mbps(1), id,
        AdmitOptions{.num_backups = c.protect_after_load ? 0 : c.num_backups});
    if (id % 50 == 49) ExpectSweepMatchesScan(net);
  }
  if (c.protect_after_load) {
    std::vector<ConnId> live;
    for (const auto& [id, conn] : net.connections()) live.push_back(id);
    for (ConnId id : live) {
      net.PublishTo(db, c.requests);
      const DrConnection& conn = *net.Find(id);
      const auto backup =
          scheme.SelectBackupFor(net, db, conn.primary, conn.bw);
      if (backup.has_value() &&
          backup->OverlapCount(conn.primary) < conn.primary.hops()) {
        net.RegisterBackup(id, *backup);
      }
    }
    ExpectSweepMatchesScan(net);
  }
  const auto links = static_cast<std::size_t>(topo.num_links());
  for (int i = 0; i < c.applied_failures; ++i) {
    const LinkId l = static_cast<LinkId>(rng.Index(links));
    if (!net.IsLinkUp(l)) continue;
    net.PublishTo(db, c.requests + i);
    (void)ApplyLinkFailure(net, l, c.requests + i, &scheme, &db);
    ExpectSweepMatchesScan(net);
  }
  for (int i = 0; i < c.bare_down_links; ++i) {
    net.SetLinkDown(static_cast<LinkId>(rng.Index(links)));
  }
  ExpectSweepMatchesScan(net);
  net.CheckConsistency();
  return DecidingShare(net);
}

TEST(RestrictedSweep, DuplexFailures) {
  RunSweepCase({.config = {.duplex_failures = true}, .capacity = Mbps(12)});
  RunSweepCase({.config = {.duplex_failures = true}, .capacity = Mbps(8),
                .seed = 2, .protect_after_load = true});
}

TEST(RestrictedSweep, DedicatedSpares) {
  RunSweepCase({.config = {.spare_mode = SpareMode::kDedicated},
                .capacity = Mbps(12)});
  RunSweepCase({.config = {.spare_mode = SpareMode::kDedicated,
                           .duplex_failures = true},
                .capacity = Mbps(6), .seed = 3, .protect_after_load = true});
}

TEST(RestrictedSweep, TwoBackups) {
  RunSweepCase({.config = {}, .num_backups = 2, .capacity = Mbps(8),
                .seed = 4});
  RunSweepCase({.config = {.duplex_failures = true}, .num_backups = 2,
                .capacity = Mbps(8), .seed = 4});
}

TEST(RestrictedSweep, LinksDownAtSweepTime) {
  RunSweepCase({.config = {}, .capacity = Mbps(12), .applied_failures = 6,
                .bare_down_links = 6});
  RunSweepCase({.config = {.duplex_failures = true}, .num_backups = 2,
                .seed = 5, .applied_failures = 4, .bare_down_links = 4});
}

TEST(RestrictedSweep, ScarceCapacityManyLinksDecide) {
  // Primaries fill the links first, so backups registered afterwards find
  // no free bandwidth to grow their spare pools from.
  EXPECT_GE(RunSweepCase({.config = {}, .capacity = Mbps(4), .seed = 6,
                          .protect_after_load = true}),
            0.10);
  EXPECT_GE(RunSweepCase({.config = {.duplex_failures = true},
                          .capacity = Mbps(4), .seed = 7,
                          .protect_after_load = true}),
            0.10);
}

TEST(RestrictedSweep, PrimaryThatRepeatsALink) {
  // 0 - 1 - 2
  // |   |   |
  // 3 - 4 - 5
  // Connection 1's primary passes 0->1 twice, so it reserved 2 there and
  // its switchover frees 2. Connection 2's backup then needs all 3 Mbps
  // of 0->1 when the 1<->2 fiber fails: 1 of spare plus both credits.
  const net::Topology topo = net::MakeGrid(2, 3, Mbps(3));
  DrtpNetwork net(topo, NetworkConfig{.duplex_failures = true});
  const auto path = [&](std::vector<NodeId> nodes) {
    auto p = routing::Path::FromNodes(topo, nodes);
    DRTP_CHECK(p.has_value());
    return *p;
  };
  ASSERT_TRUE(net.EstablishConnection(1, path({0, 1, 0, 1, 2}), Mbps(1), 0));
  net.RegisterBackup(1, path({0, 3, 4, 5, 2}));
  ASSERT_TRUE(net.EstablishConnection(2, path({2, 1, 4}), Mbps(3), 0));
  net.RegisterBackup(2, path({2, 5, 4, 3, 0, 1, 4}));
  const FailureImpact fiber = EvaluateLinkFailureScan(net, topo.FindLink(1, 2));
  EXPECT_EQ(fiber.attempts, 2);
  EXPECT_EQ(fiber.activated, 2);
  ExpectSweepMatchesScan(net);
}

}  // namespace
}  // namespace drtp::core
