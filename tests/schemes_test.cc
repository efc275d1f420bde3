// Tests for P-LSR, D-LSR and the baselines on crafted topologies,
// including the paper's §3.2/Fig. 3 behaviour: D-LSR prefers a longer
// conflict-free backup over a shorter conflicting one.
#include <gtest/gtest.h>

#include "common/check.h"
#include "drtp/baselines.h"
#include "drtp/dlsr.h"
#include "drtp/network.h"
#include "drtp/plsr.h"
#include "routing/dijkstra.h"
#include "sim/paper.h"

#include "net/generators.h"

namespace drtp::core {
namespace {

routing::Path NodePath(const net::Topology& topo,
                       std::vector<NodeId> nodes) {
  auto p = routing::Path::FromNodes(topo, nodes);
  DRTP_CHECK(p.has_value());
  return *p;
}

/// Fixture owning a network + instantly-refreshed LSDB.
class SchemeFixture {
 public:
  explicit SchemeFixture(net::Topology topo)
      : net_(std::move(topo)),
        db_(net_.topology().num_links(), net_.topology().num_links()) {
    Refresh();
  }

  void Refresh() { net_.PublishTo(db_, 0.0); }

  /// Runs scheme selection and, on success, installs the connection.
  RouteSelection Admit(RoutingScheme& scheme, ConnId id, NodeId src,
                       NodeId dst, Bandwidth bw = Mbps(1)) {
    RouteSelection sel = scheme.SelectRoutes(net_, db_, src, dst, bw);
    if (sel.primary.has_value()) {
      DRTP_CHECK(net_.EstablishConnection(id, *sel.primary, bw, 0.0));
      if (scheme.wants_backup() && sel.backup.has_value()) {
        net_.RegisterBackup(id, *sel.backup);
      }
      Refresh();
    }
    return sel;
  }

  DrtpNetwork net_;
  lsdb::LinkStateDb db_;
};

TEST(LsrPrimary, PicksMinHopWithBandwidth) {
  SchemeFixture f(net::MakeGrid(3, 3, Mbps(10)));
  Dlsr dlsr;
  const auto sel = f.Admit(dlsr, 1, 0, 2);
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_EQ(sel.primary->hops(), 2);  // 0-1-2 straight line
}

TEST(LsrPrimary, AvoidsBandwidthShortLinks) {
  SchemeFixture f(net::MakeGrid(3, 3, Mbps(2)));
  Dlsr dlsr;
  // Consume 0->1 entirely.
  ASSERT_TRUE(f.net_.EstablishConnection(
      99, NodePath(f.net_.topology(), {0, 1}), Mbps(2), 0.0));
  f.Refresh();
  const auto sel = dlsr.SelectRoutes(f.net_, f.db_, 0, 2, Mbps(1));
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_FALSE(sel.primary->Contains(f.net_.topology().FindLink(0, 1)));
}

TEST(LsrPrimary, BlockedWhenNoBandwidthAnywhere) {
  SchemeFixture f(net::MakeRing(4, Mbps(1)));
  Plsr plsr;
  // Saturate both directions around the ring out of node 0.
  ASSERT_TRUE(f.net_.EstablishConnection(
      90, NodePath(f.net_.topology(), {0, 1}), Mbps(1), 0.0));
  ASSERT_TRUE(f.net_.EstablishConnection(
      91, NodePath(f.net_.topology(), {0, 3}), Mbps(1), 0.0));
  f.Refresh();
  const auto sel = plsr.SelectRoutes(f.net_, f.db_, 0, 2, Mbps(1));
  EXPECT_FALSE(sel.primary.has_value());
  EXPECT_FALSE(sel.backup.has_value());
}

TEST(LsrBackup, DisjointFromPrimaryWhenPossible) {
  for (const bool deterministic : {false, true}) {
    SchemeFixture f(net::MakeRing(6, Mbps(10)));
    std::unique_ptr<RoutingScheme> scheme;
    if (deterministic) {
      scheme = std::make_unique<Dlsr>();
    } else {
      scheme = std::make_unique<Plsr>();
    }
    const auto sel = f.Admit(*scheme, 1, 0, 2);
    ASSERT_TRUE(sel.primary.has_value());
    ASSERT_TRUE(sel.backup.has_value());
    EXPECT_EQ(sel.primary->hops(), 2);   // 0-1-2
    EXPECT_EQ(sel.backup->hops(), 4);    // 0-5-4-3-2
    EXPECT_TRUE(sel.primary->LinkDisjoint(*sel.backup));
  }
}

TEST(LsrBackup, SharesPrimaryLinkOnlyWhenForced) {
  // Star: every route between two leaves must cross the hub links; the
  // backup necessarily overlaps the primary (penalized, not rejected).
  SchemeFixture f(net::MakeStar(4, Mbps(10)));
  Dlsr dlsr;
  const auto sel = f.Admit(dlsr, 1, 1, 2);
  ASSERT_TRUE(sel.primary.has_value());
  ASSERT_TRUE(sel.backup.has_value());
  EXPECT_EQ(sel.backup->OverlapCount(*sel.primary), 2);
}

/// The Fig. 1/Fig. 3 situation, rebuilt on a parallel-path topology:
/// connections a and c share a primary link; their backups must not share
/// a link even if a conflict-free backup is longer.
TEST(DlsrBehaviour, AvoidsConflictingBackupLikeFigure3) {
  // Topology: s -> m -> t is the shared primary corridor; three relay
  // detours r0,r1,r2 of increasing length connect s to t.
  net::Topology topo;
  const NodeId s = topo.AddNode(0, 0);
  const NodeId m = topo.AddNode(1, 0);
  const NodeId t = topo.AddNode(2, 0);
  const NodeId r0 = topo.AddNode(1, 1);   // short detour
  const NodeId r1 = topo.AddNode(0.7, 2); // long detour, hop 1
  const NodeId r2 = topo.AddNode(1.3, 2); // long detour, hop 2
  topo.AddDuplexLink(s, m, Mbps(10));
  topo.AddDuplexLink(m, t, Mbps(10));
  topo.AddDuplexLink(s, r0, Mbps(10));
  topo.AddDuplexLink(r0, t, Mbps(10));
  topo.AddDuplexLink(s, r1, Mbps(10));
  topo.AddDuplexLink(r1, r2, Mbps(10));
  topo.AddDuplexLink(r2, t, Mbps(10));
  SchemeFixture f(std::move(topo));

  Dlsr dlsr;
  // Connection a: primary s-m-t, backup should take the short detour.
  const auto a = f.Admit(dlsr, 1, s, t);
  ASSERT_TRUE(a.backup.has_value());
  EXPECT_TRUE(a.backup->VisitsNode(r0));

  // Connection c: same primary corridor. Its backup through r0 would
  // conflict with a's backup (both primaries share s->m and m->t), so
  // D-LSR must pay the longer r1-r2 detour.
  const auto c = f.Admit(dlsr, 2, s, t);
  ASSERT_TRUE(c.primary.has_value());
  ASSERT_TRUE(c.backup.has_value());
  EXPECT_EQ(c.primary->hops(), 2);
  EXPECT_TRUE(c.backup->VisitsNode(r1)) << "expected the conflict-free detour";
  EXPECT_EQ(c.backup->hops(), 3);
}

/// P-LSR sees only ||APLV||_1, so in the same situation it also avoids the
/// loaded detour (the L1 norm flags it) — the schemes differ only when the
/// norm cannot distinguish *which* primary links conflict.
TEST(PlsrBehaviour, L1NormSteersAwayFromLoadedLinks) {
  net::Topology topo;
  const NodeId s = topo.AddNode();
  const NodeId m = topo.AddNode();
  const NodeId t = topo.AddNode();
  const NodeId r0 = topo.AddNode();
  const NodeId r1 = topo.AddNode();
  const NodeId r2 = topo.AddNode();
  topo.AddDuplexLink(s, m, Mbps(10));
  topo.AddDuplexLink(m, t, Mbps(10));
  topo.AddDuplexLink(s, r0, Mbps(10));
  topo.AddDuplexLink(r0, t, Mbps(10));
  topo.AddDuplexLink(s, r1, Mbps(10));
  topo.AddDuplexLink(r1, r2, Mbps(10));
  topo.AddDuplexLink(r2, t, Mbps(10));
  SchemeFixture f(std::move(topo));

  Plsr plsr;
  const auto a = f.Admit(plsr, 1, s, t);
  ASSERT_TRUE(a.backup.has_value());
  EXPECT_TRUE(a.backup->VisitsNode(r0));
  const auto c = f.Admit(plsr, 2, s, t);
  ASSERT_TRUE(c.backup.has_value());
  EXPECT_TRUE(c.backup->VisitsNode(r1));
}

/// Where P-LSR and D-LSR genuinely differ (§6.2): a link loaded with
/// backups whose primaries are *elsewhere* repels P-LSR (large L1) but not
/// D-LSR (no CV bit matches the new primary).
TEST(SchemeContrast, DlsrIgnoresIrrelevantConflicts) {
  net::Topology topo;
  const NodeId s = topo.AddNode();
  const NodeId m = topo.AddNode();
  const NodeId t = topo.AddNode();
  const NodeId r0 = topo.AddNode();
  const NodeId r1 = topo.AddNode();
  const NodeId r2 = topo.AddNode();
  const NodeId u = topo.AddNode();  // far-away endpoints for filler conns
  const NodeId v = topo.AddNode();
  topo.AddDuplexLink(s, m, Mbps(10));
  topo.AddDuplexLink(m, t, Mbps(10));
  topo.AddDuplexLink(s, r0, Mbps(10));
  topo.AddDuplexLink(r0, t, Mbps(10));
  topo.AddDuplexLink(s, r1, Mbps(10));
  topo.AddDuplexLink(r1, r2, Mbps(10));
  topo.AddDuplexLink(r2, t, Mbps(10));
  topo.AddDuplexLink(u, s, Mbps(10));
  topo.AddDuplexLink(u, r0, Mbps(10));  // u's backup rides the r0 detour
  topo.AddDuplexLink(t, v, Mbps(10));
  SchemeFixture f(std::move(topo));

  // Filler: a u->v connection whose backup rides the short detour links;
  // its primary is disjoint from the s-m-t corridor, so the APLV mass it
  // deposits on the detour is *irrelevant* to a new s->t connection.
  const auto p_uv = NodePath(f.net_.topology(), {u, s, r1, r2, t, v});
  ASSERT_TRUE(f.net_.EstablishConnection(51, p_uv, Mbps(1), 0.0));
  f.net_.RegisterBackup(51, NodePath(f.net_.topology(), {u, r0, t, v}));
  f.Refresh();

  // New connection s->t, primary s-m-t (disjoint from p_uv? p_uv uses
  // s->r1 and r2->t but not s->m / m->t — disjoint). D-LSR: r0 detour has
  // no conflicting bit -> picks short detour. P-LSR: r0 detour carries L1
  // mass -> flees to... the r1 detour, which p_uv's primary occupies; its
  // links have zero APLV but using them is fine for P-LSR too. The
  // observable contrast: D-LSR takes r0, P-LSR does not.
  Dlsr dlsr;
  const auto d = dlsr.SelectRoutes(f.net_, f.db_, s, t, Mbps(1));
  ASSERT_TRUE(d.backup.has_value());
  EXPECT_TRUE(d.backup->VisitsNode(r0));

  Plsr plsr;
  const auto p = plsr.SelectRoutes(f.net_, f.db_, s, t, Mbps(1));
  ASSERT_TRUE(p.backup.has_value());
  EXPECT_FALSE(p.backup->VisitsNode(r0));
}

TEST(Baselines, NoBackupNeverProtects) {
  SchemeFixture f(net::MakeGrid(3, 3, Mbps(10)));
  NoBackup nb;
  EXPECT_FALSE(nb.wants_backup());
  const auto sel = f.Admit(nb, 1, 0, 8);
  ASSERT_TRUE(sel.primary.has_value());
  EXPECT_FALSE(sel.backup.has_value());
  EXPECT_EQ(f.net_.ledger().TotalSpare(), 0);
}

TEST(Baselines, RandomBackupRespectsDisqualifiers) {
  SchemeFixture f(net::MakeRing(6, Mbps(10)));
  RandomBackup rb(7);
  const auto sel = f.Admit(rb, 1, 0, 3);
  ASSERT_TRUE(sel.primary.has_value());
  ASSERT_TRUE(sel.backup.has_value());
  // Ring: the only disjoint alternative is the other way around.
  EXPECT_TRUE(sel.primary->LinkDisjoint(*sel.backup));
}

TEST(Baselines, ShortestDisjointPrefersShortRoutes) {
  SchemeFixture f(net::MakeGrid(3, 3, Mbps(10)));
  ShortestDisjointBackup sd;
  const auto sel = f.Admit(sd, 1, 0, 2);
  ASSERT_TRUE(sel.backup.has_value());
  EXPECT_TRUE(sel.primary->LinkDisjoint(*sel.backup));
  EXPECT_EQ(sel.backup->hops(), 4);  // 0-3-4-5-2 or 0-1-4-5-2 style detour
}

TEST(SelectBackupFor, ReroutesAfterFailover) {
  SchemeFixture f(net::MakeRing(6, Mbps(10)));
  Dlsr dlsr;
  const auto sel = f.Admit(dlsr, 1, 0, 2);
  ASSERT_TRUE(f.net_.ActivateBackup(1, 1.0));
  f.Refresh();
  const DrConnection* conn = f.net_.Find(1);
  ASSERT_NE(conn, nullptr);
  const auto re = dlsr.SelectBackupFor(f.net_, f.db_, conn->primary, Mbps(1));
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->LinkDisjoint(conn->primary));
  (void)sel;
}

// Schemes are chosen by label (drtpsim, sweeps, the daemon) while
// RunMetrics and trace records carry name(); the two must agree.
TEST(SchemeNames, MatchMakeSchemeLabels) {
  const net::Topology topo = net::MakeGrid(3, 3, Mbps(10));
  for (const std::string label :
       {"D-LSR", "P-LSR", "BF", "NoBackup", "RandomBackup", "SD-Backup",
        "P-LSR-SRLG-SOFT", "P-LSR-SRLG-HARD", "D-LSR-SRLG-SOFT",
        "D-LSR-SRLG-HARD", "SRLG-PAIR"}) {
    EXPECT_EQ(sim::MakeScheme(label, topo, 1)->name(), label);
  }
}

}  // namespace
}  // namespace drtp::core
