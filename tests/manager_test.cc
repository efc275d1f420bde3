// Tests for the per-router DR-connection manager: APLV maintenance from
// register/release packets and §5 spare-pool sizing/multiplexing.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "drtp/manager.h"
#include "net/generators.h"

namespace drtp::core {
namespace {

using routing::MakeLinkSet;

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : topo_(net::MakeGrid(3, 3, Mbps(10))),
        ledger_(topo_),
        mgr_(0, topo_, ledger_, SpareMode::kMultiplexed) {
    l01_ = topo_.FindLink(0, 1);
    l03_ = topo_.FindLink(0, 3);
  }

  BackupRegisterPacket Packet(ConnId id, std::vector<LinkId> lset,
                              Bandwidth bw = Mbps(1)) const {
    return BackupRegisterPacket{
        .conn_id = id, .bw = bw, .primary_lset = MakeLinkSet(std::move(lset))};
  }
  BackupReleasePacket Release(ConnId id, std::vector<LinkId> lset,
                              Bandwidth bw = Mbps(1)) const {
    return BackupReleasePacket{
        .conn_id = id, .bw = bw, .primary_lset = MakeLinkSet(std::move(lset))};
  }

  net::Topology topo_;
  net::BandwidthLedger ledger_;
  DrConnectionManager mgr_;
  LinkId l01_ = kInvalidLink;
  LinkId l03_ = kInvalidLink;
};

TEST_F(ManagerTest, RegisterUpdatesAplvAndSpare) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 6})));
  EXPECT_EQ(mgr_.aplv(l01_).count(5), 1);
  EXPECT_EQ(mgr_.aplv(l01_).count(6), 1);
  EXPECT_EQ(mgr_.aplv(l01_).Max(), 1);
  // One backup, no conflicts -> one slot of spare.
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.BackupCount(l01_), 1);
}

TEST_F(ManagerTest, DisjointPrimariesShareOneSlot) {
  // The Fig. 1 story on L8: B1 and B2 multiplex because P1 and P2 are
  // disjoint — spare stays at one slot.
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 6})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(2, {7, 8})));
  EXPECT_EQ(mgr_.aplv(l01_).Max(), 1);
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.BackupCount(l01_), 2);
}

TEST_F(ManagerTest, OverlappingPrimariesNeedMoreSpare) {
  // The Fig. 1 story on L7: P1 and P3 share L13, so both backups can
  // activate at once — two slots required.
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {8, 12, 13})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(3, {11, 13})));
  EXPECT_EQ(mgr_.aplv(l01_).Max(), 2);
  EXPECT_EQ(ledger_.spare(l01_), Mbps(2));
}

TEST_F(ManagerTest, DedicatedModeReservesPerBackup) {
  DrConnectionManager dedicated(0, topo_, ledger_, SpareMode::kDedicated);
  EXPECT_TRUE(dedicated.RegisterBackupHop(l01_, Packet(1, {5, 6})));
  EXPECT_TRUE(dedicated.RegisterBackupHop(l01_, Packet(2, {7, 8})));
  // Disjoint primaries, but dedicated mode still reserves two slots.
  EXPECT_EQ(ledger_.spare(l01_), Mbps(2));
}

TEST_F(ManagerTest, ReleaseShrinksSpareAndRestoresAplv) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {8, 13})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(3, {11, 13})));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(2));
  mgr_.ReleaseBackupHop(l01_, Release(1, {8, 13}));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.aplv(l01_).count(13), 1);
  mgr_.ReleaseBackupHop(l01_, Release(3, {11, 13}));
  EXPECT_EQ(ledger_.spare(l01_), 0);
  EXPECT_EQ(mgr_.aplv(l01_).L1(), 0);
}

TEST_F(ManagerTest, OverbookingAcceptedWhenNoFreeBandwidth) {
  // Fill the link with primary traffic so no spare can be reserved.
  ASSERT_TRUE(ledger_.ReservePrime(l01_, Mbps(10)));
  // §5 choice (2): the backup is still registered, multiplexed over
  // nothing, and reported as overbooked.
  EXPECT_FALSE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_TRUE(mgr_.IsOverbooked(l01_));
  EXPECT_EQ(mgr_.BackupCount(l01_), 1);
  // Free bandwidth reappears; reconcile grows the pool to target.
  ledger_.ReleasePrime(l01_, Mbps(10));
  EXPECT_TRUE(mgr_.ReconcileSpare(l01_));
  EXPECT_FALSE(mgr_.IsOverbooked(l01_));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
}

TEST_F(ManagerTest, PartialGrowthStaysOverbooked) {
  ASSERT_TRUE(ledger_.ReservePrime(l01_, Mbps(9)));  // 1 Mbps free
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 13})));
  // Second conflicting backup needs a second slot; only 0 free remains.
  EXPECT_FALSE(mgr_.RegisterBackupHop(l01_, Packet(2, {6, 13})));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(mgr_.SpareTarget(l01_), Mbps(2));
  EXPECT_TRUE(mgr_.IsOverbooked(l01_));
}

TEST_F(ManagerTest, LinksManagedIndependently) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l03_, Packet(1, {5})));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
  EXPECT_EQ(ledger_.spare(l03_), Mbps(1));
  mgr_.ReleaseBackupHop(l01_, Release(1, {5}));
  EXPECT_EQ(ledger_.spare(l01_), 0);
  EXPECT_EQ(ledger_.spare(l03_), Mbps(1));
}

TEST_F(ManagerTest, RejectsForeignLink) {
  const LinkId l12 = topo_.FindLink(1, 2);
  EXPECT_THROW(mgr_.RegisterBackupHop(l12, Packet(1, {5})), CheckError);
}

TEST_F(ManagerTest, RejectsDuplicateRegistration) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_THROW(mgr_.RegisterBackupHop(l01_, Packet(1, {5})), CheckError);
}

TEST_F(ManagerTest, RejectsMismatchedRelease) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5})));
  EXPECT_THROW(mgr_.ReleaseBackupHop(l01_, Release(1, {6})), CheckError);
  EXPECT_THROW(mgr_.ReleaseBackupHop(l01_, Release(2, {5})), CheckError);
}

TEST_F(ManagerTest, HeterogeneousBandwidthSizesByWeightedDemand) {
  // The paper assumes identical bandwidths (§5); the manager generalizes:
  // the spare target is the worst-case *bandwidth* a single link failure
  // activates, not a slot count.
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5, 13}, Mbps(1))));
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(2, {6, 13}, Mbps(2))));
  // L13's failure would activate both: 1 + 2 Mbps.
  EXPECT_EQ(mgr_.SpareTarget(l01_), Mbps(3));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(3));
  mgr_.ReleaseBackupHop(l01_, Release(2, {6, 13}, Mbps(2)));
  EXPECT_EQ(mgr_.SpareTarget(l01_), Mbps(1));
  EXPECT_EQ(ledger_.spare(l01_), Mbps(1));
}

TEST_F(ManagerTest, ReleaseBandwidthMismatchThrows) {
  EXPECT_TRUE(mgr_.RegisterBackupHop(l01_, Packet(1, {5}, Mbps(1))));
  EXPECT_THROW(mgr_.ReleaseBackupHop(l01_, Release(1, {5}, Mbps(2))),
               CheckError);
}

TEST_F(ManagerTest, RejectsEmptyLset) {
  EXPECT_THROW(mgr_.RegisterBackupHop(l01_, Packet(1, {})), CheckError);
}

// ---- DemandVector unit behaviour ------------------------------------------

TEST(DemandVector, AddRemoveTracksMax) {
  DemandVector d(8);
  d.Add(routing::MakeLinkSet({1, 3}), Mbps(1));
  d.Add(routing::MakeLinkSet({3, 5}), Mbps(2));
  EXPECT_EQ(d.at(1), Mbps(1));
  EXPECT_EQ(d.at(3), Mbps(3));
  EXPECT_EQ(d.at(5), Mbps(2));
  EXPECT_EQ(d.Max(), Mbps(3));
  d.Remove(routing::MakeLinkSet({3, 5}), Mbps(2));
  EXPECT_EQ(d.Max(), Mbps(1));
  d.Remove(routing::MakeLinkSet({1, 3}), Mbps(1));
  EXPECT_EQ(d.Max(), 0);
}

TEST(DemandVector, RemovingTooMuchThrows) {
  DemandVector d(4);
  d.Add(routing::MakeLinkSet({1}), Mbps(1));
  EXPECT_THROW(d.Remove(routing::MakeLinkSet({1}), Mbps(2)), CheckError);
  EXPECT_THROW(d.Remove(routing::MakeLinkSet({2}), Mbps(1)), CheckError);
}

TEST(DemandVector, MatchesAplvUnderUniformBandwidth) {
  // With identical bandwidths the weighted rule reduces to the paper's
  // max(APLV) x bw.
  Rng rng(3);
  DemandVector d(16);
  lsdb::Aplv aplv(16);
  for (int step = 0; step < 200; ++step) {
    std::vector<LinkId> raw;
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < n; ++i)
      raw.push_back(static_cast<LinkId>(rng.Index(16)));
    const auto lset = routing::MakeLinkSet(std::move(raw));
    d.Add(lset, Mbps(1));
    aplv.AddPrimaryLset(lset);
    ASSERT_EQ(d.Max(), static_cast<Bandwidth>(aplv.Max()) * Mbps(1));
  }
}

/// Randomized differential churn for the block-maximum tracking, in the
/// dense layout at hier-1k's width and in the wide layout. Bandwidths are
/// drawn from [1, max_bw] — mixed, or all equal when max_bw is 1, so that
/// block maxima are often tied — removals come in random order, and a
/// third of them take away a LSET through a link that holds the maximum.
/// After every operation the maximum and every element are compared with
/// a recount.
void DemandChurn(int num_links, std::uint64_t seed, Bandwidth max_bw) {
  Rng rng(seed);
  DemandVector d(num_links);
  std::vector<LinkId> hot;
  // Hot links spread over many blocks, plus four sharing one block, so
  // that maxima tie both across and within blocks.
  for (int i = 0; i < 12; ++i) hot.push_back((i * 131 + 5) % num_links);
  for (int i = 0; i < 4; ++i) hot.push_back(70 + 5 * i);
  struct Entry {
    routing::LinkSet lset;
    Bandwidth bw;
  };
  std::vector<Entry> registered;
  std::vector<Bandwidth> expect(static_cast<std::size_t>(num_links), 0);
  const auto expect_max = [&] {
    return *std::max_element(expect.begin(), expect.end());
  };
  for (int step = 0; step < 1200; ++step) {
    if (registered.empty() || rng.Bernoulli(0.55)) {
      std::vector<LinkId> raw;
      const int n = static_cast<int>(rng.UniformInt(1, 24));
      for (int i = 0; i < n; ++i) {
        raw.push_back(rng.Bernoulli(0.5)
                          ? hot[rng.Index(hot.size())]
                          : static_cast<LinkId>(rng.Index(
                                static_cast<std::size_t>(num_links))));
      }
      Entry e{MakeLinkSet(std::move(raw)), rng.UniformInt(1, max_bw)};
      d.Add(e.lset, e.bw);
      for (LinkId j : e.lset) expect[static_cast<std::size_t>(j)] += e.bw;
      registered.push_back(std::move(e));
    } else {
      auto idx = rng.Index(registered.size());
      if (rng.Bernoulli(0.33)) {
        const Bandwidth mx = expect_max();
        for (std::size_t k = 0; k < registered.size(); ++k) {
          bool holds_max = false;
          for (LinkId j : registered[k].lset) {
            holds_max = holds_max || expect[static_cast<std::size_t>(j)] == mx;
          }
          if (holds_max) {
            idx = k;
            break;
          }
        }
      }
      const Entry& e = registered[idx];
      d.Remove(e.lset, e.bw);
      for (LinkId j : e.lset) expect[static_cast<std::size_t>(j)] -= e.bw;
      registered.erase(registered.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(d.Max(), expect_max())
        << num_links << " links, seed " << seed << ", step " << step;
    for (LinkId j = 0; j < num_links; ++j) {
      ASSERT_EQ(d.at(j), expect[static_cast<std::size_t>(j)])
          << num_links << " links, seed " << seed << ", step " << step
          << ", element " << j;
    }
  }
}

TEST(DemandVector, DifferentialChurnDenseAt1kWidth) {
  ASSERT_LE(2126, lsdb::kWideLinkThreshold);
  DemandChurn(2126, 1, 2000);
  DemandChurn(2126, 2, 2000);
  DemandChurn(2126, 4, 1);
  DemandChurn(2126, 5, 2);
}

TEST(DemandVector, DifferentialChurnWide) {
  DemandChurn(lsdb::kWideLinkThreshold + 300, 3, 2000);
  DemandChurn(lsdb::kWideLinkThreshold + 300, 6, 1);
}

}  // namespace
}  // namespace drtp::core
