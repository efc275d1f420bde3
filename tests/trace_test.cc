// Tests for the trace subsystem and for invariants under combined
// connection churn and link failures/repairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "drtp/dlsr.h"
#include "drtp/failure.h"
#include "fault/plan.h"
#include "net/generators.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/paper.h"
#include "sim/trace.h"

namespace drtp::sim {
namespace {

Scenario SmallScenario(const net::Topology& topo, int failures,
                       std::uint64_t seed) {
  TrafficConfig tc = MakePaperTraffic(TrafficPattern::kUniform, 0.4, seed);
  tc.duration = 1200.0;
  tc.lifetime_min = 200.0;
  tc.lifetime_max = 500.0;
  Scenario sc = Scenario::Generate(topo, tc);
  if (failures > 0) {
    InjectLinkFailures(sc, topo, failures, 400.0, 1100.0, 150.0, seed + 5);
  }
  return sc;
}

TEST(Trace, TextSinkRecordsEveryEventKind) {
  const net::Topology topo = MakePaperTopology(3.0, 30);
  const Scenario sc = SmallScenario(topo, 6, 31);
  std::ostringstream os;
  TextTraceSink sink(os);
  ExperimentConfig ec;
  ec.warmup = 400.0;
  ec.sample_interval = 100.0;
  ec.trace = &sink;
  core::Dlsr dlsr;
  const RunMetrics m = RunScenario(topo, sc, dlsr, ec);

  const std::string text = os.str();
  EXPECT_GT(sink.lines_written(), 0);
  EXPECT_NE(text.find(" + conn "), std::string::npos);
  EXPECT_NE(text.find(" - conn "), std::string::npos);
  EXPECT_NE(text.find(" ! link "), std::string::npos);
  EXPECT_NE(text.find(" ~ link "), std::string::npos);
  EXPECT_NE(text.find(" primary "), std::string::npos);
  EXPECT_NE(text.find(" backup "), std::string::npos);
  (void)m;
}

/// Tallies trace records by kind.
class KindCounts : public obs::TraceSink {
 public:
  void Write(const obs::TraceEvent& event) override { ++n[event.kind]; }

  std::map<obs::TraceEventKind, std::int64_t> n;
};

TEST(Trace, CountsMatchMetrics) {
  const net::Topology topo = MakePaperTopology(3.0, 32);
  const Scenario sc = SmallScenario(topo, 4, 33);
  KindCounts counts;
  ExperimentConfig ec;
  ec.warmup = 400.0;
  ec.sample_interval = 100.0;
  ec.trace = &counts;
  core::Dlsr dlsr;
  const RunMetrics m = RunScenario(topo, sc, dlsr, ec);

  using Kind = obs::TraceEventKind;
  EXPECT_EQ(counts.n[Kind::kRequest], m.requests);
  EXPECT_EQ(counts.n[Kind::kAdmit], m.admitted);
  EXPECT_EQ(counts.n[Kind::kBlock], m.blocked);
  EXPECT_EQ(counts.n[Kind::kLinkFail], m.failures_enacted);
  // Every admitted connection either released normally or was dropped by
  // a failure.
  EXPECT_EQ(counts.n[Kind::kRelease] + m.failover_dropped, m.admitted);
  EXPECT_LE(counts.n[Kind::kLinkRepair], counts.n[Kind::kLinkFail]);
}

/// The pinned campaign replay: D-LSR on an SRLG-tagged Waxman graph under
/// link, node, SRLG and burst faults, with the default re-protect retries.
/// Loaded enough to block and to leave connections degraded, so its trace
/// holds every rendered line kind.
void RunCampaign(obs::TraceSink& sink) {
  const net::Topology topo = net::MakeWaxman({.nodes = 20,
                                              .avg_degree = 3.5,
                                              .link_capacity = Mbps(8),
                                              .srlg_groups = 5,
                                              .seed = 13});
  TrafficConfig tc = MakePaperTraffic(TrafficPattern::kUniform, 0.5, 41);
  tc.duration = 300.0;
  tc.lifetime_min = 60.0;
  tc.lifetime_max = 150.0;
  Scenario sc = Scenario::Generate(topo, tc);
  fault::MakeCampaign(topo, {.link_failures = 3,
                             .node_failures = 2,
                             .srlg_failures = 2,
                             .bursts = 1,
                             .burst_size = 3,
                             .t_begin = 100.0,
                             .t_end = 280.0,
                             .mttr = 40.0,
                             .seed = 43})
      .InjectInto(sc);
  ExperimentConfig ec;
  ec.warmup = 80.0;
  ec.sample_interval = 100.0;
  ec.trace = &sink;
  core::Dlsr dlsr;
  RunScenario(topo, sc, dlsr, ec);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compares `actual` with the committed golden tests/testdata/trace/`name`
/// and reports the first differing line. DRTP_UPDATE_GOLDENS=1 rewrites
/// the golden instead.
void ExpectGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(DRTP_TESTDATA_DIR) + "/trace/" + name;
  if (std::getenv("DRTP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << actual;
  }
  const std::string expected = ReadFile(path);
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  if (expected == actual) return;
  std::istringstream want(expected), got(actual);
  std::string w, g;
  for (int line = 1;; ++line) {
    const bool more_w = static_cast<bool>(std::getline(want, w));
    const bool more_g = static_cast<bool>(std::getline(got, g));
    if (!more_w && !more_g) break;
    if (!more_w || !more_g || w != g) {
      ADD_FAILURE() << name << " differs at line " << line << "\n  golden: "
                    << (more_w ? w : "<eof>")
                    << "\n  actual: " << (more_g ? g : "<eof>");
      return;
    }
  }
  ADD_FAILURE() << name << " differs (line endings)";
}

TEST(Trace, CampaignMatchesGoldens) {
  std::ostringstream text;
  TextTraceSink text_sink(text);
  RunCampaign(text_sink);

  // Every rendered line kind occurs, so the golden pins all of them.
  std::set<std::string> kinds;
  std::istringstream lines(text.str());
  std::string t, kind, rest;
  while (lines >> t >> kind && std::getline(lines, rest)) kinds.insert(kind);
  EXPECT_EQ(kinds, (std::set<std::string>{"+", "x", "-", "!", "~", ">", "#",
                                          "b", "=", "N", "n", "S", "s",
                                          "d"}));
  ExpectGolden("campaign.txt", text.str());

  std::ostringstream jsonl;
  obs::JsonlTraceSink jsonl_sink(jsonl);
  RunCampaign(jsonl_sink);
  jsonl_sink.Finish();
  ExpectGolden("campaign.jsonl", jsonl.str());
}

TEST(Trace, DisabledByDefault) {
  const net::Topology topo = MakePaperTopology(3.0, 34);
  const Scenario sc = SmallScenario(topo, 0, 35);
  ExperimentConfig ec;
  ec.warmup = 400.0;
  ec.sample_interval = 100.0;
  core::Dlsr dlsr;
  const RunMetrics m = RunScenario(topo, sc, dlsr, ec);  // must not crash
  EXPECT_GT(m.admitted, 0);
}

/// Property: random interleaving of churn, failures and repairs keeps
/// every DrtpNetwork invariant, and the network drains cleanly.
class ChurnWithFailures : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnWithFailures, InvariantsHold) {
  const std::uint64_t seed = GetParam();
  const net::Topology topo = net::MakeWaxman(net::WaxmanConfig{
      .nodes = 24, .avg_degree = 3.5, .link_capacity = Mbps(6),
      .seed = seed});
  core::DrtpNetwork net(topo);
  lsdb::LinkStateDb db(topo.num_links(), topo.num_links());
  core::Dlsr dlsr;
  Rng rng(seed * 7 + 2);
  std::vector<ConnId> active;
  ConnId next_id = 0;
  int failures = 0;

  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op <= 4) {  // admit
      const NodeId src = static_cast<NodeId>(rng.Index(24));
      NodeId dst = static_cast<NodeId>(rng.Index(24));
      if (src == dst) continue;
      net.PublishTo(db, step);
      const auto sel = dlsr.SelectRoutes(net, db, src, dst, Mbps(1));
      if (sel.primary &&
          net.EstablishConnection(next_id, *sel.primary, Mbps(1), step)) {
        if (sel.backup) net.RegisterBackup(next_id, *sel.backup);
        active.push_back(next_id);
        ++next_id;
      }
    } else if (op <= 6 && !active.empty()) {  // release
      const auto idx = rng.Index(active.size());
      net.ReleaseConnection(active[idx]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 7 && failures < 6) {  // fail a random up link
      std::vector<LinkId> up;
      for (LinkId l = 0; l < topo.num_links(); ++l) {
        if (net.IsLinkUp(l)) up.push_back(l);
      }
      const LinkId victim = up[rng.Index(up.size())];
      const auto report =
          core::ApplyLinkFailure(net, victim, step, &dlsr, &db);
      ++failures;
      // Dropped connections vanish from our active list too.
      for (ConnId id : report.dropped) {
        active.erase(std::remove(active.begin(), active.end(), id),
                     active.end());
      }
    } else if (op >= 8) {  // repair a random down link
      const auto down = net.DownLinks();
      if (!down.empty()) {
        net.SetLinkUp(down[rng.Index(down.size())]);
        --failures;
      }
    }
    if (step % 25 == 0) net.CheckConsistency();
  }
  net.CheckConsistency();
  for (ConnId id : active) net.ReleaseConnection(id);
  EXPECT_EQ(net.ActiveCount(), 0);
  EXPECT_EQ(net.ledger().TotalPrime(), 0);
  EXPECT_EQ(net.ledger().TotalSpare(), 0);
  net.CheckConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnWithFailures,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace drtp::sim
