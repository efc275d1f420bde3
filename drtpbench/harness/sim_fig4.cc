// sim-fig4: the paper's Fig. 4 grid in --fast form (Waxman-60, E in
// {3,4}, UT/NT, the fast lambda set, D-LSR/P-LSR/BF) on the in-process
// runner::SweepEngine with 2 jobs, as bench/fig4_fault_tolerance runs it.
//
// Each run sweeps the canonical grid (seed 1, the committed Fig. 4) and
// then grids seeded from --seed until --seconds of sweeping have passed.
// Throughput is the run's replayed requests per second of sweeping;
// p50/p99 are, per grid, the quantiles over its 36 cells of cell wall
// time per request, averaged over the run's grids. The canonical grid's
// per-cell lines must equal golden/, written from the seed commit.
#include <fstream>
#include <memory>

#include "replay.h"
#include "runner/sink.h"
#include "runner/sweep.h"
#include "tracer.h"
#include "workloads.h"

namespace drtpbench {

namespace runner = drtp::runner;

namespace {

constexpr int kJobs = 2;
constexpr std::size_t kSetups = 15;
constexpr std::uint64_t kCanonicalSeed = 1;

runner::SweepSpec Fig4FastSpec(std::uint64_t base_seed) {
  runner::SweepSpec spec;
  spec.seeds = {base_seed};
  spec.degrees = {3.0, 4.0};
  spec.patterns = {drtp::sim::TrafficPattern::kUniform,
                   drtp::sim::TrafficPattern::kHotspot};
  spec.lambdas = runner::PaperLambdas(true);
  spec.schemes = {"D-LSR", "P-LSR", "BF"};
  spec.fast = true;
  return spec;
}

/// Generates every topology and scenario the grid replays (the sweep's
/// shared-input caches), so the timed sweep is replay only.
void Prewarm(runner::SweepEngine& engine) {
  for (const runner::Cell& c : engine.Cells()) {
    engine.ScenarioFor(c.base_seed, c.degree, c.pattern, c.lambda);
  }
}

/// The deterministic part of a cell's result line: everything but wall_s.
std::string CellLine(runner::CellResult r) {
  r.wall_seconds = 0.0;
  return runner::CellResultToJson(r);
}

struct Grid {
  std::unique_ptr<runner::SweepEngine> engine;
  std::vector<runner::CellResult> results;
  double setup_s = 0.0;
  double sweep_s = 0.0;
};

Grid RunGrid(std::uint64_t base_seed) {
  Grid g;
  double t0 = NowS();
  g.engine = std::make_unique<runner::SweepEngine>(Fig4FastSpec(base_seed));
  Prewarm(*g.engine);
  g.setup_s = NowS() - t0;
  runner::SweepEngine::RunOptions ro;
  ro.jobs = kJobs;
  t0 = NowS();
  g.results = g.engine->Run(ro);
  g.sweep_s = NowS() - t0;
  return g;
}

}  // namespace

int WriteFig4Golden(const std::string& path) {
  const Grid g = RunGrid(kCanonicalSeed);
  std::ofstream os(path, std::ios::trunc);
  for (const runner::CellResult& r : g.results) os << CellLine(r) << "\n";
  return os.good() ? 0 : 1;
}

Result RunSimFig4(const Options& o, const std::string& golden) {
  Result res;
  std::vector<std::string> expected;
  {
    std::ifstream in(golden);
    std::string line;
    while (std::getline(in, line)) expected.push_back(line);
  }
  res.Expect(!expected.empty(), "no golden cell lines in " + golden);

  std::vector<double> setups, grid_p50, grid_p99, cell_ms;
  double sweep_s = 0.0, busy_s = 0.0;
  std::int64_t requests = 0, blocked = 0, cells = 0;
  Grid canonical;
  for (std::uint64_t k = 0; k == 0 || sweep_s < o.seconds; ++k) {
    const std::uint64_t base = k == 0 ? kCanonicalSeed : 1000 * o.seed + k;
    Grid g = RunGrid(base);
    setups.push_back(g.setup_s);
    sweep_s += g.sweep_s;
    std::vector<double> us_per_request;
    for (const runner::CellResult& r : g.results) {
      ++cells;
      requests += r.metrics.requests;
      blocked += r.metrics.blocked;
      busy_s += r.wall_seconds;
      cell_ms.push_back(r.wall_seconds * 1e3);
      us_per_request.push_back(r.wall_seconds * 1e6 /
                               static_cast<double>(r.metrics.requests));
    }
    grid_p50.push_back(Quantile(us_per_request, 0.5));
    grid_p99.push_back(Quantile(us_per_request, 0.99));
    if (k == 0) {
      res.Expect(g.results.size() == expected.size(),
                 "canonical grid has " + std::to_string(g.results.size()) +
                     " cells, golden " + std::to_string(expected.size()));
      for (std::size_t i = 0; i < g.results.size() && i < expected.size();
           ++i) {
        res.Expect(CellLine(g.results[i]) == expected[i],
                   "cell " + std::to_string(i) + " differs from golden");
      }
      canonical = std::move(g);
    }
  }
  // Set-up is timed once per grid; make sure the median has kSetups.
  while (setups.size() < kSetups) {
    const double t0 = NowS();
    runner::SweepEngine e(Fig4FastSpec(kCanonicalSeed));
    Prewarm(e);
    setups.push_back(NowS() - t0);
  }
  res.attempted = requests;
  res.failed = 0;

  if (!o.trace) {
    res.Add("setup_s", "s", Median(setups));
    res.Add("throughput_per_s", "1/s", static_cast<double>(requests) / sweep_s);
    res.Add("p50_us", "us", Mean(grid_p50));
    res.Add("p99_us", "us", Mean(grid_p99));
    res.Add("block_ratio", "ratio",
            static_cast<double>(blocked) / static_cast<double>(requests));
    res.Add("peak_rss_mb", "MiB", SelfPeakRssMb());
    return res;
  }

  // Traced run: replay the canonical grid's cells on a shadow network,
  // each cell untraced and traced back to back, and check both against the
  // sweep. The order alternates per cell, since the second pass runs on
  // caches the first warmed. Just before them the sweep engine runs the
  // same cell once more, alone, as the layer-sum check's reference: timed
  // beside the shadow, it sees the same host speed.
  AddAllLayerMetrics(&res);
  SetLayer(&res, "runner.cells", static_cast<double>(cells));
  SetLayer(&res, "runner.cell_ms", Median(cell_ms));
  SetLayer(&res, "runner.busy_ratio", busy_s / (kJobs * sweep_s));

  Tracer off(false), on(true);
  double wall[2] = {0.0, 0.0};  // untraced, traced
  double sweep_cells_s = 0.0;
  std::int64_t shadow_requests = 0, shadow_admitted = 0;
  for (const runner::CellResult& r : canonical.results) {
    on.SetRequest(static_cast<std::int64_t>(r.cell.index));
    const double t0 = NowS();
    const runner::CellResult again = canonical.engine->RunCell(r.cell);
    sweep_cells_s += NowS() - t0;
    res.Expect(CellLine(again) == CellLine(r),
               "cell " + std::to_string(r.cell.index) + " run alone differs");
    for (int order = 0; order < 2; ++order) {
      const int pass = order ^ static_cast<int>(r.cell.index & 1);
      const double t0 = NowS();
      const ShadowCellMetrics m = ReplaySimCell(
          canonical.engine->TopologyFor(r.cell.base_seed, r.cell.degree),
          canonical.engine->ScenarioFor(r.cell.base_seed, r.cell.degree,
                                        r.cell.pattern, r.cell.lambda),
          r.cell.scheme, r.cell.cell_seed, canonical.engine->Experiment(),
          pass == 0 ? &off : &on);
      wall[pass] += NowS() - t0;
      const drtp::sim::RunMetrics& want = r.metrics;
      res.Expect(m.requests == want.requests && m.admitted == want.admitted &&
                     m.blocked == want.blocked &&
                     m.pbk_hits == want.pbk.hits &&
                     m.pbk_trials == want.pbk.trials,
                 "shadow replay of cell " + std::to_string(r.cell.index) +
                     " differs from the sweep");
      if (pass == 1) {
        shadow_requests += m.requests;
        shadow_admitted += m.admitted;
      }
    }
  }
  on.WriteSpans(o.workdir + "/spans.sim-fig4.jsonl");
  FillTracedLayers(on, sweep_cells_s, wall[1] - wall[0], wall[0], &res);
  SetLayer(&res, "drtp.admit_ratio", static_cast<double>(shadow_admitted) /
                                         static_cast<double>(shadow_requests));
  return res;
}

}  // namespace drtpbench
