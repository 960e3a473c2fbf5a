#include <gtest/gtest.h>

#include "mel/gen/generators.hpp"
#include "mel/perf/energy.hpp"
#include "mel/perf/profile.hpp"
#include "mel/perf/report.hpp"

namespace mel::perf {
namespace {

match::RunResult sample_run(match::Model model) {
  const auto g = gen::erdos_renyi(400, 2600, 7);
  match::RunConfig cfg;
  cfg.collect_matrix = true;
  return match::run_match(g, 8, model, cfg);
}

TEST(Energy, ReportIsConsistent) {
  const auto run = sample_run(match::Model::kNsr);
  const auto rep = energy_report(run, net::Params{});
  EXPECT_GT(rep.node_energy_kj, 0.0);
  EXPECT_GT(rep.node_power_kw, 0.0);
  EXPECT_GT(rep.edp, 0.0);
  EXPECT_NEAR(rep.comp_pct + rep.mpi_pct, 100.0, 1e-6);
}

TEST(Energy, LongerRunsCostMoreEnergy) {
  const auto nsr = sample_run(match::Model::kNsr);
  const auto mbp = sample_run(match::Model::kMbp);
  const auto e_nsr = energy_report(nsr, net::Params{});
  const auto e_mbp = energy_report(mbp, net::Params{});
  ASSERT_GT(mbp.time, nsr.time);
  EXPECT_GT(e_mbp.node_energy_kj, e_nsr.node_energy_kj);
  EXPECT_GT(e_mbp.edp, e_nsr.edp);
}

TEST(Memory, ReportPositiveAndBounded) {
  const auto run = sample_run(match::Model::kRma);
  const auto rep = memory_report(run);
  EXPECT_GT(rep.avg_bytes_per_rank, 0.0);
  EXPECT_GE(rep.max_bytes_per_rank, rep.avg_bytes_per_rank);
}

TEST(Profile, ComputesFractions) {
  // Scheme A best on instance 0 and 1; scheme B best on instance 2.
  const std::vector<std::vector<double>> times = {
      {1.0, 2.0, 4.0},  // A
      {2.0, 4.0, 2.0},  // B
  };
  const auto curves =
      performance_profile({"A", "B"}, times, {1.0, 2.0, 100.0});
  ASSERT_EQ(curves.size(), 2u);
  // tau=1: A best on 2/3, B best on 1/3.
  EXPECT_NEAR(curves[0].fractions[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(curves[1].fractions[0], 1.0 / 3.0, 1e-12);
  // tau=2: A within 2x everywhere; B within 2x on all three (2/1? no:
  // instance 0 ratio 2, instance 1 ratio 2, instance 2 ratio 1).
  EXPECT_NEAR(curves[0].fractions[1], 1.0, 1e-12);
  EXPECT_NEAR(curves[1].fractions[1], 1.0, 1e-12);
  // Huge tau: everyone reaches 1.
  EXPECT_NEAR(curves[0].fractions[2], 1.0, 1e-12);
}

TEST(Profile, RejectsRaggedInput) {
  EXPECT_THROW(performance_profile({"A"}, {{1.0}, {2.0}}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(performance_profile({"A", "B"}, {{1.0}, {2.0, 3.0}}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(performance_profile({}, {}, {1.0}), std::invalid_argument);
}

TEST(Profile, TauGrid) {
  const auto taus = tau_grid(2.0, 1.5);
  ASSERT_GE(taus.size(), 2u);
  EXPECT_DOUBLE_EQ(taus[0], 1.0);
  EXPECT_DOUBLE_EQ(taus[1], 1.5);
  EXPECT_THROW(tau_grid(0.5), std::invalid_argument);
  EXPECT_THROW(tau_grid(2.0, 1.0), std::invalid_argument);
}

TEST(Profile, RenderNonEmpty) {
  const auto curves =
      performance_profile({"A", "B"}, {{1.0, 2.0}, {2.0, 1.0}}, {1.0, 2.0});
  const auto text = render_profiles(curves);
  EXPECT_NE(text.find("tau"), std::string::npos);
  EXPECT_NE(text.find("A"), std::string::npos);
}

TEST(Report, MatrixCsvShape) {
  const auto run = sample_run(match::Model::kNsr);
  ASSERT_NE(run.matrix, nullptr);
  const auto csv = matrix_csv(*run.matrix, false);
  // 8 lines of 8 comma-separated values.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 8);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), ','), 8 * 7);
}

TEST(Report, HeatmapAndSummary) {
  const auto run = sample_run(match::Model::kNcl);
  ASSERT_NE(run.matrix, nullptr);
  EXPECT_FALSE(matrix_heatmap(*run.matrix, true).empty());
  const auto s = run_summary(run);
  EXPECT_NE(s.find("NCL"), std::string::npos);
  EXPECT_NE(s.find("p=8"), std::string::npos);
}

}  // namespace
}  // namespace mel::perf
