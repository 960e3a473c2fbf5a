// mellint rule fixtures: one test per rule (R1–R5) asserting exact
// file:line findings against known-good/known-bad snippets, plus
// suppression-mechanics tests. The fixture tree mirrors the repo layout
// (src/app, src/mpi, src/prof) because two rules are dir-scoped: R3 only
// inside the determinism core, R2 allowlists src/prof.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using namespace mel;

std::string fixture_path(const std::string& rel) {
  return std::string(MEL_LINT_FIXTURE_DIR) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Lint a fixture under its repo-like relative path (so dir-scoped rules
/// see "src/mpi/..." etc. exactly as in production).
std::vector<lint::Finding> lint_fixture(const std::string& rel,
                                        const lint::Options& opts = {}) {
  return lint::lint_source(rel, read_file(fixture_path(rel)), opts);
}

/// Compact "rule@line" view for exact-match assertions.
std::vector<std::string> sketch(const std::vector<lint::Finding>& fs) {
  std::vector<std::string> out;
  for (const auto& f : fs) {
    out.push_back(f.rule + "@" + std::to_string(f.line));
  }
  return out;
}

TEST(MellintRules, R1UnorderedContainerExactLines) {
  const auto fs = lint_fixture("src/app/r1_unordered.cpp");
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "unordered-container@10",
                            "unordered-container@18",
                        }));
  for (const auto& f : fs) EXPECT_EQ(f.file, "src/app/r1_unordered.cpp");
}

TEST(MellintRules, R1ReplayFlowMapExactLines) {
  // The hazard this PR's loader must avoid: an unordered map over flow
  // ids whose iteration order feeds the (order-sensitive) anchor DAG.
  const auto fs = lint_fixture("src/obs/r1_replay.cpp");
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "unordered-container@18",
                        }));
  for (const auto& f : fs) EXPECT_EQ(f.file, "src/obs/r1_replay.cpp");
}

TEST(MellintRules, R2WallclockExactLines) {
  const auto fs = lint_fixture("src/app/r2_wallclock.cpp");
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "wallclock@18",
                            "wallclock@20",
                            "wallclock@24",
                            "wallclock@25",
                        }));
}

TEST(MellintRules, R2ProfAllowlistIsClean) {
  EXPECT_TRUE(lint_fixture("src/prof/host_timer.cpp").empty());
}

TEST(MellintRules, R3MutableStaticInCoreExactLines) {
  const auto fs = lint_fixture("src/mpi/r3_static.cpp");
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "mutable-static@10",
                            "mutable-static@12",
                            "mutable-static@21",
                            "mutable-static@27",
                        }));
}

TEST(MellintRules, R3ShardedRunLoopStateExactLines) {
  const auto fs = lint_fixture("src/mpi/r3_sharded.cpp");
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "mutable-static@15",
                            "mutable-static@16",
                            "mutable-static@18",
                            "mutable-static@21",
                            "mutable-static@26",
                        }));
}

TEST(MellintRules, R3ShardedHazardsOutsideCoreAreR5MinusAtomics) {
  // Outside the determinism core the same hazards report global-cache,
  // except atomics: race-free state needs no justification there.
  const std::string src = read_file(fixture_path("src/mpi/r3_sharded.cpp"));
  const auto fs = lint::lint_source("src/app/copy_sharded.cpp", src, {});
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "global-cache@16",
                            "global-cache@18",
                            "global-cache@21",
                            "global-cache@26",
                        }));
}

TEST(MellintRules, R3SameHazardsOutsideCoreAreR5) {
  // The identical source under a non-core path reports global-cache.
  const std::string src = read_file(fixture_path("src/mpi/r3_static.cpp"));
  const auto fs = lint::lint_source("src/app/copy.cpp", src, {});
  ASSERT_EQ(fs.size(), 4u);
  for (const auto& f : fs) EXPECT_EQ(f.rule, "global-cache");
}

TEST(MellintRules, R4PointerOrderExactLines) {
  const auto fs = lint_fixture("src/app/r4_pointer.cpp");
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "pointer-order@15",
                            "pointer-order@18",
                            "pointer-order@22",
                        }));
}

TEST(MellintRules, R5GlobalCacheAndSuppressionMechanics) {
  const auto fs = lint_fixture("src/app/r5_cache.cpp");
  // Justified suppressions (lines 11-13 standalone, line 15 inline) hide
  // their findings; a reasonless or unknown-rule allow() suppresses
  // nothing and is itself reported.
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "global-cache@9",
                            "bad-suppression@17",
                            "global-cache@18",
                            "bad-suppression@20",
                            "global-cache@21",
                        }));
}

TEST(MellintRules, GoodFileIsClean) {
  EXPECT_TRUE(lint_fixture("src/app/good.cpp").empty());
}

TEST(MellintRules, RuleFilterRunsOnlySelectedRules) {
  lint::Options opts;
  opts.rules = {std::string("wallclock")};
  EXPECT_TRUE(lint_fixture("src/app/r1_unordered.cpp", opts).empty());
  EXPECT_EQ(lint_fixture("src/app/r2_wallclock.cpp", opts).size(), 4u);
}

TEST(MellintRules, RuleAliases) {
  EXPECT_EQ(lint::canonical_rule("R1"), "unordered-container");
  EXPECT_EQ(lint::canonical_rule("r2"), "wallclock");
  EXPECT_EQ(lint::canonical_rule("R3"), "mutable-static");
  EXPECT_EQ(lint::canonical_rule("r4"), "pointer-order");
  EXPECT_EQ(lint::canonical_rule("R5"), "global-cache");
  EXPECT_EQ(lint::canonical_rule("wallclock"), "wallclock");
  EXPECT_EQ(lint::canonical_rule("no-such-rule"), "");
}

// -- Tokenizer / scope-tracker edge cases via inline snippets ---------------

TEST(MellintTokenizer, HazardsInsideCommentsAndStringsNeverFire) {
  const char* src =
      "// std::unordered_map<int,int> m; std::rand();\n"
      "/* static int g = 0; random_device rd; */\n"
      "const char* s = \"std::unordered_set<int> time( system_clock\";\n"
      "const char* r = R\"(static int g_raw = 0; steady_clock)\";\n";
  EXPECT_TRUE(lint::lint_source("src/app/x.cpp", src, {}).empty());
}

TEST(MellintTokenizer, BlockCommentLineCountingStaysExact) {
  const char* src =
      "/* a\n"
      "   multi\n"
      "   line comment */\n"
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> g_map;\n";
  const auto fs = lint::lint_source("src/app/x.cpp", src, {});
  // Line 5 carries both the R1 hit and the mutable global.
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{
                            "global-cache@5",
                            "unordered-container@5",
                        }));
}

TEST(MellintTokenizer, StaticFunctionDeclarationsDoNotFire) {
  const char* src =
      "struct S {\n"
      "  static S& instance();\n"
      "  static int get() { return 0; }\n"
      "};\n"
      "static int helper(int x) { return x; }\n";
  EXPECT_TRUE(lint::lint_source("src/app/x.cpp", src, {}).empty());
}

TEST(MellintTokenizer, BraceInitializedStaticFires) {
  const char* src = "void f() { static std::vector<int> v{1, 2}; }\n";
  const auto fs = lint::lint_source("src/app/x.cpp", src, {});
  EXPECT_EQ(sketch(fs), (std::vector<std::string>{"global-cache@1"}));
}

// -- File collection and report output --------------------------------------

TEST(MellintFiles, CollectsSortedLintableSources) {
  std::vector<std::string> errors;
  const auto files =
      lint::collect_files({std::string(MEL_LINT_FIXTURE_DIR)}, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(files.size(), 9u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  for (const auto& f : files) {
    EXPECT_NE(f.find("fixtures/src/"), std::string::npos) << f;
  }
}

TEST(MellintFiles, MissingPathReportsError) {
  std::vector<std::string> errors;
  lint::collect_files({"definitely/not/here"}, &errors);
  ASSERT_EQ(errors.size(), 1u);
}

TEST(MellintReport, JsonEscapesAndCounts) {
  const std::vector<lint::Finding> fs = {
      {"src/a \"b\".cpp", 3, "wallclock", "uses \"clock\""},
      {"src/c.cpp", 9, "global-cache", "cache"},
  };
  const std::string json = lint::findings_to_json(fs, 2);
  EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"reported\": 2"), std::string::npos);
  EXPECT_NE(json.find("src/a \\\"b\\\".cpp"), std::string::npos);
  EXPECT_NE(json.find("uses \\\"clock\\\""), std::string::npos);
  EXPECT_NE(json.find("src/c.cpp"), std::string::npos);
}

}  // namespace
