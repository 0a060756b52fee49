// The benchmark's own tests: its inputs are a pure function of the seed,
// its workloads have the stated shape, and every workload runs end to end
// at smoke size with the correctness gate on. Run through
// `python3 perfbench/run.py --self-test`, which builds the binaries and
// sets PERFBENCH_ROOT / PERFBENCH_BIN / PERFBENCH_RUN_DIR.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "inputs.h"
#include "layers.h"

namespace perfbench {
namespace {

std::string Env(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "" : value;
}

std::string Canonical(const Payload& p) {
  return dbpc::CanonicalProgramText(Must(dbpc::ParseProgram(p.source), p.name));
}

TEST(Inputs, SameSeedGivesByteIdenticalPayloads) {
  HotMix hot_a(7), hot_b(7);
  ColdMix cold_a(7), cold_b(7);
  for (uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(hot_a.Make(i).source, hot_b.Make(i).source);
    EXPECT_EQ(cold_a.Make(i).source, cold_b.Make(i).source);
  }
  auto system_a = MigrateSystem(7, 2);
  auto system_b = MigrateSystem(7, 2);
  ASSERT_EQ(system_a.size(), system_b.size());
  for (size_t i = 0; i < system_a.size(); ++i) {
    EXPECT_EQ(system_a[i].source, system_b[i].source);
  }
  const Conversion conversion =
      Conversion::Load(Env("PERFBENCH_ROOT") + "/samples/company.ddl",
                       Env("PERFBENCH_ROOT") + "/samples/fig44.plan");
  auto dump = [&] {
    return Must(dbpc::DumpDatabaseText(BuildCompany(conversion.schema, 7, 10, 20)),
                "dump");
  };
  EXPECT_EQ(dump(), dump());
}

TEST(Inputs, OtherSeedsGiveOtherPayloads) {
  EXPECT_NE(HotMix(7).template_bodies(), HotMix(8).template_bodies());
  EXPECT_NE(ColdMix(7).Make(3).source, ColdMix(8).Make(3).source);
}

TEST(Inputs, ColdPayloadsArePairwiseDistinctTemplates) {
  ColdMix cold(11);
  std::set<std::string> seen;
  std::set<size_t> sizes;
  for (uint64_t i = 0; i < 3000; ++i) {
    Payload p = cold.Make(i);
    EXPECT_TRUE(seen.insert(Canonical(p)).second) << "request " << i;
    sizes.insert(p.source.size());
  }
  EXPECT_GT(sizes.size(), 100u);  // sizes vary, not one shape repeated
}

TEST(Inputs, HotMixHasTheStatedTemplatesAndTraceShare) {
  HotMix hot(11);
  EXPECT_EQ(static_cast<int>(hot.template_bodies().size()), HotMix::kTemplates);
  std::set<std::string> templates, names;
  int traced = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    Payload p = hot.Make(i);
    templates.insert(Canonical(p));
    names.insert(p.name);
    traced += p.trace ? 1 : 0;
  }
  EXPECT_EQ(static_cast<int>(templates.size()), HotMix::kTemplates);
  EXPECT_EQ(static_cast<int>(names.size()), n);  // names vary per request
  EXPECT_EQ(traced, n / HotMix::kTraceEvery);
}

/// Metric names listed under `section` in BENCHMARK.json.
std::vector<std::string> DeclaredMetrics(const std::string& section) {
  std::ifstream in(Env("PERFBENCH_ROOT") + "/BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  size_t at = json.find("\"" + section + "\"");
  size_t end = json.find(']', at);
  std::vector<std::string> names;
  for (size_t p = json.find("\"name\"", at); p < end;
       p = json.find("\"name\"", p + 1)) {
    size_t open = json.find('"', p + 6);
    names.push_back(json.substr(open + 1, json.find('"', open + 1) - open - 1));
  }
  return names;
}

/// Runs one workload at smoke size; returns the result line.
std::string SmokeRun(const std::string& workload, int trace) {
  const std::string bin = Env("PERFBENCH_BIN");
  const std::string command =
      bin + "/perfbench --workload " + workload +
      " --seed 5 --seconds 1 --smoke --trace " + std::to_string(trace) +
      " --root " + Env("PERFBENCH_ROOT") + " --dbpcd " + bin +
      "/dbpcd --workdir " + Env("PERFBENCH_RUN_DIR");
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string last;
  char line[1 << 16];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) last = line;
  EXPECT_EQ(::pclose(pipe), 0) << workload << " trace=" << trace;
  return last;
}

class SmokeTest
    : public ::testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(SmokeTest, RunsEndToEndWithTheGateOn) {
  const auto& [workload, trace] = GetParam();
  const std::string result = SmokeRun(workload, trace);
  EXPECT_NE(result.find("\"correct\": true"), std::string::npos) << result;
  EXPECT_NE(result.find("\"failed\": 0,"), std::string::npos) << result;
  const auto names = DeclaredMetrics(trace ? "per_layer" : "end_to_end");
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_NE(result.find("\"" + name + "\": {\"value\": "), std::string::npos)
        << workload << " lacks " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SmokeTest,
    ::testing::Values(std::make_pair(std::string("serve-hot"), 0),
                      std::make_pair(std::string("serve-hot"), 1),
                      std::make_pair(std::string("serve-cold"), 0),
                      std::make_pair(std::string("serve-cold"), 1),
                      std::make_pair(std::string("migrate"), 0),
                      std::make_pair(std::string("migrate"), 1)));

}  // namespace
}  // namespace perfbench
