// Tests of the benchmark itself: seeded inputs, the percentile rule and
// the workload records in BENCHMARK.json.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "serve/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<std::string> digests(const std::vector<JobSpec>& jobs) {
  std::vector<std::string> out;
  for (const JobSpec& j : jobs) {
    out.push_back(pimsched::serve::jobDigest(toJobRequest(j)).hex());
  }
  return out;
}

std::vector<std::string> hotDigests(std::uint64_t seed) {
  const HotInputs in = hotInputs(seed, 8);
  std::vector<JobSpec> all = in.catalogue;
  all.insert(all.end(), in.bursts.begin(), in.bursts.end());
  return digests(all);
}

std::vector<std::string> streamDigests(std::uint64_t seed) {
  StreamGen gen(seed);
  std::vector<JobSpec> revisions;
  for (int i = 0; i < 3; ++i) {
    revisions.push_back(gen.revision());
    gen.advance();
  }
  return digests(revisions);
}

TEST(Inputs, SameSeedSameJobsOtherSeedOtherJobs) {
  EXPECT_EQ(digests(missJobs(7, 24, 2)), digests(missJobs(7, 24, 2)));
  EXPECT_NE(digests(missJobs(7, 24, 2)), digests(missJobs(8, 24, 2)));
  EXPECT_EQ(hotDigests(7), hotDigests(7));
  EXPECT_NE(hotDigests(7), hotDigests(8));
  EXPECT_EQ(digests(largeJobs(7, 4)), digests(largeJobs(7, 4)));
  EXPECT_NE(digests(largeJobs(7, 4)), digests(largeJobs(8, 4)));
  EXPECT_EQ(streamDigests(7), streamDigests(7));
  EXPECT_NE(streamDigests(7), streamDigests(8));
}

TEST(Inputs, MissJobsNeverRepeat) {
  const std::vector<std::string> d = digests(missJobs(3, 300, 2));
  EXPECT_EQ(std::set<std::string>(d.begin(), d.end()).size(), d.size());
}

TEST(Inputs, StreamRevisionsChurnOnlyTheTail) {
  StreamGen gen(5);
  const JobSpec a = gen.revision();
  gen.advance();
  const JobSpec b = gen.revision();
  EXPECT_NE(a.trace.accesses(), b.trace.accesses());
  // Windows before the churned tail are unchanged.
  auto prefix = [](const JobSpec& j) {
    std::vector<pimsched::Access> out;
    for (const pimsched::Access& acc : j.trace.accesses()) {
      if (acc.step < StreamGen::kWindows - StreamGen::kChurnWindows) {
        out.push_back(acc);
      }
    }
    return out;
  };
  EXPECT_EQ(prefix(a), prefix(b));
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_TRUE(supportsPercentile(1000, 99));
  EXPECT_FALSE(supportsPercentile(999, 99));
  EXPECT_TRUE(supportsPercentile(20, 50));
  EXPECT_FALSE(supportsPercentile(19, 50));
  EXPECT_FALSE(supportsPercentile(0, 50));

  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 99).has_value());
  v.push_back(1000);
  ASSERT_TRUE(percentile(v, 99).has_value());
  // Interpolated between the closest ranks: 10 samples lie beyond p99.
  EXPECT_NEAR(*percentile(v, 99), 990.01, 1e-9);
  EXPECT_NEAR(*percentile(v, 50), 500.5, 1e-9);
}

TEST(BenchmarkJson, EveryWorkloadIsRecordedWithItsWhy) {
  std::ifstream is(PERFBENCH_JSON);
  ASSERT_TRUE(is) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << is.rdbuf();
  const pimsched::serve::Json doc = pimsched::serve::Json::parse(ss.str());
  std::set<std::string> recorded;
  for (const auto& w : doc.find("workloads")->asArray()) {
    const std::string& why = w.find("why")->asString();
    EXPECT_FALSE(why.empty());
    EXPECT_EQ(why.find('\n'), std::string::npos);
    EXPECT_LE(why.size(), 200u);
    recorded.insert(w.find("name")->asString());
  }
  const std::vector<std::string>& names = workloadNames();
  EXPECT_EQ(recorded, std::set<std::string>(names.begin(), names.end()));
}

}  // namespace
}  // namespace perfbench
