// Golden anchors: re-run every anchor of the registry and compare its
// trimmed run record with the pinned file in tests/golden/, exactly. Any
// behavioural drift anywhere in the stack fails here; intentional changes
// are blessed with `scenario_run --update-golden`.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "app/golden.hpp"
#include "app/record.hpp"

namespace zhuge::app {
namespace {

const std::string kGoldenDir = ZHUGE_GOLDEN_DIR;
const std::string kSpecDir = ZHUGE_SPEC_DIR;

Json record_with(
    std::uint64_t fingerprint,
    std::initializer_list<std::pair<const char*, double>> headline) {
  Json rec = make_record("scenario_run", "x", 1, fingerprint);
  for (const auto& [key, value] : headline) {
    rec.find("headline")->set(key, Json::make_number(value));
  }
  return trim_to_golden(rec);
}

TEST(Golden, EveryAnchorMatchesItsPinnedRecord) {
  std::ostringstream out;
  EXPECT_EQ(check_goldens(kGoldenDir, kSpecDir, /*update=*/false, out), 0)
      << "golden drift — if intentional, run scenario_run --update-golden:\n"
      << out.str();
  for (const auto& name : golden_names()) {
    EXPECT_NE(out.str().find(name), std::string::npos) << name;
  }
  EXPECT_EQ(golden_names().size(), 6u);
}

TEST(Golden, UpdateWritesThePinnedBytes) {
  const std::string dir = ::testing::TempDir() + "/golden_round_trip";
  std::filesystem::create_directories(dir);
  std::ostringstream out;
  ASSERT_EQ(check_goldens(dir, kSpecDir, /*update=*/true, out), 0) << out.str();
  // What update writes is what the repository pins, byte for byte.
  for (const auto& name : golden_names()) {
    std::string err;
    const auto written = load_record(dir + "/" + name + ".json", &err);
    const auto pinned = load_record(kGoldenDir + "/" + name + ".json", &err);
    ASSERT_TRUE(written.has_value() && pinned.has_value()) << err;
    EXPECT_EQ(written->dump(2), pinned->dump(2)) << name;
  }
}

TEST(Golden, TrimKeepsTheGoldenSubset) {
  Json rec = make_record("eval_run", "x", 3, 0xDEADBEEFCAFEF00Dull);
  rec.set("cells", Json::make_array());
  const Json g = trim_to_golden(rec);
  ASSERT_EQ(g.object().size(), 5u);
  for (const char* key : {"schema", "name", "seed", "fingerprint", "headline"}) {
    EXPECT_NE(g.find(key), nullptr) << key;
  }
  std::string err;
  const auto back = parse_record(g.dump(2), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_TRUE(compare_golden(g, *back).empty());
}

TEST(Golden, CompareReportsFingerprintAndHeadlineDrift) {
  const Json a = record_with(1, {{"rtt_p50_ms", 40.0}});
  EXPECT_TRUE(compare_golden(a, a).empty());
  const auto diffs = compare_golden(a, record_with(2, {{"rtt_p50_ms", 55.0}}));
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_NE(diffs[0].find("fingerprint"), std::string::npos);
  EXPECT_NE(diffs[1].find("rtt_p50_ms"), std::string::npos);
}

TEST(Golden, CompareReportsHeadlineDriftUnderAMatchingFingerprint) {
  // events_executed is pinned only as a headline (the fingerprint hashes
  // behaviour, not engine bookkeeping), so its drift alone must fail.
  const Json a = record_with(7, {{"events_executed", 35645.0}});
  const auto diffs =
      compare_golden(a, record_with(7, {{"events_executed", 35646.0}}));
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("events_executed"), std::string::npos);

  // A headline that appears or disappears is a difference too.
  const Json c =
      record_with(7, {{"events_executed", 35645.0}, {"frames_decoded", 600.0}});
  EXPECT_EQ(compare_golden(a, c).size(), 1u);
  EXPECT_EQ(compare_golden(c, a).size(), 1u);
}

TEST(Golden, CompareNamesTheDriftingStage) {
  const Json a = record_with(
      7, {{"stage.ap_queue.p95_us", 100.0}, {"stage.air.p95_us", 50.0}});
  const Json b = record_with(
      7, {{"stage.ap_queue.p95_us", 150.0}, {"stage.air.p95_us", 50.0}});
  const auto diffs = compare_golden(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs.front().find("stage.ap_queue.p95_us"), std::string::npos);
}

TEST(Golden, NullHeadlineValueCountsAsAbsent) {
  Json a = record_with(7, {{"events_executed", 1.0}});
  a.find("headline")->set("rtt_p50_ms", Json{});
  EXPECT_TRUE(compare_golden(a, record_with(7, {{"events_executed", 1.0}})).empty());
}

TEST(Golden, UnknownAnchorRejected) {
  EXPECT_FALSE(golden_scenario_spec("nope").has_value());
  std::string err;
  EXPECT_FALSE(golden_run_record("nope", kSpecDir, &err).has_value());
  EXPECT_NE(err.find("nope"), std::string::npos);
  EXPECT_FALSE(golden_run_record("attrib_dense64", "/nonexistent", &err)
                   .has_value());
}

}  // namespace
}  // namespace zhuge::app
