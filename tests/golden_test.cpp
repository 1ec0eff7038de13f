// Golden-trace regression: recompute each canonical scenario and compare
// its full result fingerprint against the pinned record in tests/golden/.
// Any behavioural drift anywhere in the stack fails here; intentional
// changes are blessed with `scenario_run --update-golden`.

#include <gtest/gtest.h>

#include <string>

#include "app/golden.hpp"

namespace zhuge::app {
namespace {

const std::string kGoldenDir = ZHUGE_GOLDEN_DIR;

TEST(Golden, CanonicalScenariosMatchPinnedRecords) {
  for (const auto& name : golden_scenario_names()) {
    SCOPED_TRACE(name);
    std::string err;
    const auto expected = load_golden_file(kGoldenDir + "/" + name + ".json",
                                           &err);
    ASSERT_TRUE(expected.has_value()) << err;
    const auto actual = compute_golden(name);
    ASSERT_TRUE(actual.has_value());
    const auto diffs = compare_golden(*expected, *actual);
    EXPECT_TRUE(diffs.empty())
        << "golden drift — if intentional, run scenario_run "
           "--update-golden:\n  " +
               [&diffs] {
                 std::string all;
                 for (const auto& d : diffs) all += d + "\n  ";
                 return all;
               }();
  }
}

TEST(Golden, RecordJsonRoundTrip) {
  GoldenRecord rec;
  rec.name = "rt";
  rec.seed = 42;
  rec.fingerprint = 0xDEADBEEFCAFEF00Dull;
  rec.headline["rtt_p50_ms"] = 40.5;
  rec.headline["events"] = 123456.0;

  std::string err;
  const auto back = golden_from_json(golden_to_json(rec), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->name, rec.name);
  EXPECT_EQ(back->seed, rec.seed);
  EXPECT_EQ(back->fingerprint, rec.fingerprint);
  EXPECT_EQ(back->headline, rec.headline);
}

TEST(Golden, CompareReportsFingerprintAndHeadlineDrift) {
  GoldenRecord a;
  a.name = "x";
  a.fingerprint = 1;
  a.headline["rtt_p50_ms"] = 40.0;
  GoldenRecord b = a;
  EXPECT_TRUE(compare_golden(a, b).empty());

  b.fingerprint = 2;
  b.headline["rtt_p50_ms"] = 55.0;
  const auto diffs = compare_golden(a, b);
  ASSERT_GE(diffs.size(), 2u);
  EXPECT_NE(diffs[0].find("fingerprint"), std::string::npos);
  EXPECT_NE(diffs[1].find("rtt_p50_ms"), std::string::npos);
}

TEST(Golden, CompareReportsHeadlineDriftUnderAMatchingFingerprint) {
  // events_executed is pinned only as a headline (the fingerprint hashes
  // behaviour, not engine bookkeeping), so its drift alone must fail.
  GoldenRecord a;
  a.name = "x";
  a.fingerprint = 7;
  a.headline["events_executed"] = 35645.0;
  GoldenRecord b = a;
  b.headline["events_executed"] = 35646.0;
  const auto diffs = compare_golden(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("events_executed"), std::string::npos);

  // A headline that appears or disappears is a difference too.
  GoldenRecord c = a;
  c.headline["frames_decoded"] = 600.0;
  EXPECT_EQ(compare_golden(a, c).size(), 1u);
  EXPECT_EQ(compare_golden(c, a).size(), 1u);
}

TEST(Golden, UnknownScenarioRejected) {
  EXPECT_FALSE(golden_scenario_spec("nope").has_value());
  EXPECT_FALSE(compute_golden("nope").has_value());
}

}  // namespace
}  // namespace zhuge::app
