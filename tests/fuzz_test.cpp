// Deterministic mutation fuzzing of the JSON input parsers, on the
// tests/prop.hpp harness (no libFuzzer): byte flips, truncations and
// duplicated spans applied to the shipped golden records, the example
// scenario and eval specs, the benchmark specs, the written specs of the
// scenario goldens and chaos cases (the only seeds with a "faults"
// section), and a Chrome trace and a bandwidth-trace CSV written in-test. Every mutant must either parse or
// return an error (the two trace loaders: load or throw
// std::runtime_error) — never crash, and never trip
// ASan or UBSan in the sanitizer job — and a golden mutant that still
// parses must dump and parse again to an equal record. A red case replays
// from the printed property case number.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/chaos.hpp"
#include "app/eval.hpp"
#include "app/golden.hpp"
#include "app/record.hpp"
#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "obs/export.hpp"
#include "obs/settings.hpp"
#include "obs/trace_reader.hpp"
#include "obs/tracer.hpp"
#include "prop.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace zhuge::app {
namespace {

enum class Parser : std::uint8_t { kRecord, kScenario, kEval, kTrace, kTraceCsv };

struct Seed {
  std::string path;
  Parser parser;
  std::string text;
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The Chrome trace of a short traced run of the rtp_zhuge_single golden
/// spec with attribution on, so it carries "span" records as well.
std::string chrome_trace_seed() {
  ScenarioSpec spec = golden_scenario_spec("rtp_zhuge_single").value();
  spec.duration_s = 0.2;
  spec.warmup_s = 0.0;
  obs::reset();
  obs::set_tracing_enabled(true);
  obs::set_attrib_enabled(true);
  (void)run_multi_station(spec);
  std::ostringstream out;
  obs::write_chrome_trace(obs::tracer(), out);
  obs::set_tracing_enabled(false);
  obs::set_attrib_enabled(false);
  obs::reset();
  return out.str();
}

/// A 2 s synthetic W1 bandwidth trace, as save_csv writes it.
std::string trace_csv_seed() {
  std::ostringstream out;
  trace::save_csv(
      trace::make_trace(trace::TraceKind::kRestaurantWifi, 1, sim::Duration::seconds(2)),
      out);
  return out.str();
}

/// The corpus, in a fixed order: every *.json of the golden, example-spec
/// and benchmark-spec directories (specs named eval_* are EvalSpecs), the
/// written scenario goldens and chaos cases, then the Chrome trace and
/// trace-CSV seeds.
std::vector<Seed> corpus() {
  std::vector<Seed> out;
  const auto add_dir = [&out](const std::string& dir, bool golden) {
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".json") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      const bool eval = f.filename().string().rfind("eval_", 0) == 0;
      out.push_back({f.string(),
                     golden ? Parser::kRecord
                            : eval ? Parser::kEval : Parser::kScenario,
                     read_file(f)});
    }
  };
  add_dir(ZHUGE_GOLDEN_DIR, true);
  add_dir(ZHUGE_SPEC_DIR, false);
  add_dir(ZHUGE_PERFBENCH_SPEC_DIR, false);
  const auto add_written = [&out](const std::string& label,
                                  const ScenarioSpec& spec) {
    std::string err;
    out.push_back({"written " + label, Parser::kScenario,
                   write_scenario_spec(spec, &err).value().dump(2)});
  };
  for (const std::string& name : golden_names()) {
    if (const auto spec = golden_scenario_spec(name)) add_written(name, *spec);
  }
  for (const ChaosCase& c : chaos_suite(1)) add_written(c.name, c.spec);
  out.push_back({"rtp_zhuge_single trace", Parser::kTrace, chrome_trace_seed()});
  out.push_back({"W1 trace csv", Parser::kTraceCsv, trace_csv_seed()});
  return out;
}

/// One to three mutations: flip a byte, truncate, or duplicate a span.
std::string mutate(std::string s, sim::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint32_t>(n)));
  };
  const std::size_t n_mutations = 1 + pick(3);
  for (std::size_t m = 0; m < n_mutations && !s.empty(); ++m) {
    switch (pick(3)) {
      case 0:  // flip a byte: a random bit, or a random byte value
        s[pick(s.size())] ^= static_cast<char>(
            rng.chance(0.5) ? 1u << pick(8) : pick(256));
        break;
      case 1:  // truncate
        s.resize(pick(s.size()));
        break;
      default: {  // duplicate a span somewhere
        const std::size_t from = pick(s.size());
        const std::size_t len =
            1 + pick(std::min<std::size_t>(64, s.size() - from));
        s.insert(pick(s.size() + 1), s.substr(from, len));
      }
    }
  }
  return s;
}

TEST(ParserFuzz, ShippedInputsParse) {
  const auto seeds = corpus();
  ASSERT_GE(seeds.size(), 14u);
  for (const Seed& seed : seeds) {
    std::string err;
    switch (seed.parser) {
      case Parser::kRecord:
        EXPECT_TRUE(parse_record(seed.text, &err).has_value())
            << seed.path << ": " << err;
        break;
      case Parser::kScenario:
        EXPECT_TRUE(parse_scenario_spec(seed.text, &err).has_value())
            << seed.path << ": " << err;
        break;
      case Parser::kEval:
        EXPECT_TRUE(parse_eval_spec(seed.text, &err).has_value())
            << seed.path << ": " << err;
        break;
      case Parser::kTrace: {
        std::istringstream in(seed.text);
        const auto events = obs::load_trace(in);
        // With the obs layer compiled out the run records no events.
        EXPECT_EQ(events.empty(), ZHUGE_OBS_ENABLED == 0) << seed.path;
        break;
      }
      case Parser::kTraceCsv: {
        std::istringstream in(seed.text);
        EXPECT_FALSE(trace::load_csv(in, seed.path).empty()) << seed.path;
        break;
      }
    }
  }
}

TEST(ParserFuzz, MutantsParseOrFailCleanly) {
  const auto seeds = corpus();
  int parsed_records = 0;
  const prop::Config cfg{.iterations = 20000, .base_seed = 0xF0221};
  prop::for_all(cfg, [&](sim::Rng& rng, int) {
    const Seed& seed =
        seeds[rng.uniform_int(static_cast<std::uint32_t>(seeds.size()))];
    const std::string mutant = mutate(seed.text, rng);
    SCOPED_TRACE(seed.path);
    std::string err;
    // Every parser sees every mutant: each must return a value or an
    // error for any input.
    (void)parse_scenario_spec(mutant, &err);
    (void)parse_eval_spec(mutant, &err);
    try {
      std::istringstream in(mutant);
      (void)obs::load_trace(in);
    } catch (const std::runtime_error&) {
      // A malformed trace must surface as exactly this exception.
    }
    try {
      std::istringstream in(mutant);
      (void)trace::load_csv(in, "mutant");
    } catch (const std::runtime_error& e) {
      // So must a malformed trace CSV, naming where it broke.
      EXPECT_EQ(std::string(e.what()).rfind("trace: ", 0), 0u) << e.what();
    }
    const auto record = parse_record(mutant, &err);
    if (!record.has_value()) {
      EXPECT_FALSE(err.empty());
      return;
    }
    ++parsed_records;
    const std::string text = record->dump(2);
    const auto again = parse_record(text, &err);
    ASSERT_TRUE(again.has_value()) << err << "\n" << text;
    EXPECT_EQ(again->dump(2), text);
  });
  // Most golden mutants break the document, but some (a flipped digit)
  // still parse and exercise the re-dump check.
  EXPECT_GT(parsed_records, 0);
}

}  // namespace
}  // namespace zhuge::app
