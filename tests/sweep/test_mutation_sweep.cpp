/// \file test_mutation_sweep.cpp
/// \brief One deterministic mutation sweep per input format. Random
/// byte mutations of real writer output, plus pure garbage, must either
/// parse or end in that format's closed error: ProtocolError for serve
/// request lines, SpecError for spec text and JSON, a "jsonl line N"
/// runtime error for event traces, and a false return with a message
/// for bench reports and SARIF logs. Any other exception fails the test; a crash
/// or undefined behaviour fails the run (the ASan/UBSan stage runs
/// these sweeps too).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "bench/bench_io.hpp"
#include "obs/exporters.hpp"
#include "scenario/scenario.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace mcps;

struct SweepCounts {
    std::uint64_t parsed = 0;
    std::uint64_t rejected = 0;
};

/// Feeds \p accepts 4000 mutants of \p seeds (taken in turn; 1-4 edits
/// each: overwrite a byte with any value, delete a byte, duplicate a
/// short chunk, truncate) and then 2000 random byte strings. \p accepts
/// returns true when the text parsed and false when it ended in the
/// format's closed error; anything else it throws fails the test.
SweepCounts mutation_sweep(
    const std::vector<std::string>& seeds,
    const std::function<bool(const std::string&)>& accepts) {
    std::mt19937_64 rng{20260808};
    SweepCounts counts;
    for (int iter = 0; iter < 4000; ++iter) {
        std::string text = seeds[static_cast<std::size_t>(iter) % seeds.size()];
        const int mutations = 1 + static_cast<int>(rng() % 4);
        for (int m = 0; m < mutations; ++m) {
            const std::size_t at = rng() % text.size();
            switch (rng() % 4) {
                case 0: text[at] = static_cast<char>(rng() & 0xFF); break;
                case 1: text.erase(at, 1); break;
                case 2: text.insert(at, text.substr(at, rng() % 8 + 1)); break;
                default: text.resize(at); break;
            }
            if (text.empty()) text.push_back('x');
        }
        ++(accepts(text) ? counts.parsed : counts.rejected);
    }
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text(rng() % 200, '\0');
        for (char& c : text) c = static_cast<char>(rng() & 0xFF);
        ++(accepts(text) ? counts.parsed : counts.rejected);
    }
    return counts;
}

TEST(Protocol, MutationSweepNeverCrashes) {
    const SweepCounts counts = mutation_sweep(
        {R"({"id":"r1","spec":{"scenario":"pca","seed":42,"minutes":1,)"
         R"("overrides":{"demand":"proxy"}},"class":"batch"})",
         R"({"id":"c1","cmd":"ping"})",
         R"({"id":"r2","spec":{"scenario":"xray"},"no_cache":true})"},
        [](const std::string& line) {
            try {
                (void)serve::parse_request(line);
                return true;
            } catch (const serve::ProtocolError&) {
                return false;
            }
        });
    EXPECT_GT(counts.rejected, 0u);
}

/// Seeds for the two spec sweeps, as specs.
std::vector<scenario::ScenarioSpec> spec_seeds() {
    std::vector<scenario::ScenarioSpec> specs;
    for (const char* text :
         {"pca seed=42 minutes=160 demand=proxy interlock=dual",
          "xray seed=7 minutes=3 procedures=5", "hospital-small"}) {
        specs.push_back(scenario::parse_spec(text));
    }
    return specs;
}

TEST(MutationSweep, ScenarioSpecJson) {
    std::vector<std::string> seeds;
    for (const auto& spec : spec_seeds()) seeds.push_back(spec.to_json());
    const SweepCounts counts =
        mutation_sweep(seeds, [](const std::string& json) {
            try {
                (void)scenario::parse_spec_json(json);
                return true;
            } catch (const scenario::SpecError&) {
                return false;
            }
        });
    EXPECT_GT(counts.rejected, 0u);
}

TEST(MutationSweep, ScenarioSpecText) {
    std::vector<std::string> seeds;
    for (const auto& spec : spec_seeds()) seeds.push_back(spec.to_text());
    const SweepCounts counts =
        mutation_sweep(seeds, [](const std::string& text) {
            try {
                (void)scenario::parse_spec(text);
                return true;
            } catch (const scenario::SpecError&) {
                return false;
            }
        });
    EXPECT_GT(counts.rejected, 0u);
}

TEST(MutationSweep, JsonlTrace) {
    obs::EventLog events;
    scenario::RunOptions opts;
    opts.events = &events;
    (void)scenario::registry().run(scenario::parse_spec("pca minutes=1"),
                                   opts);
    std::ostringstream jsonl;
    obs::write_jsonl(events, jsonl);
    std::vector<std::string> lines;
    std::istringstream in{jsonl.str()};
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_GE(lines.size(), 3u);
    const SweepCounts counts = mutation_sweep(
        {lines.front(), lines[lines.size() / 2], lines.back()},
        [](const std::string& text) {
            std::istringstream is{text};
            try {
                (void)obs::read_jsonl(is);
                return true;
            } catch (const std::runtime_error& e) {
                EXPECT_EQ(std::string{e.what()}.rfind("jsonl line ", 0), 0u)
                    << e.what();
                return false;
            }
        });
    EXPECT_GT(counts.rejected, 0u);
}

TEST(MutationSweep, BenchReport) {
    const std::string path =
        ::testing::TempDir() + "mcps_mutation_sweep_bench.json";
    std::string argv0 = "sweep", flag = "--json", arg = path;
    char* argv[] = {argv0.data(), flag.data(), arg.data()};
    benchio::JsonReporter json{3, argv, "mutation_sweep"};
    json.set_seed(42);
    json.metric("e2e/throughput", 1234.5, "patient-min/s");
    json.metric("serve/p99_ms", 0.125, "ms");
    json.metric("undefined_ratio", std::numeric_limits<double>::quiet_NaN(),
                "ratio");
    ASSERT_TRUE(json.write());
    std::ifstream in{path};
    const std::string report{std::istreambuf_iterator<char>{in},
                             std::istreambuf_iterator<char>{}};
    std::remove(path.c_str());

    const SweepCounts counts =
        mutation_sweep({report}, [](const std::string& text) {
            std::istringstream is{text};
            std::string error;
            const bool ok = obs::validate_bench_json(is, error);
            EXPECT_TRUE(ok || !error.empty());
            return ok;
        });
    EXPECT_GT(counts.rejected, 0u);
}

TEST(MutationSweep, Sarif) {
    analysis::AnalysisReport report;
    analysis::Finding f;
    f.rule = analysis::RuleId::kCONC1;
    f.severity = analysis::FindingSeverity::kError;
    f.entity = "Tally::racy_add";
    f.file = "tests/analysis_fixtures/conc1_unguarded.cpp";
    f.line = 14;
    f.message = "field touched outside its lock scope";
    report.findings.push_back(f);
    f.rule = analysis::RuleId::kTA5;
    f.severity = analysis::FindingSeverity::kWarning;
    f.file.clear();
    f.message = "note with \"quotes\", a \\backslash and a\ttab";
    report.findings.push_back(f);
    std::ostringstream sarif;
    analysis::write_sarif(report, sarif);

    const SweepCounts counts =
        mutation_sweep({sarif.str()}, [](const std::string& text) {
            std::string error;
            const bool ok = analysis::validate_sarif_minimal(text, error);
            EXPECT_TRUE(ok || !error.empty());
            return ok;
        });
    EXPECT_GT(counts.rejected, 0u);
}

}  // namespace
