// pipeline: a PipelineGraph of the std passes — scenario runs of pca,
// smart-alarm and xray, each with its Chrome-trace export, the model-level
// analysis passes, and one small ward campaign with its merge. A unit is a
// cold run on an empty ArtifactCache followed by an edit run after one knob
// change on pca; the cold run writes the cache and the edit run mostly
// reads it. Graph and ward campaign run with one job each: with parallel
// jobs, cross-thread wake-ups and allocator arenas follow the host's load,
// and cold/edit times and peak memory spread far more across seeds.

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/event_log.hpp"
#include "obs/exporters.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/std_passes.hpp"
#include "pinned_presets.hpp"
#include "scenario/scenario.hpp"
#include "ward/ward_config.hpp"

namespace perfbench {

namespace {

namespace sc = mcps::scenario;
namespace pl = mcps::pipeline;

constexpr std::array<const char*, 3> kScenarios = {"pca", "smart-alarm", "xray"};
constexpr unsigned kJobs = 1;
/// Length of the serve session in a traced run.
constexpr double kServeSeconds = 8.0;

struct Plan {
    std::array<sc::ScenarioSpec, kScenarios.size()> specs;
    mcps::ward::WardConfig ward;
};

pl::PipelineGraph build(const Plan& plan) {
    pl::PipelineGraph g;
    for (std::size_t i = 0; i < kScenarios.size(); ++i) {
        pl::add_scenario_pass(g, kScenarios[i], plan.specs[i]);
        pl::add_trace_export_pass(g, kScenarios[i]);
    }
    pl::add_analysis_passes(g, pl::AnalysisPassOptions{});
    pl::add_ward_pass(g, "campaign", plan.ward);
    pl::add_ward_merge_pass(g, {"campaign"});
    return g;
}

/// Pass-name family used by the per-layer ledger.
std::string family(const std::string& pass) {
    if (pass == "analyze:merge" || pass == "ward:merge") return "merge";
    if (pass.rfind("run:", 0) == 0) return "run";
    if (pass.rfind("trace:", 0) == 0) return "trace";
    if (pass.rfind("analyze:", 0) == 0) return "analysis";
    return "ward";
}

double wall_ms(std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Patient-minutes simulated by the scenario passes that executed.
double executed_minutes(const pl::PipelineResult& res, const Plan& plan) {
    double m = 0.0;
    for (const pl::PassOutcome& p : res.passes) {
        for (std::size_t i = 0; i < kScenarios.size(); ++i) {
            if (!p.from_cache && p.name == std::string{"run:"} + kScenarios[i]) {
                m += static_cast<double>(plan.specs[i].minutes);
            }
        }
    }
    return m;
}

}  // namespace

void run_pipeline(Context& ctx, Result& r, Tracer& t) {
    const sc::ScenarioRegistry& reg = sc::registry();
    // A quarter of each scenario's default duration keeps a unit short, so
    // one run holds many of them.
    Plan base, pinned;
    for (std::size_t i = 0; i < kScenarios.size(); ++i) {
        base.specs[i] = sc::parse_spec(reg.default_spec(kScenarios[i]).to_text());
        base.specs[i].minutes /= 4;
        pinned.specs[i] = mcps::testsupport::pinned_spec(kScenarios[i]);
    }
    base.ward = pl::parse_ward_config("seed=1 patients=8 jobs=1 shards=8");
    pinned.ward = base.ward;
    pinned.ward.patients = 2;
    const std::vector<std::string> order = build(base).topo_order();
    // Warm-up, which doubles as a check: a cold graph over the pinned
    // minutes=1 specs reproduces the pinned fingerprints.
    const pl::PipelineResult warm_up = build(pinned).run({kJobs, nullptr, nullptr});
    std::vector<bool> pinned_ok;
    for (const char* id : kScenarios) {
        pinned_ok.push_back(warm_up.at(std::string{"run/"} + id + "/fingerprint").payload ==
                            pinned_fingerprint_hex(id) + "\n");
    }
    if (ctx.setup_done()) return;
    for (const bool ok : pinned_ok) r.check(ok);

    Tracer off{false};
    std::vector<double>& cold_ms = r.samples["cold_ms"];
    std::vector<double>& edit_ms = r.samples["edit_ms"];
    std::vector<double>& unit_ms = r.samples["unit_ms"];
    std::vector<double> plain_ms, traced_ms;
    std::array<std::vector<double>, 5> pass_ms;  // run trace analysis ward merge
    static const std::array<const char*, 5> kFamilies = {"run", "trace", "analysis",
                                                        "ward", "merge"};
    std::vector<double> overhead_ms, cold_misses, edit_hits, edit_reexec;
    double minutes = 0.0;
    std::string jsonl;  // the pca EventLog of the first traced cold run

    const std::int64_t window = now_ns();
    std::uint64_t unit = 0;
    while (seconds_since(window) < ctx.opt.seconds) {
        const bool traced = ctx.opt.trace && unit % 2 == 0;
        Tracer& tr = traced ? t : off;
        Plan plan = base;
        for (std::size_t i = 0; i < kScenarios.size(); ++i) {
            plan.specs[i].seed = mix_seed(ctx.opt.seed, unit * 4 + i);
        }
        plan.ward.seed = mix_seed(ctx.opt.seed, unit * 4 + 3);
        Plan edited = plan;
        edited.specs[0].set("latency-ms", "20");

        pl::ArtifactCache cache;
        const pl::PipelineGraph g = build(plan);
        const pl::PipelineGraph ge = build(edited);
        const pl::PipelineOptions opts{kJobs, &cache, nullptr};

        const std::int64_t u0 = now_ns();
        pl::PipelineResult cold, edit;
        {
            Scope unit_span{tr, "bench.unit", unit};
            const std::int64_t c0 = now_ns();
            {
                Scope s{tr, "pipeline.run_cold", unit};
                cold = g.run(opts);
            }
            cold_ms.push_back(wall_ms(c0));
            const std::int64_t e0 = now_ns();
            {
                Scope s{tr, "pipeline.run_edit", unit};
                edit = ge.run(opts);
            }
            edit_ms.push_back(wall_ms(e0));
        }
        unit_ms.push_back(wall_ms(u0));
        minutes += executed_minutes(cold, plan) + executed_minutes(edit, edited);
        if (ctx.opt.trace) (traced ? traced_ms : plain_ms).push_back(unit_ms.back());

        // Edit-then-revert and a second warm run reproduce the cold manifest
        // from the cache alone.
        const pl::PipelineResult revert = g.run(opts);
        const pl::PipelineResult warm = g.run(opts);
        const std::string manifest = cold.manifest();
        r.check(cold.cache_misses > 0 && edit.cache_hits > 0);
        r.check(edit.manifest() != manifest);
        r.check(revert.manifest() == manifest && revert.cache_misses == 0);
        r.check(warm.manifest() == manifest && warm.cache_misses == 0);

        if (traced) {
            if (jsonl.empty()) jsonl = cold.at("run/pca/events").payload;
            std::array<double, 5> fam{};
            double passes = 0.0;
            for (const pl::PassOutcome& p : cold.passes) {
                for (std::size_t f = 0; f < kFamilies.size(); ++f) {
                    if (family(p.name) == kFamilies[f]) fam[f] += p.wall_us / 1e3;
                }
                passes += p.wall_us / 1e3;
            }
            for (std::size_t f = 0; f < fam.size(); ++f) pass_ms[f].push_back(fam[f]);
            // Scheduling overhead of the one-job cold run: graph wall time
            // minus the passes' own.
            overhead_ms.push_back(cold_ms.back() - passes);
            cold_misses.push_back(static_cast<double>(cold.cache_misses));
            edit_hits.push_back(static_cast<double>(edit.cache_hits));
            double reexec = 0.0;
            for (const pl::PassOutcome& p : edit.passes) reexec += p.from_cache ? 0 : 1;
            edit_reexec.push_back(reexec);
        }
        ++unit;
    }

    r.stamp.emplace_back("units", std::to_string(unit));
    r.stamp.emplace_back("graph_jobs", std::to_string(kJobs));
    r.stamp.emplace_back("passes", std::to_string(order.size()));
    if (!ctx.opt.trace) {
        add_timings(minutes / static_cast<double>(unit), r);
        return;
    }

    for (std::size_t f = 0; f < kFamilies.size(); ++f) {
        r.add(std::string{"pipeline.pass_ms."} + kFamilies[f], median(pass_ms[f]), "ms");
    }
    r.add("pipeline.overhead_ms", median(overhead_ms), "ms");
    r.add("pipeline.cold_misses", median(cold_misses), "count");
    r.add("pipeline.edit_hits", median(edit_hits), "count");
    r.add("pipeline.edit_reexecuted", median(edit_reexec), "count");

    // The obs exporters on that pca EventLog.
    std::vector<double> write_ms, read_ms, chrome_ms;
    for (int k = 0; k < 5; ++k) {
        std::istringstream in{jsonl};
        std::int64_t c0 = now_ns();
        const mcps::obs::EventLog log = mcps::obs::read_jsonl(in);
        read_ms.push_back(wall_ms(c0));
        std::ostringstream out;
        c0 = now_ns();
        mcps::obs::write_jsonl(log, out);
        write_ms.push_back(wall_ms(c0));
        std::ostringstream chrome;
        c0 = now_ns();
        mcps::obs::write_chrome_trace(log, chrome);
        chrome_ms.push_back(wall_ms(c0));
        r.check(out.str() == jsonl && !chrome.str().empty());
    }
    r.add("obs.write_jsonl_ms", median(write_ms), "ms");
    r.add("obs.read_jsonl_ms", median(read_ms), "ms");
    r.add("obs.write_chrome_ms", median(chrome_ms), "ms");
    r.add("obs.jsonl_bytes", static_cast<double>(jsonl.size()), "bytes");
    r.add("bench.trace_overhead_ms", median(traced_ms) - median(plain_ms), "ms");
    add_self_times(t, traced_ms.size(), r);
    // The serve layer: its own open-loop session after the graph runs, on
    // the workload's connection budget.
    add_serve_layers(ctx.opt.seed, kServeSeconds, ctx.opt.connections, r);
}

}  // namespace perfbench
