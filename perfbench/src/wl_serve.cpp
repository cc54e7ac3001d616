// The serve layer's session: open loop. An in-process serve::Server
// (2 workers) on loopback is driven at a fixed Poisson rate from
// `connections` client threads, one synchronous connection each. The traced
// pipeline run calls it to fill the serve.* per-layer metrics. Every preset
// except the hospital family is requested at short durations across all
// three QoS classes. About 60% of the requests repeat a recent spec (cache
// hits); a fifth are fresh seeds and a fifth are one-knob edits of a recent
// spec (both cache misses).
// Latency is timed from when a request was due, so a stall also charges
// the requests queued behind it.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pinned_presets.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace sc = mcps::scenario;
namespace sv = mcps::serve;

/// Offered load. At this rate the two workers stay well below saturation
/// on a 4-cpu host (no growing backlog), so latency, not throughput, is
/// what moves.
constexpr double kRatePerSecond = 120.0;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kRecent = 200;  ///< repeats/edits draw from these
/// Planned share of repeats; the rest split evenly between fresh seeds and
/// edits. Above one half, so the median request takes the hit path.
constexpr double kRepeatShare = 0.6;
/// A tenth of the fresh specs are one longer smart-alarm run. Their misses
/// are the slowest requests by a clear margin, so the tail (ten samples
/// beyond) falls inside this class instead of on rare arrival bursts.
constexpr double kHeavyShare = 0.1;
constexpr std::uint64_t kHeavyMinutes = 90;

constexpr std::array<const char*, 5> kPresets = {
    "pca", "pca-open", "smart-alarm", "xray", "xray-manual"};

struct Planned {
    double due_s = 0.0;
    std::size_t spec = 0;  ///< index into the distinct-spec table
    sv::QosClass qos = sv::QosClass::kInteractive;
};

struct Done {
    double latency_ms = std::numeric_limits<double>::infinity();
    double late_ms = 0.0;
    bool ok = false;
    bool cached = false;
    std::string artifacts;
};

/// The request schedule, a pure function of the workload seed.
void plan(std::uint64_t seed, double seconds, std::vector<sc::ScenarioSpec>& specs,
          std::vector<Planned>& out) {
    const sc::ScenarioRegistry& reg = sc::registry();
    std::mt19937_64 rng{mix_seed(seed, 0x5e7e)};
    std::exponential_distribution<double> gap{kRatePerSecond};
    std::uniform_real_distribution<double> u01{0.0, 1.0};
    std::uint64_t fresh = 0;
    double t = gap(rng);
    while (t < seconds) {
        Planned p;
        p.due_s = t;
        p.qos = static_cast<sv::QosClass>(rng() % sv::kQosClassCount);
        const double r = u01(rng);
        const std::size_t recent = std::min(specs.size(), kRecent);
        const std::size_t pick = specs.size() - 1 - (recent > 0 ? rng() % recent : 0);
        if (recent > 0 && r < kRepeatShare) {
            p.spec = pick;
        } else if (recent > 0 && r < (1.0 + kRepeatShare) / 2) {
            sc::ScenarioSpec s = specs[pick];
            const bool xray = s.name.rfind("xray", 0) == 0;
            if (xray) {
                const std::string milli = std::to_string(1000 + 1 + rng() % 300);
                s.set("premature", "0." + milli.substr(1));
            } else {
                s.set("latency-ms", std::to_string(1 + rng() % 99));
            }
            specs.push_back(std::move(s));
            p.spec = specs.size() - 1;
        } else {
            const bool heavy = u01(rng) < kHeavyShare;
            sc::ScenarioSpec s = reg.default_spec(
                heavy ? "smart-alarm" : kPresets[rng() % kPresets.size()]);
            s.seed = mix_seed(seed, ++fresh);
            const bool xray = s.name.rfind("xray", 0) == 0;
            s.minutes = heavy  ? kHeavyMinutes
                        : xray ? 30 + 30 * (rng() % 2)
                               : 10 + 10 * (rng() % 2);
            specs.push_back(std::move(s));
            p.spec = specs.size() - 1;
        }
        out.push_back(p);
        t += gap(rng);
    }
}

std::uint64_t counter(const std::string& stats, const std::string& name) {
    const std::string key = "\"" + name + "\":";
    const std::size_t at = stats.find(key);
    if (at == std::string::npos) return 0;
    return std::stoull(stats.substr(at + key.size()));
}

/// One open-loop session against an in-process server. The members are
/// declared so that the clients close before the server drains.
struct Session {
    std::vector<sc::ScenarioSpec> specs;
    std::vector<Planned> schedule;
    std::unique_ptr<sv::Server> server;
    std::vector<std::unique_ptr<sv::Client>> clients;
    std::vector<bool> warm_ok;
    std::vector<Done> done;
    sv::Response stats;
};

/// Everything before the first timed request: the plan, the server, the
/// connections, and a warm-up that doubles as a check (the pinned
/// minutes=1 specs, served uncached, reproduce the pinned fingerprints).
Session open_session(std::uint64_t seed, double seconds, unsigned conns) {
    if (conns == 0) throw std::invalid_argument{"serve needs --connections >= 1"};
    Session s;
    plan(seed, seconds, s.specs, s.schedule);
    sv::ServerConfig cfg;
    cfg.endpoint = sv::Endpoint::tcp("127.0.0.1", 0);
    cfg.workers = kWorkers;
    s.server = std::make_unique<sv::Server>(cfg);
    for (unsigned c = 0; c < conns; ++c) {
        s.clients.push_back(std::make_unique<sv::Client>(s.server->endpoint()));
    }
    for (std::size_t i = 0; i < kPresets.size(); ++i) {
        const sv::Response resp = s.clients[i % conns]->run(
            mcps::testsupport::pinned_spec(kPresets[i]),
            sv::QosClass::kInteractive, /*no_cache=*/true);
        s.warm_ok.push_back(resp.ok() && sv::artifacts_fingerprint(resp.artifacts) ==
                                             pinned_fingerprint_hex(kPresets[i]));
    }
    return s;
}

/// Send the schedule, one client thread per connection.
void drive(Session& s) {
    const unsigned conns = static_cast<unsigned>(s.clients.size());
    s.done.assign(s.schedule.size(), Done{});
    std::atomic<std::size_t> next{0};
    const std::int64_t start = now_ns();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c) {
        threads.emplace_back([&s, &next, start, c] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= s.schedule.size()) return;
                const Planned& p = s.schedule[i];
                const std::int64_t due =
                    start + static_cast<std::int64_t>(p.due_s * 1e9);
                while (now_ns() < due) {
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds{due - now_ns()});
                }
                const std::int64_t sent = now_ns();
                Done& d = s.done[i];
                d.late_ms = static_cast<double>(sent - due) / 1e6;
                try {
                    sv::Response resp = s.clients[c]->run(s.specs[p.spec], p.qos);
                    d.ok = resp.ok();
                    d.cached = resp.cached;
                    d.artifacts = std::move(resp.artifacts);
                    if (d.ok) d.latency_ms = static_cast<double>(now_ns() - due) / 1e6;
                } catch (const std::exception&) {
                    d.ok = false;
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    s.stats = s.clients[0]->stats();
}

struct Figures {
    std::vector<double> all, hit, miss, late;
    double repeat_share = 0.0;
};

/// Check the outputs and sort the latencies. Every request succeeds; every
/// response for one spec carries the same bytes, hit or miss; and every
/// 25th distinct spec matches a direct registry run.
Figures collect(const Session& s, Result& r) {
    for (const bool ok : s.warm_ok) r.check(ok);
    Figures f;
    std::map<std::size_t, std::size_t> first_of;  // spec -> request index
    std::size_t repeats = 0;
    for (std::size_t i = 0; i < s.schedule.size(); ++i) {
        const Done& d = s.done[i];
        const Planned& p = s.schedule[i];
        f.all.push_back(d.latency_ms);
        f.late.push_back(std::max(0.0, d.late_ms));
        (d.cached ? f.hit : f.miss).push_back(d.latency_ms);
        const auto [it, inserted] = first_of.emplace(p.spec, i);
        if (!inserted) ++repeats;
        r.check(d.ok && d.artifacts == s.done[it->second].artifacts);
    }
    std::size_t sampled = 0;
    for (const auto& [spec, i] : first_of) {
        if (spec % 25 != 0 || !s.done[i].ok) continue;
        ++sampled;
        const sc::RunArtifacts direct = sc::registry().run(s.specs[spec]);
        r.check(sv::artifacts_fingerprint(s.done[i].artifacts) ==
                direct.fingerprint_hex());
    }
    r.check(sampled > 0 && s.stats.ok());
    f.repeat_share =
        static_cast<double>(repeats) / static_cast<double>(s.schedule.size());
    r.stamp.emplace_back("requests", std::to_string(s.schedule.size()));
    r.stamp.emplace_back("offered_rate_per_s", std::to_string(kRatePerSecond));
    r.stamp.emplace_back("repeat_share", std::to_string(f.repeat_share));
    r.stamp.emplace_back("server_workers", std::to_string(kWorkers));
    return f;
}

void add_layers(const Session& s, const Figures& f, Result& r) {
    r.add("serve.offered_rate", kRatePerSecond, "1/s");
    r.add("serve.repeat_share", f.repeat_share, "ratio");
    r.add("serve.hit_ratio",
          static_cast<double>(f.hit.size()) / static_cast<double>(f.all.size()),
          "ratio");
    r.add("serve.hit_p50_ms", median(f.hit), "ms");
    r.add("serve.miss_p50_ms", median(f.miss), "ms");
    r.add("serve.miss_tail_ms", tail10(f.miss), "ms");

    // Protocol codecs on this session's own traffic.
    std::vector<std::string> req_lines, resp_lines;
    for (std::size_t i = 0; i < s.schedule.size() && req_lines.size() < 256; ++i) {
        sv::Request q;
        q.id = "r";
        q.id += std::to_string(i);
        q.spec = s.specs[s.schedule[i].spec];
        q.qos = s.schedule[i].qos;
        req_lines.push_back(q.to_line());
        resp_lines.push_back(sv::ok_run_response(q.id, s.done[i].cached, 10, 100,
                                                 s.done[i].artifacts));
    }
    constexpr int kCalls = 20000;
    std::size_t sink = 0;
    std::int64_t c0 = now_ns();
    for (int k = 0; k < kCalls; ++k) {
        sink += sv::parse_request(req_lines[k % req_lines.size()]).id.size();
    }
    r.add("serve.parse_request_us", static_cast<double>(now_ns() - c0) / 1e3 / kCalls, "us");
    c0 = now_ns();
    for (int k = 0; k < kCalls; ++k) {
        sink += sv::parse_response(resp_lines[k % resp_lines.size()]).id.size();
    }
    r.add("serve.parse_response_us", static_cast<double>(now_ns() - c0) / 1e3 / kCalls, "us");
    r.check(sink > 0);

    const std::string& stats = s.stats.stats;
    r.add("serve.rejected",
          static_cast<double>(counter(stats, "serve/rejected/overloaded") +
                              counter(stats, "serve/rejected/draining")),
          "count");
    std::uint64_t errors = 0;
    for (const char* e : {"bad-request", "bad-spec", "oversized", "internal"}) {
        errors += counter(stats, std::string{"serve/errors/"} + e);
    }
    r.add("serve.errors", static_cast<double>(errors), "count");
    r.add("serve.cache_evictions",
          static_cast<double>(counter(stats, "serve/cache/evictions")), "count");
    r.add("serve.gen_late_ms", tail10(f.late), "ms");
}

}  // namespace

void add_serve_layers(std::uint64_t seed, double seconds, unsigned connections,
                      Result& r) {
    Session s = open_session(seed, seconds, connections);
    drive(s);
    add_layers(s, collect(s, r), r);
}

}  // namespace perfbench
