/// \file mcps_load.cpp
/// \brief Latency-percentile load generator for mcps_serve.
///
/// Drives N concurrent synchronous clients against a server — an
/// external one (--port/--unix) or an in-process one on an ephemeral
/// port (--embed; requests still traverse real loopback sockets) — with
/// a deterministic mixed-preset workload: every registered scenario,
/// a bounded seed pool (so the fingerprint cache sees repeats), and a
/// clinical/interactive/batch QoS mix. Per-request wall latency lands
/// in per-client sim::Histograms whose exact integer merge yields the
/// p50/p95/p99 columns; `--clients-list 1,4,16,64` sweeps concurrency
/// levels into one report.
///
///   mcps_load --embed --clients-list 1,4,16,64 --requests 64 --json out.json
///   mcps_load --port 7171 --clients 8 --requests 100 --drain
///
/// --import-metrics FILE PREFIX copies another bench_io-schema report's
/// metrics into this one under PREFIX/ (used to splice the calendar-
/// queue churn before/after numbers into BENCH_7.json).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_io.hpp"
#include "cli.hpp"
#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "scenario/registry.hpp"
#include "serve/serve.hpp"
#include "sim/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// 0.05 ms resolution up to 500 ms; slower responses clamp to the top
// bin, which only biases p99 downward when the tail is already huge.
constexpr double kHistLoMs = 0.0;
constexpr double kHistHiMs = 500.0;
constexpr std::size_t kHistBins = 10000;

struct Totals {
    std::uint64_t ok = 0;
    std::uint64_t cached = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
};

struct PhaseResult {
    double wall_s = 0.0;
    Totals totals;
    mcps::sim::Histogram latency_ms{kHistLoMs, kHistHiMs, kHistBins};
};

mcps::serve::QosClass pick_class(std::uint64_t r) {
    const std::uint64_t d = r % 10;
    if (d == 0) return mcps::serve::QosClass::kClinical;
    if (d <= 6) return mcps::serve::QosClass::kInteractive;
    return mcps::serve::QosClass::kBatch;
}

PhaseResult run_phase(const mcps::serve::Endpoint& ep, unsigned clients,
                      std::uint64_t requests_per_client,
                      std::uint64_t master_seed, std::uint64_t minutes,
                      std::uint64_t seed_pool) {
    const std::vector<std::string> presets =
        mcps::scenario::registry().names();
    PhaseResult result;
    std::vector<PhaseResult> locals(clients);
    std::vector<std::string> failures(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto t0 = Clock::now();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            PhaseResult& mine = locals[c];
            try {
                mcps::serve::Client client{ep};
                std::mt19937_64 rng{master_seed * 1000003 + c};
                for (std::uint64_t i = 0; i < requests_per_client; ++i) {
                    mcps::scenario::ScenarioSpec spec;
                    spec.name = presets[rng() % presets.size()];
                    spec.seed = master_seed + rng() % seed_pool;
                    spec.minutes = minutes;
                    const auto qos = pick_class(rng());
                    const auto r0 = Clock::now();
                    const mcps::serve::Response resp =
                        client.run(spec, qos);
                    const double ms =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - r0)
                            .count();
                    mine.latency_ms.add(ms);
                    if (resp.ok()) {
                        ++mine.totals.ok;
                        if (resp.cached) ++mine.totals.cached;
                    } else if (resp.rejected()) {
                        ++mine.totals.rejected;
                    } else {
                        ++mine.totals.errors;
                    }
                }
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    result.wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (unsigned c = 0; c < clients; ++c) {
        if (!failures[c].empty()) {
            std::cerr << "mcps_load: client " << c << ": " << failures[c]
                      << "\n";
            ++result.totals.errors;
        }
        result.totals.ok += locals[c].totals.ok;
        result.totals.cached += locals[c].totals.cached;
        result.totals.rejected += locals[c].totals.rejected;
        result.totals.errors += locals[c].totals.errors;
        result.latency_ms.merge(locals[c].latency_ms);
    }
    return result;
}

/// Copies every non-null metric of a bench_io-schema report at \p path
/// into \p json under PREFIX/. \throws std::runtime_error when the
/// file cannot be read or does not conform to the schema.
void import_metrics(mcps::benchio::JsonReporter& json,
                    const std::string& path, const std::string& prefix) {
    std::ifstream in{path};
    if (!in) {
        throw std::runtime_error{"--import-metrics: cannot read '" + path +
                                 "'"};
    }
    const std::string text{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
    std::istringstream report{text};
    std::string error;
    if (!mcps::obs::validate_bench_json(report, error)) {
        throw std::runtime_error{"--import-metrics: " + path + ": " + error};
    }
    const mcps::obs::json::Value root = mcps::obs::json::parse(text);
    for (const auto& m : root.get("metrics")->array) {
        const auto* value = m.get("value");
        if (value->type != mcps::obs::json::Value::Type::kNumber) continue;
        json.metric(prefix + "/" + m.get("name")->string, value->number,
                    m.get("unit")->string);
    }
}

void usage(std::ostream& os) {
    os << "usage: mcps_load [options]\n"
          "  --embed                start an in-process server (ephemeral "
          "TCP port)\n"
          "  --port N / --host A    target an external TCP server\n"
          "  --unix PATH            target an external Unix-socket server\n"
          "  --clients N            concurrent clients (default 4)\n"
          "  --clients-list 1,4,16  sweep several concurrency levels\n"
          "  --requests N           requests per client (default 50)\n"
          "  --seed N               master workload seed (default 42)\n"
          "  --minutes N            scenario minutes per request "
          "(default 1)\n"
          "  --seed-pool N          distinct seeds per preset (default 12;"
          " smaller = more cache hits)\n"
          "  --workers N            embedded server workers (default 4)\n"
          "  --queue N              embedded admission capacity "
          "(default 64)\n"
          "  --cache N              embedded cache entries (default 256)\n"
          "  --drain                send a drain command when done\n"
          "  --import-metrics F P   splice metrics of bench JSON F under "
          "prefix P\n"
          "  --json PATH            machine-readable report\n"
          "  --quick                tiny smoke workload\n";
}

}  // namespace

int main(int argc, char** argv) {
    using mcps::cli::CliError;
    bool embed = false, drain = false;
    std::string host = "127.0.0.1", unix_sock;
    std::uint64_t port = 0, requests = 50, seed = 42, minutes = 1;
    std::uint64_t seed_pool = 12;
    std::vector<unsigned> client_list;
    mcps::serve::ServerConfig embed_cfg;
    embed_cfg.workers = 4;
    std::vector<std::pair<std::string, std::string>> imports;
    const bool quick = mcps::benchio::quick_mode(argc, argv);
    mcps::benchio::JsonReporter json{argc, argv, "serve_load"};
    try {
        mcps::cli::Args args{argc, argv};
        while (!args.done()) {
            const auto arg = args.next();
            if (arg == "--embed") {
                embed = true;
            } else if (arg == "--port") {
                port = mcps::cli::parse_u64(arg, args.value(arg));
                if (port > 65535) throw CliError{"--port: out of range"};
            } else if (arg == "--host") {
                host = std::string{args.value(arg)};
            } else if (arg == "--unix") {
                unix_sock = std::string{args.value(arg)};
            } else if (arg == "--clients") {
                client_list = {static_cast<unsigned>(
                    mcps::cli::parse_u64(arg, args.value(arg)))};
            } else if (arg == "--clients-list") {
                client_list =
                    mcps::cli::parse_unsigned_list(arg, args.value(arg));
            } else if (arg == "--requests") {
                requests = mcps::cli::parse_u64(arg, args.value(arg));
            } else if (arg == "--seed") {
                seed = mcps::cli::parse_u64(arg, args.value(arg));
            } else if (arg == "--minutes") {
                minutes = mcps::cli::parse_u64(arg, args.value(arg));
            } else if (arg == "--seed-pool") {
                seed_pool = mcps::cli::parse_u64(arg, args.value(arg));
                if (seed_pool == 0) throw CliError{"--seed-pool: must be >= 1"};
            } else if (arg == "--workers") {
                embed_cfg.workers = static_cast<unsigned>(
                    mcps::cli::parse_u64(arg, args.value(arg)));
            } else if (arg == "--queue") {
                embed_cfg.queue_capacity = static_cast<std::size_t>(
                    mcps::cli::parse_u64(arg, args.value(arg)));
            } else if (arg == "--cache") {
                embed_cfg.cache_entries = static_cast<std::size_t>(
                    mcps::cli::parse_u64(arg, args.value(arg)));
            } else if (arg == "--drain") {
                drain = true;
            } else if (arg == "--import-metrics") {
                const std::string file{args.value(arg)};
                const std::string prefix{args.value(arg)};
                imports.emplace_back(file, prefix);
            } else if (arg == "--json") {
                args.value(arg);  // consumed by JsonReporter
            } else if (arg == "--quick") {
                // handled by quick_mode()
            } else if (arg == "--help") {
                usage(std::cout);
                return 0;
            } else {
                throw CliError{"unknown option '" + std::string{arg} + "'"};
            }
        }
    } catch (const CliError& e) {
        std::cerr << "mcps_load: " << e.message << "\n";
        usage(std::cerr);
        return 2;
    }
    if (client_list.empty()) client_list = {4};
    if (quick) {
        client_list = {2};
        requests = 8;
        embed_cfg.workers = 2;
    }
    if (!embed && unix_sock.empty() && port == 0) {
        std::cerr << "mcps_load: need --embed, --port or --unix\n";
        return 2;
    }
    json.set_seed(seed);

    try {
        std::unique_ptr<mcps::serve::Server> server;
        mcps::serve::Endpoint ep;
        if (embed) {
            embed_cfg.endpoint = mcps::serve::Endpoint::tcp("127.0.0.1", 0);
            server = std::make_unique<mcps::serve::Server>(embed_cfg);
            ep = server->endpoint();
        } else if (!unix_sock.empty()) {
            ep = mcps::serve::Endpoint::unix_path(unix_sock);
        } else {
            ep = mcps::serve::Endpoint::tcp(
                host, static_cast<std::uint16_t>(port));
        }

        std::printf("# mcps_load against %s (requests/client=%llu, "
                    "minutes=%llu, seed-pool=%llu)\n",
                    ep.to_string().c_str(),
                    static_cast<unsigned long long>(requests),
                    static_cast<unsigned long long>(minutes),
                    static_cast<unsigned long long>(seed_pool));
        std::printf("%8s %9s %10s %9s %9s %9s %8s %8s %8s\n", "clients",
                    "total", "rps", "p50_ms", "p95_ms", "p99_ms", "cached",
                    "rejected", "errors");

        bool any_failed = false;
        for (const unsigned clients : client_list) {
            const PhaseResult r = run_phase(ep, clients, requests, seed,
                                            minutes, seed_pool);
            const std::uint64_t total = r.totals.ok + r.totals.rejected +
                                        r.totals.errors;
            const double rps =
                r.wall_s > 0.0 ? static_cast<double>(total) / r.wall_s : 0.0;
            const bool have_lat = r.latency_ms.total() > 0;
            const double p50 =
                have_lat ? r.latency_ms.percentile(50.0) : 0.0;
            const double p95 =
                have_lat ? r.latency_ms.percentile(95.0) : 0.0;
            const double p99 =
                have_lat ? r.latency_ms.percentile(99.0) : 0.0;
            std::printf("%8u %9llu %10.1f %9.2f %9.2f %9.2f %8llu %8llu "
                        "%8llu\n",
                        clients, static_cast<unsigned long long>(total),
                        rps, p50, p95, p99,
                        static_cast<unsigned long long>(r.totals.cached),
                        static_cast<unsigned long long>(r.totals.rejected),
                        static_cast<unsigned long long>(r.totals.errors));
            const std::string p = "serve/c" + std::to_string(clients);
            json.metric(p + "/throughput_rps", rps, "requests/s");
            json.metric(p + "/p50_ms", p50, "ms");
            json.metric(p + "/p95_ms", p95, "ms");
            json.metric(p + "/p99_ms", p99, "ms");
            json.metric(p + "/completed",
                        static_cast<double>(r.totals.ok), "requests");
            json.metric(p + "/cached",
                        static_cast<double>(r.totals.cached), "requests");
            json.metric(p + "/rejected",
                        static_cast<double>(r.totals.rejected), "requests");
            json.metric(p + "/errors",
                        static_cast<double>(r.totals.errors), "requests");
            if (r.totals.errors > 0) any_failed = true;
        }

        if (drain && !embed) {
            mcps::serve::Client c{ep};
            (void)c.drain();
        }
        if (server) {
            server->request_drain();
            server->wait();
        }
        for (const auto& [file, prefix] : imports) {
            import_metrics(json, file, prefix);
        }
        if (!json.write()) return 1;
        return any_failed ? 1 : 0;
    } catch (const std::exception& e) {
        std::cerr << "mcps_load: " << e.what() << "\n";
        return 1;
    }
}
