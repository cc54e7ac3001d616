// perfbench_workload: runs one benchmark workload in this process and
// prints its result as one JSON line. Started by perfbench/run.py, which
// adds the process-level figures (set-up median, peak RSS) and the stamp
// fields that need the checkout (git sha).
//
//   perfbench_workload --workload presets|hospital|pipeline
//       --seed N --seconds S --trace 0|1 --spawn-ns T
//       [--threads N] [--connections N] [--setup-only] [--out-dir DIR]

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench_workload: " << why << "\n";
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
    try {
        std::size_t used = 0;
        const unsigned long long x = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument{v};
        return x;
    } catch (const std::exception&) {
        usage(flag + " expects an unsigned integer, got '" + v + "'");
    }
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--setup-only") {
            o.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value after " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = parse_u64(a, v);
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parse_u64(a, v));
        } else if (a == "--trace") {
            o.trace = parse_u64(a, v) != 0;
        } else if (a == "--spawn-ns") {
            o.spawn_ns = static_cast<std::int64_t>(parse_u64(a, v));
        } else if (a == "--threads") {
            o.threads = static_cast<unsigned>(parse_u64(a, v));
        } else if (a == "--connections") {
            o.connections = static_cast<unsigned>(parse_u64(a, v));
        } else if (a == "--out-dir") {
            o.out_dir = v;
        } else {
            usage("unknown flag " + a);
        }
    }
    if (o.spawn_ns == 0) o.spawn_ns = perfbench::now_ns();
    return o;
}

/// JSON number, or null for a non-finite value (which run.py rejects).
std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/// Peak resident set of this process (VmHWM), MiB. Unlike the launcher's
/// wait4 figure it starts at exec, so it excludes the launcher's own pages.
double peak_rss_mib() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

std::string compiler() {
#if defined(__clang__)
    return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
    return std::string{"gcc "} + __VERSION__;
#else
    return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    const unsigned nproc = std::thread::hardware_concurrency();
    // Load is generated from at most nproc threads and connections; every
    // workload is a closed loop on one thread.
    if (opt.threads != 1) {
        usage("workload '" + opt.workload + "' runs on exactly one thread");
    }
    if (opt.threads > nproc || opt.connections > nproc) {
        usage("refusing " + std::to_string(opt.threads) + " threads / " +
              std::to_string(opt.connections) + " connections on a " +
              std::to_string(nproc) + "-cpu host");
    }

    perfbench::Context ctx{opt};
    perfbench::Result r;
    perfbench::Tracer tracer{opt.trace};
    try {
        if (opt.workload == "presets") {
            perfbench::run_presets(ctx, r, tracer);
        } else if (opt.workload == "hospital") {
            perfbench::run_hospital(ctx, r, tracer);
        } else if (opt.workload == "pipeline") {
            perfbench::run_pipeline(ctx, r, tracer);
        } else {
            usage("unknown workload '" + opt.workload + "'");
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench_workload: " << opt.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    if (!opt.trace && !opt.setup_only) r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    if (opt.trace && !opt.setup_only) {
        const std::string path = opt.out_dir + "/spans-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".json";
        if (!tracer.write(path)) {
            std::cerr << "perfbench_workload: cannot write " << path << "\n";
            return 1;
        }
    }

    r.stamp.emplace_back("nproc", std::to_string(nproc));
    r.stamp.emplace_back("compiler", compiler());
    r.stamp.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
    r.stamp.emplace_back("seed", std::to_string(opt.seed));
    r.stamp.emplace_back("threads", std::to_string(opt.threads));
    r.stamp.emplace_back("connections", std::to_string(opt.connections));

    std::ostringstream os;
    os << "{\"setup_s\":" << json_number(ctx.setup_s())
       << ",\"correct\":" << (r.correct ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const perfbench::Metric& m = r.metrics[i];
        os << (i == 0 ? "" : ",") << "\"" << m.name << "\":{\"value\":"
           << json_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    }
    os << "},\"samples\":{";
    bool first = true;
    for (const auto& [name, values] : r.samples) {
        os << (first ? "" : ",") << "\"" << name << "\":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            os << (i == 0 ? "" : ",") << json_number(values[i]);
        }
        os << "]";
        first = false;
    }
    os << "},\"stamp\":{";
    for (std::size_t i = 0; i < r.stamp.size(); ++i) {
        os << (i == 0 ? "" : ",") << "\"" << r.stamp[i].first << "\":\"";
        for (const char c : r.stamp[i].second) {
            if (c == '"' || c == '\\') os << '\\';
            if (static_cast<unsigned char>(c) >= 0x20) os << c;
        }
        os << "\"";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}
