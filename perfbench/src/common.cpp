#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <time.h>

#include "pinned_presets.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t start_ns) noexcept {
    return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sustained(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() - 1 - v.size() / 4];
}

double tail10(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v.size() > 10 ? v[v.size() - 11] : v.front();
}

int Tracer::begin(std::string name, std::uint64_t unit) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), unit, now_ns(), 0, parent});
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void Tracer::end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
    // Children of one span run on the span's own thread, nested and in
    // sequence, so the part they cover is the sum of their durations.
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
        }
    }
    return self;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) {
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
    }
    return out;
}

bool Tracer::write(const std::string& path) const {
    std::ofstream os{path};
    if (!os) return false;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"unit\":" << s.unit
           << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"parent\":" << s.parent << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

bool Context::setup_done() {
    setup_s_ = static_cast<double>(now_ns() - opt.spawn_ns) / 1e9;
    return opt.setup_only;
}

std::vector<bool> pinned_ok(const std::vector<std::string>& presets) {
    std::vector<bool> out;
    for (const std::string& p : presets) {
        const mcps::testsupport::Pin* pin = mcps::testsupport::find_pin(p);
        const mcps::scenario::RunArtifacts a =
            mcps::scenario::registry().run(mcps::testsupport::pinned_spec(p));
        out.push_back(pin != nullptr && a.fingerprint == pin->fingerprint &&
                      mcps::testsupport::outcome_digest(a) == pin->digest);
    }
    return out;
}

std::string pinned_fingerprint_hex(const std::string& preset) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(
                      mcps::testsupport::find_pin(preset)->fingerprint));
    return hex;
}

void add_timings(double minutes_per_unit, Result& r) {
    r.add("throughput", minutes_per_unit * 1e3 / sustained(r.samples["unit_ms"]),
          "patient-min/s");
    r.add("cold_ms", sustained(r.samples["cold_ms"]), "ms");
    r.add("edit_ms", sustained(r.samples["edit_ms"]), "ms");
}

void add_self_times(const Tracer& t, std::uint64_t units, Result& r) {
    // The modules of src/ plus "bench" (the benchmark's own code between
    // calls). Spans are named "<module>.<call>".
    static const char* const kModules[] = {
        "bench",  "sim",      "net",      "devices", "physio",
        "ice",    "core",     "obs",      "scenario", "hospital",
        "ward",   "serve",    "pipeline", "analysis",
    };
    std::map<std::string, std::int64_t> by_module;
    const std::vector<std::int64_t> self = t.self_ns();
    for (std::size_t i = 0; i < self.size(); ++i) {
        const std::string& name = t.spans()[i].name;
        by_module[name.substr(0, name.find('.'))] += self[i];
    }
    const double per_unit = units > 0 ? static_cast<double>(units) : 1.0;
    for (const char* m : kModules) {
        r.add(std::string{"self_ms."} + m,
              static_cast<double>(by_module[m]) / 1e6 / per_unit, "ms");
    }
}

}  // namespace perfbench
