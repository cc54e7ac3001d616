/// \file common.hpp
/// \brief Shared plumbing of the benchmark workloads: options, clocks,
/// spans, order statistics and the result record.
///
/// Every workload is one function that does its set-up, calls
/// Context::setup_done(), then runs timed units until the measurement
/// window closes, checks its outputs and fills a Result. With
/// `--trace 1` the same units record spans (name, start, end, parent,
/// unit id) around the calls they make into the program's public API;
/// the spans are held in memory and written to a file at the end.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock (CLOCK_MONOTONIC on Linux, the
/// clock the launcher stamps `--spawn-ns` with).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Seconds elapsed since \p start_ns.
[[nodiscard]] double seconds_since(std::int64_t start_ns) noexcept;

/// SplitMix64: deterministic per-unit seeds derived from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed,
                                     std::uint64_t stream) noexcept;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::int64_t spawn_ns = 0;  ///< launcher's clock just before spawn
    unsigned threads = 1;       ///< load-generating threads
    unsigned connections = 0;   ///< serve client connections
    std::string out_dir = ".";  ///< where the span file goes
};

/// Median of \p v. 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// The run's figure for a list of unit times: the upper quartile, the
/// smallest value with at most a quarter of the samples above it. On a
/// shared host, unit times are bimodal: a quiet level and a level about
/// 1.5x slower while other tenants load the machine. The slow level is
/// present in almost every run and the quiet one comes and goes, so medians
/// and means move with the share of quiet time in a run, while the upper
/// quartile stays on the slow level. 0 when empty.
[[nodiscard]] double sustained(std::vector<double> v);

/// The highest order statistic with at least ten samples beyond it:
/// sorted[n - 11]. With ten samples or fewer no such value exists and the
/// minimum is returned; the caller reports the sample count beside it.
[[nodiscard]] double tail10(std::vector<double> v);

/// One span around a call into the program. `parent` indexes the span
/// that encloses it on the same thread, -1 at top level.
struct Span {
    std::string name;
    std::uint64_t unit = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
};

/// Per-thread span recorder. Disabled recorders cost one branch.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_{enabled} {}

    /// Open a span; returns its index (or -1 when disabled).
    int begin(std::string name, std::uint64_t unit);
    void end(int index);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover, in ns.
    [[nodiscard]] std::vector<std::int64_t> self_ns() const;

    /// Durations (ms) of the spans called \p name.
    [[nodiscard]] std::vector<double> durations_ms(
        const std::string& name) const;

    /// Write every span as JSON to \p path. Returns false on I/O failure.
    bool write(const std::string& path) const;

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span.
class Scope {
public:
    Scope(Tracer& t, std::string name, std::uint64_t unit)
        : tracer_{t}, index_{t.begin(std::move(name), unit)} {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& tracer_;
    int index_;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload process reports.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Run settings stamped into the report (string values).
    std::vector<std::pair<std::string, std::string>> stamp;
    /// Raw unit times (ms) by name, kept in the report file.
    std::map<std::string, std::vector<double>> samples;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back(Metric{std::move(name), value, std::move(unit)});
    }
    /// Count one checked operation; a mismatch is a failure.
    void check(bool ok) {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
        }
    }
};

/// Set-up bookkeeping shared by every workload.
class Context {
public:
    explicit Context(const Options& o) : opt{o} {}

    /// Record the end of set-up. Returns true when the process was started
    /// only to measure set-up and should stop here.
    bool setup_done();

    [[nodiscard]] double setup_s() const noexcept { return setup_s_; }

    const Options& opt;

private:
    double setup_s_ = 0.0;
};

/// Run each preset's pinned minutes=1 spec through the registry; true where
/// the fingerprint and outcome digest match the pins.
[[nodiscard]] std::vector<bool> pinned_ok(const std::vector<std::string>& presets);

/// The pinned fingerprint of \p preset as "0x%016llx" (the form
/// RunArtifacts::fingerprint_hex prints).
[[nodiscard]] std::string pinned_fingerprint_hex(const std::string& preset);

/// Add the end-to-end timings of an untraced run from its samples
/// "unit_ms", "cold_ms" and "edit_ms": throughput is \p minutes_per_unit
/// simulated patient-minutes over the sustained unit time, and cold_ms and
/// edit_ms are the sustained times of their samples.
void add_timings(double minutes_per_unit, Result& r);

/// Add the span-derived layer ledger shared by all workloads: self time
/// per module (spans are named "<module>.<call>") in ms per unit.
void add_self_times(const Tracer& t, std::uint64_t units, Result& r);

// Workloads. Each fills \p r; a thrown exception is a failed run.
void run_presets(Context& ctx, Result& r, Tracer& t);
void run_hospital(Context& ctx, Result& r, Tracer& t);
void run_pipeline(Context& ctx, Result& r, Tracer& t);

/// The serve layer's per-layer metrics from one untraced open-loop session
/// of \p seconds over \p connections. The pipeline workload's traced run
/// calls this, so the serve layer is measured by a listed workload.
void add_serve_layers(std::uint64_t seed, double seconds, unsigned connections,
                      Result& r);

}  // namespace perfbench
