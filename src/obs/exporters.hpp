/// \file exporters.hpp
/// \brief Event-log and metrics serialization: JSONL, Chrome trace_event.
///
/// Three formats:
///
///  * JSONL — one event per line, integer microsecond timestamps,
///    deterministic number formatting. This is the golden-trace format:
///    two runs are behaviourally identical iff their JSONL exports are
///    byte-identical.
///
///      {"t_us":1000000,"kind":"bus_publish","src":"oxi1",
///       "detail":"vitals/oxi1/spo2","value":17}
///
///  * Chrome trace_event JSON — load in chrome://tracing or Perfetto for
///    a per-device timeline of the scenario.
///
///  * Metrics summary — MetricsRegistry::write_table / write_json (see
///    metrics.hpp).
///
/// read_jsonl parses exactly what write_jsonl emits (the round-trip is
/// exact); validate_bench_json checks the `--json` report schema every
/// bench binary emits via benchio::JsonReporter. Both read through the
/// one bounded JSON reader (json.hpp): read_jsonl pulls each line's
/// fields off its cursor, validate_bench_json walks its value tree.

#pragma once

#include <iosfwd>
#include <string>

#include "event_log.hpp"

namespace mcps::obs {

/// Write one event per line; byte-deterministic for a given log.
void write_jsonl(const EventLog& log, std::ostream& os);

/// Parse a JSONL event stream produced by write_jsonl. Each line is one
/// object with an integer "t_us", string "kind", "src" and "detail", and
/// a number-or-null "value" (null reads back as NaN); other members are
/// skipped. \throws std::runtime_error naming the offending line on
/// malformed input, a missing, duplicate or mistyped field, a
/// fractional or out-of-range "t_us", or an unknown event kind.
[[nodiscard]] EventLog read_jsonl(std::istream& is);

/// Write the Chrome trace_event ("chrome://tracing") representation:
/// one instant event per log entry, one timeline lane per source (lanes
/// numbered by first appearance), plus thread-name metadata records.
void write_chrome_trace(const EventLog& log, std::ostream& os);

/// Validate a benchio::JsonReporter report: must be a JSON object with
/// a string "bench", an integer "seed" and a "metrics" array whose
/// entries each carry a string "name", a finite-or-null "value" and a
/// string "unit". Returns true on success; otherwise fills \p error.
[[nodiscard]] bool validate_bench_json(std::istream& is, std::string& error);

}  // namespace mcps::obs
