// health_report — offline post-mortem reader for flight-recorder dumps.
//
// Reads the JSON written by obs::FlightRecorder::dump_to_file (on crash
// injection, RPC-deadline timeout bursts, or bench finalize), tallies the
// failure symptoms recorded in each node's ring, reconstructs a merged
// post-mortem timeline, and names the most likely faulty node — from
// symptoms alone. The ground-truth FaultLog is deliberately not part of
// the dump, so this tool demonstrates that the recorded evidence
// (timeouts, drops, failovers, hedges, detector transitions) is sufficient
// to localize a fault after the fact.
//
// Optionally merges a metrics snapshot (--metrics=FILE, the --metrics-out
// JSON) to show the health plane's final per-node gauges next to the
// ring-derived tallies.
//
// Both inputs are parsed leniently (tools/mini_json.h): a dump truncated
// mid-write — the normal case for a file written at crash time — yields a
// warning and a partial report, never a parse abort.
//
// Multi-shard dumps are first-class input: a parallel run merges its
// per-shard flight domains node-by-node before dumping, so each node still
// appears exactly once with its ring in timestamp order. The timeline's
// stable sort breaks equal-timestamp ties by dump (node-major) order,
// which is shard-count independent — the report is byte-stable for a
// fixed (seed, shard count).
//
// Usage: health_report <flight.json> [--metrics=FILE] [--timeline=N]
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "mini_json.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"

namespace {

using namespace hpres;  // NOLINT(google-build-using-namespace)
using tools::JsonParser;
using tools::JsonValue;
using tools::ParseError;
using tools::to_i64;
using tools::to_u64;

struct Event {
  SimTime t_ns = 0;
  std::size_t node = 0;
  std::string name;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t code = 0;
};

struct NodeReport {
  std::size_t id = 0;
  std::string label;
  std::uint64_t written = 0;   ///< lifetime events (ring may have wrapped)
  std::uint64_t kept = 0;      ///< events present in the dump window
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops_down = 0;
  std::uint64_t drops_injected = 0;
  std::uint64_t failovers = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t hedges_against = 0;
  std::uint64_t degraded_ops = 0;
  std::uint64_t queue_max = 0;
  int last_health_state = -1;  ///< last kHealthState `a`, -1 = none seen

  [[nodiscard]] bool is_server() const {
    return label.rfind("server", 0) == 0;
  }

  /// Symptom-weighted suspicion: deadline expiries and message drops are
  /// the strongest distress signals a sick node leaves in its own ring
  /// (both are recorded against the node that failed to deliver), failover
  /// fetches and hedges mark the slots peers routed around, and a detector
  /// flag (recorded state >= kGraySlow) is near-conclusive — but inferred,
  /// not ground truth, so it weighs in rather than decides.
  [[nodiscard]] double suspicion() const {
    double s = 3.0 * static_cast<double>(timeouts) +
               2.0 * static_cast<double>(drops_down + drops_injected) +
               2.0 * static_cast<double>(failovers) +
               1.0 * static_cast<double>(hedges_against + retries);
    if (last_health_state >=
        static_cast<int>(obs::NodeHealthState::kGraySlow)) {
      s += 50.0;
    }
    return s;
  }
};

struct Dump {
  std::string reason;
  SimTime dumped_at_ns = 0;
  std::uint64_t ring_size = 0;
  std::uint64_t dropped_records = 0;
  std::vector<NodeReport> nodes;
  std::vector<Event> events;  ///< all nodes merged, dump order
};

void fold_event(const JsonValue& ev, NodeReport& node, Dump& dump) {
  Event e;
  e.t_ns = to_i64(ev.find("t"));
  e.node = node.id;
  const JsonValue* name = ev.find("e");
  e.name = name != nullptr ? name->raw : "?";
  e.a = to_u64(ev.find("a"));
  e.b = to_u64(ev.find("b"));
  e.code = to_u64(ev.find("c"));
  ++node.kept;

  if (e.name == "rpc_timeout") {
    ++node.timeouts;
  } else if (e.name == "rpc_retry") {
    ++node.retries;
  } else if (e.name == "net_drop") {
    e.code == 0 ? ++node.drops_down : ++node.drops_injected;
  } else if (e.name == "failover") {
    ++node.failovers;
  } else if (e.name == "fallback") {
    ++node.fallbacks;
  } else if (e.name == "hedge_fired") {
    ++node.hedges_against;
  } else if (e.name == "degraded") {
    ++node.degraded_ops;
  } else if (e.name == "queue_depth") {
    node.queue_max = std::max(node.queue_max, e.a);
  } else if (e.name == "health_state") {
    node.last_health_state = static_cast<int>(e.a);
  }
  dump.events.push_back(std::move(e));
}

/// Streams the dump: one node object at a time, folding events as they
/// parse. On ParseError everything already folded is kept.
bool parse_dump(std::string_view text, Dump& dump) {
  std::size_t events_before_error = 0;
  try {
    JsonParser parser(text);
    parser.require('{');
    std::string key = parser.parse_key();
    if (key != "flight") {
      std::fprintf(stderr, "health_report: not a flight dump (top-level"
                           " \"%s\")\n", key.c_str());
      return false;
    }
    parser.require('{');
    do {
      key = parser.parse_key();
      if (key == "reason") {
        dump.reason = parser.parse_value().raw;
      } else if (key == "dumped_at_ns") {
        dump.dumped_at_ns = tools::to_i64_value(parser.parse_value());
      } else if (key == "ring_size") {
        dump.ring_size = to_u64_value(parser.parse_value());
      } else if (key == "dropped_records") {
        dump.dropped_records = to_u64_value(parser.parse_value());
      } else if (key == "nodes") {
        parser.require('[');
        if (!parser.consume(']')) {
          do {
            const JsonValue node_obj = parser.parse_value();
            NodeReport node;
            node.id = to_u64(node_obj.find("node"));
            const JsonValue* label = node_obj.find("label");
            node.label = label != nullptr ? label->raw
                                          : "node" + std::to_string(node.id);
            node.written = to_u64(node_obj.find("written"));
            if (const JsonValue* evs = node_obj.find("events");
                evs != nullptr) {
              for (const JsonValue& ev : evs->items) {
                fold_event(ev, node, dump);
              }
            }
            dump.nodes.push_back(std::move(node));
            events_before_error = dump.events.size();
          } while (parser.consume(','));
          parser.require(']');
        }
      } else {
        (void)parser.parse_value();
      }
    } while (parser.consume(','));
    parser.require('}');  // flight
    parser.require('}');  // top level
  } catch (const ParseError& e) {
    std::fprintf(stderr,
                 "health_report: warning: malformed JSON at byte %zu (%s);"
                 " continuing with %zu nodes / %zu events parsed so far\n",
                 e.byte(), e.what(), dump.nodes.size(),
                 events_before_error);
    // Drop events from the node that was mid-parse when the error hit —
    // its tallies may be half-folded, the completed nodes are intact.
    dump.events.resize(events_before_error);
  }
  return true;
}

const char* state_name(int ordinal) {
  if (ordinal < 0) return "-";
  return obs::node_health_state_name(
      static_cast<obs::NodeHealthState>(ordinal));
}

double ms(SimTime t) { return static_cast<double>(t) * 1e-6; }

void print_timeline(const Dump& dump, std::size_t limit) {
  // Interesting events only: the periodic snapshots and per-op start/end
  // markers would drown the distress signals they contextualize. The sort
  // must be stable: merged multi-shard dumps carry equal timestamps across
  // nodes, and dump (node-major) order is the deterministic tie-break.
  std::vector<const Event*> line;
  for (const Event& e : dump.events) {
    if (e.name == "op_start" || e.name == "op_end" ||
        e.name == "queue_depth") {
      continue;
    }
    line.push_back(&e);
  }
  std::stable_sort(line.begin(), line.end(),
                   [](const Event* a, const Event* b) {
                     return a->t_ns < b->t_ns;
                   });
  const std::size_t skip = line.size() > limit ? line.size() - limit : 0;
  std::printf("\npost-mortem timeline (%zu of %zu distress events%s)\n",
              line.size() - skip, line.size(),
              skip > 0 ? ", oldest elided" : "");
  for (std::size_t i = skip; i < line.size(); ++i) {
    const Event& e = *line[i];
    std::string label = "node" + std::to_string(e.node);
    for (const NodeReport& n : dump.nodes) {
      if (n.id == e.node) {
        label = n.label;
        break;
      }
    }
    std::printf("  %10.3f ms  %-9s %-13s", ms(e.t_ns), label.c_str(),
                e.name.c_str());
    if (e.name == "rpc_timeout") {
      std::printf(" deadline %.1f ms expired (caller node %" PRIu64 ")",
                  ms(static_cast<SimTime>(e.a)), e.b);
    } else if (e.name == "rpc_retry") {
      std::printf(" attempt %" PRIu64 " re-sent (caller node %" PRIu64 ")",
                  e.a, e.b);
    } else if (e.name == "net_drop") {
      std::printf(" %" PRIu64 " B from node %" PRIu64 " (%s)", e.a, e.b,
                  e.code == 0 ? "node down" : "injected loss");
    } else if (e.name == "health_state") {
      std::printf(" %s -> %s", state_name(static_cast<int>(e.b)),
                  state_name(static_cast<int>(e.a)));
    } else if (e.name == "repair_phase") {
      static const char* const kPhases[] = {"probe", "fetch", "reconstruct",
                                            "replace"};
      std::printf(" %s done in %.3f ms",
                  e.code < 4 ? kPhases[e.code] : "?",
                  ms(static_cast<SimTime>(e.a)));
    } else if (e.name == "hedge_fired" || e.name == "hedge_won" ||
               e.name == "failover") {
      std::printf(" (client node %" PRIu64 ")", e.b);
    } else if (e.name == "dump") {
      std::printf(" trigger #%" PRIu64, e.a);
    }
    std::printf("\n");
  }
}

/// Metrics snapshot merge: shows the health plane's exported gauges
/// (health.node_state / health.score_x1000) next to the ring tallies.
void print_metrics(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "health_report: cannot open %s\n", path.c_str());
    return;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  struct Row {
    std::string name, node, op;
    std::int64_t value = 0;
  };
  std::vector<Row> rows;
  try {
    JsonParser parser(text);
    parser.require('{');
    do {
      const std::string key = parser.parse_key();
      if (key != "metrics") {
        (void)parser.parse_value();
        continue;
      }
      parser.require('[');
      if (parser.consume(']')) continue;
      do {
        const JsonValue m = parser.parse_value();
        const JsonValue* comp = m.find("component");
        if (comp == nullptr || comp->raw != "health") continue;
        Row row;
        const JsonValue* name = m.find("name");
        const JsonValue* node = m.find("node");
        const JsonValue* op = m.find("op");
        row.name = name != nullptr ? name->raw : "?";
        row.node = node != nullptr ? node->raw : "?";
        row.op = op != nullptr ? op->raw : "?";
        row.value = to_i64(m.find("value"));
        rows.push_back(std::move(row));
      } while (parser.consume(','));
      parser.require(']');
    } while (parser.consume(','));
  } catch (const ParseError& e) {
    std::fprintf(stderr,
                 "health_report: warning: malformed metrics JSON at byte"
                 " %zu (%s); continuing with %zu gauges\n",
                 e.byte(), e.what(), rows.size());
  }
  if (rows.empty()) {
    std::printf("\nmetrics snapshot: no health gauges found\n");
    return;
  }
  // A fixed label, not the input path: reports over identical exports
  // under different file names must diff clean.
  std::printf("\nhealth gauges (metrics snapshot)\n");
  std::printf("  %-10s %-8s %-22s %12s\n", "node", "point", "gauge",
              "value");
  for (const Row& row : rows) {
    std::printf("  %-10s %-8s %-22s %12" PRId64, row.node.c_str(),
                row.op.c_str(), row.name.c_str(), row.value);
    if (row.name == "health.node_state") {
      std::printf("  (%s)", state_name(static_cast<int>(row.value)));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* metrics_path = nullptr;
  std::size_t timeline = 60;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = argv[i] + 10;
    } else if (arg.rfind("--timeline=", 0) == 0) {
      timeline = std::strtoull(argv[i] + 11, nullptr, 10);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: health_report <flight.json>"
                           " [--metrics=FILE] [--timeline=N]\n");
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: health_report <flight.json>"
                         " [--metrics=FILE] [--timeline=N]\n");
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "health_report: cannot open %s\n", path);
    return 2;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  Dump dump;
  if (!parse_dump(text, dump)) return 2;
  if (dump.nodes.empty()) {
    std::fprintf(stderr, "health_report: no nodes in dump\n");
    return 3;
  }

  std::printf("flight dump: reason=%s dumped_at=%.3f ms ring=%" PRIu64
              " records/node, %zu nodes, %" PRIu64 " dropped records\n",
              dump.reason.empty() ? "?" : dump.reason.c_str(),
              ms(dump.dumped_at_ns), dump.ring_size, dump.nodes.size(),
              dump.dropped_records);

  std::printf("\nper-node symptoms (ring window)\n");
  std::printf("  %-9s %7s %7s %7s %7s %7s %7s %7s %6s %-10s %9s\n", "node",
              "events", "tmo", "retry", "drop", "failov", "hedge", "degr",
              "qmax", "health", "suspicion");
  for (const NodeReport& n : dump.nodes) {
    std::printf("  %-9s %7" PRIu64 " %7" PRIu64 " %7" PRIu64 " %7" PRIu64
                " %7" PRIu64 " %7" PRIu64 " %7" PRIu64 " %6" PRIu64
                " %-10s %9.1f\n",
                n.label.c_str(), n.kept, n.timeouts, n.retries,
                n.drops_down + n.drops_injected, n.failovers,
                n.hedges_against, n.degraded_ops, n.queue_max,
                state_name(n.last_health_state), n.suspicion());
  }

  // Name the culprit from symptoms alone (servers only: client rings hold
  // op-level context, not per-node distress).
  const NodeReport* worst = nullptr;
  for (const NodeReport& n : dump.nodes) {
    if (!n.is_server() || n.suspicion() <= 0.0) continue;
    if (worst == nullptr || n.suspicion() > worst->suspicion()) worst = &n;
  }
  if (worst != nullptr) {
    std::printf("\nsuspected faulty node: %s (suspicion %.1f)\n",
                worst->label.c_str(), worst->suspicion());
  } else {
    std::printf("\nsuspected faulty node: none (no failure symptoms in"
                " window)\n");
  }

  print_timeline(dump, timeline);
  if (metrics_path != nullptr) print_metrics(metrics_path);

  std::printf("\nnodes: %zu, events: %zu\n", dump.nodes.size(),
              dump.events.size());
  return 0;
}
