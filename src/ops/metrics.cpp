#include "ops/metrics.hpp"

#include <array>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <vector>

namespace ftcs::ops {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  const auto len = static_cast<std::size_t>(n > 0 ? n : 0);
  if (len < sizeof buf) {
    out.append(buf, len);
  } else {
    // Longer than the stack buffer (a long instance name): format straight
    // into the string, whose terminator slot takes vsnprintf's NUL.
    const std::size_t at = out.size();
    out.resize(at + len);
    std::vsnprintf(out.data() + at, len + 1, fmt, again);
  }
  va_end(again);
}

/// The histogram's `le` labels, formatted once: the bucket bounds are
/// constants, and %.9g-formatting 40 of them per class on every scrape
/// would be about half of a scrape's text-building time.
const std::array<std::string, LatencyHistogram::kBuckets>& bucket_labels() {
  static const auto labels = [] {
    std::array<std::string, LatencyHistogram::kBuckets> out;
    for (std::size_t b = 0; b < out.size(); ++b)
      appendf(out[b], "%.9g", LatencyHistogram::bucket_upper_seconds(b));
    return out;
  }();
  return labels;
}

/// One field-table row with its sampled values; both formats iterate
/// these. `name` is the Prometheus family minus the ftcs_ prefix and the
/// JSON key; `reject` books the row into ftcs_rejects_total{reason}.
struct NamedCounter {
  const char* name;
  util::StatKind kind;
  const char* reject;
  std::uint64_t total;
  std::uint64_t delta;
};

template <class Block>
void append_rows(std::vector<NamedCounter>& out, const Block& t,
                 const Block& d) {
  for (const util::StatField<Block>& f : Block::fields())
    out.push_back({f.name, f.kind, f.reject, t.*f.member, d.*f.member});
}

/// Every row of the exchange-level blocks in table order: the RouterStats
/// rows first, so the reject book reads in RejectReason order.
std::vector<NamedCounter> exchange_counters(const MetricsRegistry::Sample& s) {
  std::vector<NamedCounter> out;
  append_rows(out, s.total.router, s.delta.router);
  append_rows(out, s.total, s.delta);
  return out;
}

/// Federation-wide rows (front-end books + merged trunk stats); emitted
/// only on federated samples.
std::vector<NamedCounter> fed_counters(const MetricsRegistry::Sample& s) {
  std::vector<NamedCounter> out;
  append_rows(out, s.fed_total, s.fed_delta);
  append_rows(out, s.fed_total.trunks, s.fed_delta.trunks);
  return out;
}

/// `ftcs_<name>` family per named row: TYPE line plus the total.
void append_prom_rows(std::string& out, const std::vector<NamedCounter>& rows,
                      const char* inst) {
  for (const NamedCounter& c : rows) {
    if (!c.name) continue;
    appendf(out, "# TYPE ftcs_%s %s\n", c.name,
            c.kind == util::StatKind::kMax ? "gauge" : "counter");
    appendf(out, "ftcs_%s{exchange=\"%s\"} %" PRIu64 "\n", c.name, inst,
            c.total);
  }
}

/// The JSON "total" and "delta" objects of the rows: name keys, then
/// rejects_<reason> keys.
void append_json_rows(std::string& out, const std::vector<NamedCounter>& rows) {
  for (const bool total : {true, false}) {
    appendf(out, "\"%s\":{", total ? "total" : "delta");
    const char* sep = "";
    for (const NamedCounter& c : rows) {
      if (!c.name) continue;
      appendf(out, "%s\"%s\":%" PRIu64, sep, c.name,
              total ? c.total : c.delta);
      sep = ",";
    }
    for (const NamedCounter& c : rows) {
      if (!c.reject) continue;
      appendf(out, "%s\"rejects_%s\":%" PRIu64, sep, c.reject,
              total ? c.total : c.delta);
      sep = ",";
    }
    out += "},";
  }
}

}  // namespace

MetricsRegistry::Sample MetricsRegistry::sample(const svc::Federation& fed) {
  Sample s;
  s.federated = true;
  s.fed_total = fed.stats();
  s.fed_delta = s.fed_total;
  s.fed_delta -= fed_last_;
  fed_last_ = s.fed_total;
  // Merged member stats feed the single-exchange families unchanged.
  s.total = s.fed_total.members;
  s.delta = s.total;
  s.delta -= last_;
  last_ = s.total;
  s.active_calls = fed.active_calls();
  s.pending = fed.pending();
  s.failed_switches = fed.failed_switch_count();
  s.stuck_switches = fed.stuck_switch_count();
  s.shorted = fed.shorted();
  s.shards = fed.shards();
  s.half_calls = fed.active_inter_calls();
  s.trunks = fed.trunk_gauges();
  s.scrape_seq = ++seq_;
  return s;
}

MetricsRegistry::Sample MetricsRegistry::sample(const svc::Exchange& ex) {
  Sample s;
  s.total = ex.stats();
  s.delta = s.total;
  s.delta -= last_;
  last_ = s.total;
  s.active_calls = ex.active_calls();
  s.pending = ex.pending();
  s.failed_switches = ex.failed_switch_count();
  s.stuck_switches = ex.stuck_switch_count();
  s.shorted = ex.shorted();
  s.scrape_seq = ++seq_;
  return s;
}

std::string MetricsRegistry::prometheus(const Sample& s) const {
  std::string out;
  out.reserve(16 * 1024);
  const char* inst = instance_.c_str();

  const std::vector<NamedCounter> rows = exchange_counters(s);
  append_prom_rows(out, rows, inst);

  appendf(out, "# TYPE ftcs_rejects_total counter\n");
  for (const NamedCounter& c : rows) {
    if (!c.reject) continue;
    appendf(out, "ftcs_rejects_total{exchange=\"%s\",reason=\"%s\"} %" PRIu64
                 "\n",
            inst, c.reject, c.total);
  }

  // Per-interval deltas, pre-computed for scrapers that do not rate().
  appendf(out, "# TYPE ftcs_scrape_delta gauge\n");
  for (const NamedCounter& c : rows) {
    if (!c.name) continue;
    appendf(out, "ftcs_scrape_delta{exchange=\"%s\",counter=\"%s\"} %" PRIu64
                 "\n",
            inst, c.name, c.delta);
  }

  appendf(out, "# TYPE ftcs_active_calls gauge\n");
  appendf(out, "ftcs_active_calls{exchange=\"%s\"} %zu\n", inst,
          s.active_calls);
  appendf(out, "# TYPE ftcs_pending_requests gauge\n");
  appendf(out, "ftcs_pending_requests{exchange=\"%s\"} %zu\n", inst, s.pending);
  appendf(out, "# TYPE ftcs_failed_switches gauge\n");
  appendf(out, "ftcs_failed_switches{exchange=\"%s\"} %zu\n", inst,
          s.failed_switches);
  appendf(out, "# TYPE ftcs_stuck_switches gauge\n");
  appendf(out, "ftcs_stuck_switches{exchange=\"%s\"} %zu\n", inst,
          s.stuck_switches);
  appendf(out, "# TYPE ftcs_shorted gauge\n");
  appendf(out, "ftcs_shorted{exchange=\"%s\"} %d\n", inst, s.shorted ? 1 : 0);
  appendf(out, "# TYPE ftcs_scrape_seq counter\n");
  appendf(out, "ftcs_scrape_seq{exchange=\"%s\"} %" PRIu64 "\n", inst,
          s.scrape_seq);

  // Per-class SLA books: one family per ClassStats row, then the
  // setup-latency histogram in native Prometheus shape (cumulative buckets,
  // le ascending, +Inf last, _sum/_count trailers).
  for (const util::StatField<ClassStats>& f : ClassStats::fields()) {
    appendf(out, "# TYPE ftcs_class_%s_total counter\n", f.name);
    for (std::size_t c = 0; c < kQosClasses; ++c)
      appendf(out,
              "ftcs_class_%s_total{exchange=\"%s\",class=\"%zu\"} %" PRIu64
              "\n",
              f.name, inst, c, s.total.classes[c].*f.member);
  }

  appendf(out, "# TYPE ftcs_setup_latency_seconds histogram\n");
  const auto& le = bucket_labels();
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    const LatencyHistogram& h = s.total.classes[c].setup;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      cum += h.bucket(b);
      appendf(out,
              "ftcs_setup_latency_seconds_bucket{exchange=\"%s\",class=\"%zu\","
              "le=\"%s\"} %" PRIu64 "\n",
              inst, c, le[b].c_str(), cum);
    }
    appendf(out,
            "ftcs_setup_latency_seconds_bucket{exchange=\"%s\",class=\"%zu\","
            "le=\"+Inf\"} %" PRIu64 "\n",
            inst, c, h.count());
    appendf(out,
            "ftcs_setup_latency_seconds_sum{exchange=\"%s\",class=\"%zu\"} "
            "%.9g\n",
            inst, c, h.sum_seconds());
    appendf(out,
            "ftcs_setup_latency_seconds_count{exchange=\"%s\",class=\"%zu\"} %"
            PRIu64 "\n",
            inst, c, h.count());
  }

  // Pre-extracted quantiles for dashboards without histogram_quantile().
  appendf(out, "# TYPE ftcs_setup_latency_p50_seconds gauge\n");
  for (std::size_t c = 0; c < kQosClasses; ++c)
    appendf(out,
            "ftcs_setup_latency_p50_seconds{exchange=\"%s\",class=\"%zu\"} "
            "%.9g\n",
            inst, c, s.total.classes[c].setup.quantile(0.50));
  appendf(out, "# TYPE ftcs_setup_latency_p99_seconds gauge\n");
  for (std::size_t c = 0; c < kQosClasses; ++c)
    appendf(out,
            "ftcs_setup_latency_p99_seconds{exchange=\"%s\",class=\"%zu\"} "
            "%.9g\n",
            inst, c, s.total.classes[c].setup.quantile(0.99));

  // Federation families: trunk books + half-call gauges, per group where
  // the group identity matters (occupancy/health) and flat where a
  // federation-wide tally is the useful shape.
  if (s.federated) {
    append_prom_rows(out, fed_counters(s), inst);
    appendf(out, "# TYPE ftcs_shards gauge\n");
    appendf(out, "ftcs_shards{exchange=\"%s\"} %zu\n", inst, s.shards);
    appendf(out, "# TYPE ftcs_half_calls_active gauge\n");
    appendf(out, "ftcs_half_calls_active{exchange=\"%s\"} %zu\n", inst,
            s.half_calls);
    appendf(out, "# TYPE ftcs_trunk_group_capacity gauge\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_capacity{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %u\n",
              inst, g.group, g.from, g.to, g.capacity);
    appendf(out, "# TYPE ftcs_trunk_group_usable gauge\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_usable{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %u\n",
              inst, g.group, g.from, g.to, g.usable);
    appendf(out, "# TYPE ftcs_trunk_group_occupancy gauge\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_occupancy{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %u\n",
              inst, g.group, g.from, g.to, g.occupancy);
    appendf(out, "# TYPE ftcs_trunk_group_claims_total counter\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_claims_total{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %" PRIu64 "\n",
              inst, g.group, g.from, g.to, g.claims);
    appendf(out, "# TYPE ftcs_trunk_group_rejects_total counter\n");
    for (const svc::TrunkGauge& g : s.trunks)
      appendf(out,
              "ftcs_trunk_group_rejects_total{exchange=\"%s\",group=\"%u\","
              "from=\"%u\",to=\"%u\"} %" PRIu64 "\n",
              inst, g.group, g.from, g.to, g.rejects);
  }
  return out;
}

std::string MetricsRegistry::json(const Sample& s) const {
  std::string out;
  out.reserve(8 * 1024);
  appendf(out, "{\"instance\":\"%s\",\"scrape_seq\":%" PRIu64 ",",
          instance_.c_str(), s.scrape_seq);
  appendf(out,
          "\"gauges\":{\"active_calls\":%zu,\"pending\":%zu,"
          "\"failed_switches\":%zu,\"stuck_switches\":%zu,\"shorted\":%s},",
          s.active_calls, s.pending, s.failed_switches, s.stuck_switches,
          s.shorted ? "true" : "false");
  append_json_rows(out, exchange_counters(s));
  out += "\"classes\":[";
  for (std::size_t c = 0; c < kQosClasses; ++c) {
    const ClassStats& cs = s.total.classes[c];
    appendf(out, "%s{\"class\":%zu", c == 0 ? "" : ",", c);
    for (const util::StatField<ClassStats>& f : ClassStats::fields())
      appendf(out, ",\"%s\":%" PRIu64, f.name, cs.*f.member);
    appendf(out,
            ",\"count\":%" PRIu64
            ",\"sum_seconds\":%.9g,\"p50_seconds\":%.9g,\"p99_seconds\":%.9g}",
            cs.setup.count(), cs.setup.sum_seconds(), cs.setup.quantile(0.50),
            cs.setup.quantile(0.99));
  }
  out += "]";
  if (s.federated) {
    appendf(out,
            ",\"federation\":{\"shards\":%zu,\"half_calls_active\":%zu,",
            s.shards, s.half_calls);
    append_json_rows(out, fed_counters(s));
    out += "\"trunk_groups\":[";
    bool first = true;
    for (const svc::TrunkGauge& g : s.trunks) {
      appendf(out,
              "%s{\"group\":%u,\"from\":%u,\"to\":%u,\"capacity\":%u,"
              "\"usable\":%u,\"occupancy\":%u,\"claims\":%" PRIu64
              ",\"rejects\":%" PRIu64 "}",
              first ? "" : ",", g.group, g.from, g.to, g.capacity, g.usable,
              g.occupancy, g.claims, g.rejects);
      first = false;
    }
    out += "]}";
  }
  out += "}";
  return out;
}

}  // namespace ftcs::ops
