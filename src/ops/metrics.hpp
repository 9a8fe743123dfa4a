// Metrics export for soak runs: periodic ExchangeStats/RouterStats deltas
// and the per-class latency histograms, serialized as JSON or Prometheus
// text exposition (version 0.0.4).
//
// MetricsRegistry is delta-stateful: each sample() diffs the exchange's
// monotone counters against the previous scrape, so a periodic scraper gets
// per-interval activity without keeping its own books. Totals are emitted
// alongside (Prometheus counters ARE totals; the deltas ride as a labeled
// gauge family for scrapers that want them pre-computed). The caller must
// be the thread that serializes a live exchange when sampling it — stats()
// is exact between serialized entries, and the ops control plane scrapes
// at epoch boundaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/exchange.hpp"
#include "svc/federation.hpp"

namespace ftcs::ops {

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::string instance = "exchange")
      : instance_(std::move(instance)) {}

  struct Sample {
    svc::ExchangeStats total;  // counters since construction/reset
    svc::ExchangeStats delta;  // since the previous sample()
    std::size_t active_calls = 0;
    std::size_t pending = 0;
    std::size_t failed_switches = 0;
    std::size_t stuck_switches = 0;
    bool shorted = false;
    std::uint64_t scrape_seq = 0;
    // Federation scrape extras (sample(const Federation&)). When federated,
    // `total`/`delta` above hold the MERGED member ExchangeStats, so every
    // single-exchange family keeps its meaning; the trunk books and
    // half-call gauges ride alongside as ftcs_trunk_* / half-call families.
    bool federated = false;
    std::size_t shards = 0;
    std::size_t half_calls = 0;  // committed inter-exchange calls up
    std::vector<svc::TrunkGauge> trunks;
    svc::FederationStats fed_total{};
    svc::FederationStats fed_delta{};
  };

  /// Scrapes the exchange and advances the delta baseline.
  Sample sample(const svc::Exchange& ex);
  /// Federation flavour: merged member stats plus the trunk/half-call books
  /// (same delta-stateful contract; do not interleave the two flavours on
  /// one registry — the baseline is shared).
  Sample sample(const svc::Federation& fed);

  /// Prometheus text exposition of one sample.
  [[nodiscard]] std::string prometheus(const Sample& s) const;
  /// JSON sibling of the same sample (totals + delta + class books).
  [[nodiscard]] std::string json(const Sample& s) const;

  std::string scrape_prometheus(const svc::Exchange& ex) {
    return prometheus(sample(ex));
  }
  std::string scrape_json(const svc::Exchange& ex) { return json(sample(ex)); }

  [[nodiscard]] const std::string& instance() const noexcept {
    return instance_;
  }

  std::string scrape_prometheus(const svc::Federation& fed) {
    return prometheus(sample(fed));
  }
  std::string scrape_json(const svc::Federation& fed) {
    return json(sample(fed));
  }

 private:
  std::string instance_;
  svc::ExchangeStats last_{};
  svc::FederationStats fed_last_{};
  std::uint64_t seq_ = 0;
};

}  // namespace ftcs::ops
