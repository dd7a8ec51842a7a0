#include "telemetry/sampler.hpp"

#include <limits>
#include <ostream>

#include "telemetry/trace.hpp"
#include "util/json.hpp"

namespace dnnd::telemetry {

Sampler::Sampler(Clock clock) : clock_(std::move(clock)) {
  if (!clock_) clock_ = [] { return now_us(); };
}

void Sampler::attach(int rank, const MetricsRegistry* registry) {
  sources_.emplace_back(rank, registry);
}

void Sampler::sample(std::string_view label) {
  Snapshot snap;
  snap.t_us = clock_();
  snap.seq = snapshots_.size() + 1;
  snap.label = std::string(label);
  snap.ranks.reserve(sources_.size());
  for (const auto& [rank, registry] : sources_) {
    RankSample rs;
    rs.rank = rank;
    for (const auto& m : registry->all()) {
      switch (m.kind) {
        case MetricKind::kCounter:
          rs.counters.emplace_back(m.name, m.counter);
          break;
        case MetricKind::kGauge: {
          const std::int64_t peak =
              m.gauge_peak == std::numeric_limits<std::int64_t>::min()
                  ? 0
                  : m.gauge_peak;
          rs.gauges.emplace_back(m.name, std::make_pair(m.gauge, peak));
          break;
        }
        case MetricKind::kHistogram:
          break;  // distributions live in metrics.json, not the series
      }
    }
    snap.ranks.push_back(std::move(rs));
  }
  snapshots_.push_back(std::move(snap));
}

void Sampler::write_json(std::ostream& os, std::uint64_t origin_us) const {
  using util::json::write_string;
  const auto rel = [origin_us](std::uint64_t ts) {
    return ts >= origin_us ? ts - origin_us : 0;
  };
  os << "{\"schema\":\"dnnd.timeseries.v1\",\"ranks\":" << sources_.size()
     << ",\"snapshots\":[";
  bool first_snap = true;
  for (const Snapshot& snap : snapshots_) {
    if (!first_snap) os << ',';
    first_snap = false;
    os << "{\"t_us\":" << rel(snap.t_us) << ",\"seq\":" << snap.seq
       << ",\"label\":";
    write_string(os, snap.label);
    os << ",\"per_rank\":[";
    bool first_rank = true;
    for (const RankSample& rs : snap.ranks) {
      if (!first_rank) os << ',';
      first_rank = false;
      os << "{\"rank\":" << rs.rank << ",\"counters\":{";
      bool first = true;
      for (const auto& [name, value] : rs.counters) {
        if (!first) os << ',';
        first = false;
        write_string(os, name);
        os << ':' << value;
      }
      os << "},\"gauges\":{";
      first = true;
      for (const auto& [name, vp] : rs.gauges) {
        if (!first) os << ',';
        first = false;
        write_string(os, name);
        os << ":{\"value\":" << vp.first << ",\"peak\":" << vp.second << '}';
      }
      os << "}}";
    }
    os << "]}";
  }
  os << "]}";
}

}  // namespace dnnd::telemetry
