#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t i = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double overhead_pct(double untraced, double traced, bool higher_is_better) {
  if (untraced <= 0.0) return 0.0;
  const double rel = (traced - untraced) / untraced * 100.0;
  return higher_is_better ? -rel : rel;
}

double batch_mean(const agora::engine::EngineStats& before, const agora::engine::EngineStats& after) {
  std::uint64_t batches = 0, extra = 0;
  for (std::size_t i = 0; i < after.shard.size(); ++i) {
    batches += after.shard[i].batches - before.shard[i].batches;
    extra += after.shard[i].coalesced_ops - before.shard[i].coalesced_ops;
  }
  return batches ? static_cast<double>(batches + extra) / static_cast<double>(batches) : 0.0;
}

void fill_lp_layers(std::map<std::string, double>& layer, const agora::lp::PipelineStats& before,
                    const agora::lp::PipelineStats& after) {
  using agora::lp::PipelineStage;
  const std::uint64_t solves = after.solves - before.solves;
  layer["lp.solves"] = static_cast<double>(solves);
  std::uint64_t attempts_total = 0;
  int first = 0;
  std::uint64_t first_attempts = 0;
  for (int i = 0; i < agora::lp::kPipelineStages; ++i) {
    const std::uint64_t att = after.attempts[i] - before.attempts[i];
    const std::uint64_t fail = after.failures[i] - before.failures[i];
    const std::string stage = agora::lp::to_string(static_cast<PipelineStage>(i));
    layer["lp.stage." + stage + ".attempts"] = static_cast<double>(att);
    layer["lp.stage." + stage + ".failures"] = static_cast<double>(fail);
    attempts_total += att;
    // Every solve starts at the same stage for a given configuration, so the
    // first stage is the one with the most attempts.
    if (att > first_attempts) {
      first_attempts = att;
      first = i;
    }
  }
  const double s = static_cast<double>(std::max<std::uint64_t>(solves, 1));
  layer["lp.first_stage_ok_ratio"] =
      solves ? static_cast<double>(first_attempts - (after.failures[first] - before.failures[first])) / s
             : 0.0;
  layer["lp.fallbacks_per_solve"] =
      solves ? static_cast<double>(attempts_total - solves) / s : 0.0;
  layer["lp.exhausted"] = static_cast<double>(after.exhausted - before.exhausted);
}

}  // namespace perfbench
