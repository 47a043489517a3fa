// fig_common.h -- shared scenario definitions for the figure-reproduction
// harnesses (one binary per figure of the paper's evaluation, Section 4).
//
// The canonical scenario, used by every figure unless it says otherwise:
// 10 ISP-level proxies, one 24h synthetic Berkeley-like trace per proxy
// (peak_rate 9.5 req/s at the midnight peak -- calibrated so the no-sharing
// baseline reproduces Figure 5's few-hundred-second peak waits), per-request
// cost a + b*x capped at c with the paper's constants, and proxies shifted
// in time by a configurable gap to model different time zones.
#pragma once

#include <string>
#include <vector>

#include "agree/matrices.h"
#include "alloc/allocator.h"
#include "lp/problem.h"
#include "proxysim/simulator.h"
#include "trace/generator.h"
#include "util/csv.h"

namespace agora::figbench {

inline constexpr double kPeakRate = 9.5;
inline constexpr std::size_t kProxies = 10;
inline constexpr double kHour = 3600.0;
inline constexpr std::uint64_t kSeedBase = 100;

/// Command-line options every figure harness accepts.
struct FigOptions {
  /// Base RNG seed for the workload traces (proxy p draws from seed + p).
  std::uint64_t seed = kSeedBase;
  /// When non-empty, write an observability snapshot (registry metrics plus
  /// the final run's trace events) here; ".csv" selects CSV, else JSONL.
  std::string metrics_out;
};

/// Parse --seed / --metrics-out. Prints help and exits 0 on -h/--help,
/// exits 2 on unknown flags.
FigOptions parse_fig_options(int argc, char** argv, const std::string& figure);

/// Honor --metrics-out for the run that produced `last` (no-op when the
/// option is empty). Registry totals come from the global sink; the event
/// stream is the run's own (SimMetrics::events).
void write_fig_metrics(const FigOptions& opts, const proxysim::SimMetrics& last);

/// The calibrated workload generator.
trace::Generator make_generator();

/// One stream per proxy, proxy p shifted by p * gap_seconds and seeded with
/// seed_base + p.
std::vector<std::vector<trace::TraceRequest>> make_traces(double gap_seconds,
                                                          std::size_t proxies = kProxies,
                                                          std::uint64_t seed_base = kSeedBase);

/// Baseline config: 10 proxies, no sharing, paper cost model, 10-minute
/// slots, scheduling-epoch spare reporting.
proxysim::SimConfig base_config(std::size_t proxies = kProxies);

/// Convenience: build, run, return metrics.
proxysim::SimMetrics run_sim(const proxysim::SimConfig& cfg,
                             const std::vector<std::vector<trace::TraceRequest>>& traces);

/// Mean wait per hour of day (24 entries) for a slotted series.
std::vector<double> hourly_means(const SlottedSeries& s);

// --- Shared LP / allocator fixtures (micro_lp) ------------------------------

/// Deterministic complete-graph sharing system: capacities uniform(5, 20)
/// seeded by n, every pair sharing 0.8/n.
agree::AgreementSystem complete_sharing_system(std::size_t n);

/// Allocator options used by the LP micro-benchmarks: transitive closure
/// with tiny path products pruned so fixture setup stays tractable on
/// complete graphs at n = 40.
alloc::AllocatorOptions bench_alloc_options();

/// The full compact allocation LP of principal `a` requesting `amount`:
/// d_0..d_{n-1} with 0 <= d_k <= U_ka, then theta; the demand row, then
/// perturb_0..perturb_{n-1} (diagonal retained_i, off-diagonal K_ki). The
/// allocator poses only this model's restriction to the requester's support
/// (alloc::SupportModel); the LP micro-benchmarks keep the full model as
/// LP-substrate stress.
lp::Problem full_compact_model(const agree::AgreementSystem& sys,
                               const agree::CapacityReport& rep, std::size_t a,
                               double amount);

/// Point a full_compact_model at request (a, amount): only the draw upper
/// bounds and the demand rhs move, so a workspace solve re-reads them
/// without rebuilding its standard form.
void repoint_full_compact_model(lp::Problem& p, const agree::CapacityReport& rep,
                                std::size_t a, double amount);

/// The full compact allocation LP for complete_sharing_system(n), requester
/// 0, amount = half of its available capacity.
lp::Problem compact_allocation_lp(std::size_t n);

/// Banded sharing system: principals on a ring of time zones share with
/// neighbors up to ring distance 3 (Figure 13's distance-decayed shape, cut
/// off so the matrix is genuinely sparse). Row density stays O(1) as n
/// grows, which is what makes the n = 1000 LP tractable for the sparse
/// basis.
agree::AgreementSystem banded_sharing_system(std::size_t n);

/// Transitive options for the banded system: chains capped at 2 hops keep
/// the entitlement matrix banded (width ~12) at any n.
alloc::AllocatorOptions sparse_bench_alloc_options();

// --- Shared engine fixtures (scale_shards, scale_hotpath) --------------------

inline constexpr std::size_t kIslands = 8;
inline constexpr std::size_t kPerIsland = 8;
/// Share between every ordered pair inside one island.
inline constexpr double kIslandShare = 0.2;
/// Ring-bridge share joining the islands into one component: weak enough
/// that the federated cut severs exactly the bridges, strong enough that
/// border credits are worth granting.
inline constexpr double kBridgeShare = 0.05;

/// kIslands complete-graph sharing islands of kPerIsland participants each
/// (capacity 10 + index within the island), no agreements across islands.
agree::AgreementSystem island_economy();

/// island_economy() joined into one component: the last member of each
/// island and the first member of the next share kBridgeShare both ways.
agree::AgreementSystem bridged_economy();

/// Print the figure banner.
void banner(const std::string& figure, const std::string& description);

/// Pretty-print to stdout and save bench_results/<name>.csv.
void emit(const std::string& name, const Table& table);

}  // namespace agora::figbench
