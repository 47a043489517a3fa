// agora_perfbench -- the end-to-end benchmark program (see perfbench/README.md).
//
//   agora_perfbench --workload serve_zipf|commit_onecomp|case_study_day
//                   --seed N --seconds S --trace 0|1 [--spans-out FILE]
//                   [--source-digest HEX]
//
// Prints a provenance line, one line per metric (name, value, unit), and as
// the last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. A failed correctness gate prints correct=false and exits 1.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <thread>

#include "common.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_SIMD
#define PERFBENCH_SIMD "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports every one (README.md defines
// each per workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_us", "us"},
    {"throughput", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced run, named after the library's modules. A
// layer a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"net.encode_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.bytes_per_consult", "B"},
    {"net.shed_queue", "count"},
    {"net.shed_deadline", "count"},
    {"net.late_drop", "count"},
    {"net.peak_queue", "count"},
    {"net.peak_inflight", "count"},
    {"net.wire_overhead_us", "us"},
    {"gen.lateness_p99_us", "us"},
    {"gen.consult_self_us", "us"},
    {"engine.plan_cache.hit_ratio", "ratio"},
    {"engine.plan_cache.stale", "count"},
    {"engine.plan_cache.certify_rejects", "count"},
    {"engine.batch_mean", "count"},
    {"engine.epochs", "count"},
    {"engine.consult_p50_us", "us"},
    {"engine.mutate_p50_us", "us"},
    {"engine.mutate_p99_us", "us"},
    {"lp.solves", "count"},
    {"lp.stage.warm-revised.attempts", "count"},
    {"lp.stage.warm-revised.failures", "count"},
    {"lp.stage.cold-revised.attempts", "count"},
    {"lp.stage.cold-revised.failures", "count"},
    {"lp.stage.tableau.attempts", "count"},
    {"lp.stage.tableau.failures", "count"},
    {"lp.stage.brute-force.attempts", "count"},
    {"lp.stage.brute-force.failures", "count"},
    {"lp.first_stage_ok_ratio", "ratio"},
    {"lp.fallbacks_per_solve", "count"},
    {"lp.exhausted", "count"},
    {"lp.iterations_per_consult", "count"},
    {"alloc.certified_ratio", "ratio"},
    {"alloc.fastpath_share", "ratio"},
    {"alloc.theta_mean", "capacity"},
    {"alloc.insufficient_frac", "ratio"},
    {"alloc.plan_p50_us", "us"},
    {"alloc.plan_p95_us", "us"},
    {"agree.build_s", "s"},
    {"trace.generate_s", "s"},
    {"trace.requests", "count"},
    {"proxysim.consults", "count"},
    {"proxysim.redirected_frac", "ratio"},
    {"proxysim.lp_iterations_per_consult", "count"},
    {"proxysim.solver_fallbacks", "count"},
    {"proxysim.mean_wait_s", "s"},
    {"bench.p95_us", "us"},
    {"bench.fail_frac", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "agora_perfbench: %s\nusage: agora_perfbench --workload "
               "serve_zipf|commit_onecomp|case_study_day --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE] [--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::uint64_t x = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || p != v.data() + v.size()) usage(flag + " needs a whole number");
  return x;
}

Args parse_args(int argc, char** argv, std::string& source_digest) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, v));
      if (a.seconds < 1 || a.seconds > 600) usage("--seconds must be in [1, 600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else if (flag == "--source-digest") {
      source_digest = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Shortest decimal that reads back as exactly `x`.
std::string num(double x) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string source_digest = "unknown";
  const Args args = parse_args(argc, argv, source_digest);

  Outcome out;
  try {
    if (args.workload == "serve_zipf") {
      out = perfbench::run_serve_zipf(args);
    } else if (args.workload == "commit_onecomp") {
      out = perfbench::run_commit_onecomp(args);
    } else if (args.workload == "case_study_day") {
      out = perfbench::run_case_study_day(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agora_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const auto& defs = args.trace ? std::span<const MetricDef>(kPerLayer)
                                : std::span<const MetricDef>(kEndToEnd);
  const auto& values = args.trace ? out.layer : out.e2e;
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    out.gate(known, "internal: undeclared metric " + name);
  }
  if (!args.trace)
    for (const MetricDef& d : defs) {
      const auto it = values.find(d.name);
      out.gate(it != values.end() && it->second > 0.0,
               std::string("end-to-end metric ") + d.name + " was not measured");
    }

  std::string samples;
  for (const auto& [name, n] : out.samples)
    samples += (samples.empty() ? "" : ",") + quoted(name) + ":" + std::to_string(n);
  std::printf(
      "{\"provenance\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"source_digest\":%s,\"build_type\":%s,\"compiler\":%s,\"cxx_flags\":%s,"
      "\"nproc\":%u,\"agora_simd\":%s,\"agora_obs\":%s},\"samples\":{%s}}\n",
      quoted(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      num(args.seconds).c_str(), args.trace ? 1 : 0, quoted(source_digest).c_str(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_COMPILER).c_str(),
      quoted(PERFBENCH_CXX_FLAGS).c_str(), std::thread::hardware_concurrency(),
      quoted(PERFBENCH_SIMD).c_str(), agora::obs::kEnabled ? "\"ON\"" : "\"OFF\"",
      samples.c_str());

  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-36s %18s %s\n", d.name, num(v).c_str(), d.unit);
    metrics += (metrics.empty() ? "" : ",") + quoted(d.name) + ":{\"value\":" + num(v) +
               ",\"unit\":" + quoted(d.unit) + "}";
  }
  for (const std::string& e : out.errors) std::fprintf(stderr, "GATE FAILED: %s\n", e.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
