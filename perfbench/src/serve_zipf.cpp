// serve_zipf -- the product serving path over loopback: an in-process
// net::AgoraService fronting an EnforcementEngine configured as
// tools/agora_serve ships it (16-participant complete graph, share 0.05,
// two engine threads, plan cache on), driven open loop by one generator
// thread over three pipelined connections.
//
// Consults are Zipf(1.1) shapes from trace::ZipfShapeGenerator's quantized
// catalog, sent on a seeded Poisson schedule whether or not replies have
// arrived, and timed from the moment each was due. On the same schedule a
// reporter thread issues a capacity report (set_capacities, the LRM
// availability refresh) every kReportPeriodS; each bumps the engine epoch,
// so cached plans go stale the way real traffic makes them, and consults
// queue behind the report's mutation barrier inside the engine.
//
// Rates: kRounds rounds, each a step at the nominal rate followed by one
// step at every rate of a fixed doubling ladder that ends past saturation.
// A consult is good when it is decided (granted or Insufficient) within
// kLatencyLimitUs of its due time; past saturation the bounded admission
// queue sheds the excess quickly, so the good rate there is the service's
// capacity. Latency percentiles are medians over the rounds' nominal steps,
// and the goodput is the highest per-rate median good rate: on a shared
// host a few seconds of slowdown then spoil one round, not the result.
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "agree/topology.h"
#include "common.h"
#include "engine/engine.h"
#include "net/frame.h"
#include "net/service.h"
#include "net/socket.h"
#include "net/wire.h"
#include "trace/zipf.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace net = agora::net;
using agora::StatusCode;

constexpr std::size_t kParticipants = 16;
constexpr double kShare = 0.05;
constexpr double kCapacity = 10.0;
constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kConnections = 3;
constexpr std::size_t kCatalogShapes = 512;
constexpr double kZipfS = 1.1;

/// Offered consults per second at the bottom of the ladder: about a quarter
/// of the ~130k/s this stack sustains on a 4-vCPU host.
constexpr double kNominalRate = 32000.0;
/// A consult decided later than this after it was due does not count
/// toward the goodput. Above the ~5 ms a full admission queue adds at
/// saturation, so overload shows as sheds rather than as lateness.
constexpr double kLatencyLimitUs = 20000.0;
/// The ladder above the nominal rate.
constexpr double kLadder[] = {2 * kNominalRate, 4 * kNominalRate, 8 * kNominalRate};
constexpr int kRounds = 8;
/// Capacity reports: one every kReportPeriodS, each capacity within
/// +-kReportJitter of its base. At the nominal rate an epoch then sees
/// ~16,000 consults of which ~3% are first sightings of a shape and solve
/// the LP. With much shorter periods a large share of consults miss, and
/// the workload would measure the LP, which commit_onecomp already covers,
/// instead of the serving path.
constexpr double kReportPeriodS = 0.5;
constexpr double kReportJitter = 0.05;
/// Deadline budget stamped on every consult frame.
constexpr std::uint64_t kDeadlineUs = 100'000;
/// How long a step waits for its last replies before counting them lost.
constexpr double kDrainS = 2.0;
/// Share of the run spent at the nominal rate; the ladder gets the rest.
constexpr double kNominalShare = 0.4;
constexpr int kSetups = 5;
/// Set-up warm-up: consults sent with at most kWarmupWindow outstanding.
constexpr std::size_t kWarmupConsults = 4000;
constexpr std::size_t kWarmupWindow = 64;
/// In-process replay of the nominal steps (traced run only).
constexpr std::size_t kReplayConsults = 20000;

agora::agree::AgreementSystem economy() {
  agora::agree::AgreementSystem sys(kParticipants);
  sys.relative = agora::agree::complete_graph(kParticipants, kShare);
  for (std::size_t i = 0; i < kParticipants; ++i)
    sys.capacity[i] = kCapacity + static_cast<double>(i % 4);
  return sys;
}

agora::engine::EngineOptions engine_options() {
  agora::engine::EngineOptions opts;
  opts.threads = kEngineThreads;
  opts.plan_cache = true;
  opts.alloc.transitive.prune_below = 1e-6;  // as tools/agora_serve
  return opts;
}

/// One operation of the generator's schedule, kept for the in-process replay.
struct Op {
  std::int64_t time_ns = 0;          ///< when it was due
  bool report = false;
  agora::trace::RequestShape shape;  ///< consult
  std::vector<double> capacity;      ///< report: the new capacities
};

/// Issues the capacity reports of each step on its own thread. A report is a
/// write from another party, so its mutation barrier delays consults inside
/// the engine rather than stalling the consult generator.
class Reporter {
 public:
  Reporter(agora::engine::EnforcementEngine& eng, std::uint64_t seed)
      : eng_(eng), rng_(seed), base_(eng.snapshot()->capacity) {}
  ~Reporter() { join(); }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// Issue the reports of one fixed kReportPeriodS schedule, anchored at
  /// the first step, that fall between t_start and t_end. Records spans
  /// when `trace`, and the reports themselves when `log`.
  void start(std::int64_t t_start, std::int64_t t_end, bool trace, bool log) {
    const auto period = static_cast<std::int64_t>(kReportPeriodS * 1e9);
    if (next_ns_ == 0) next_ns_ = t_start + period;
    while (next_ns_ < t_start) next_ns_ += period;  // skipped between steps
    spans_.set_enabled(trace);
    thread_ = std::thread([this, t_end, log] { loop(t_end, log); });
  }
  /// Wait for the step's reports.
  void join() {
    if (thread_.joinable()) thread_.join();
    if (!error_.empty()) throw std::runtime_error("serve_zipf: capacity report: " + error_);
  }
  const SpanRecorder& spans() const { return spans_; }
  std::vector<Op>& log() { return log_; }

 private:
  void loop(std::int64_t t_end, bool log) {
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const std::uint32_t s_report = spans_.name_id("engine.set_capacities");
    const auto period = static_cast<std::int64_t>(kReportPeriodS * 1e9);
    try {
      for (; next_ns_ < t_end; next_ns_ += period) {
        const std::int64_t t = next_ns_;
        std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
        std::vector<double> caps(base_);
        for (double& c : caps) c *= 1.0 + kReportJitter * rng_.uniform(-1.0, 1.0);
        const std::uint32_t sp = spans_.begin(s_report);
        eng_.set_capacities(caps);
        spans_.end(sp);
        if (log) log_.push_back(Op{t, true, {}, std::move(caps)});
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  agora::engine::EnforcementEngine& eng_;
  agora::Pcg32 rng_;
  std::vector<double> base_;
  SpanRecorder spans_{false};
  std::vector<Op> log_;
  std::int64_t next_ns_ = 0;  ///< next report on the schedule
  std::string error_;
  std::thread thread_;  // last: started after, and joined before, the rest
};

struct StepResult {
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t decided = 0;  ///< Ok or Insufficient
  std::uint64_t failed = 0;   ///< shed, deadline, error or no reply
  std::uint64_t lost = 0;     ///< no reply at all
  std::uint64_t granted = 0;
  std::uint64_t insufficient = 0;
  std::uint64_t certified = 0;
  double theta_sum = 0.0;
  /// Due-to-reply latency per consult; a failed consult counts as the
  /// deadline budget, so it misses any latency limit.
  std::vector<double> latency_us;
  std::vector<double> lateness_us;  ///< due-to-send, in send order

  double fail_frac() const {
    return sent ? static_cast<double>(failed) / static_cast<double>(sent) : 1.0;
  }
  /// Consults decided within the latency limit, per second of the step.
  double good_rate() const {
    const auto good = std::count_if(latency_us.begin(), latency_us.end(),
                                    [](double us) { return us <= kLatencyLimitUs; });
    return seconds > 0 ? static_cast<double>(good) / seconds : 0.0;
  }
};

/// The open-loop generator: one thread, kConnections pipelined connections,
/// replies matched to requests by frame request id.
class Generator {
 public:
  Generator(agora::engine::EnforcementEngine& eng, std::uint16_t port, std::uint64_t seed,
            SpanRecorder& rec)
      : eng_(eng),
        rec_(rec),
        shapes_({kParticipants, kCatalogShapes, kZipfS, 0.5, 0.25, 16, seed}),
        arrivals_(seed * 2 + 1),
        reporter_(eng, seed * 2 + 2) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      std::string err;
      net::Fd fd = net::connect_tcp("127.0.0.1", port, 2000, err);
      if (!fd.valid()) throw std::runtime_error("serve_zipf: connect failed: " + err);
      conns_.push_back(std::make_unique<Conn>(std::move(fd)));
    }
    s_consult_ = rec_.name_id("gen.consult");
    s_encode_ = rec_.name_id("net.encode");
    s_decode_ = rec_.name_id("net.decode");
    s_write_ = rec_.name_id("net.write");
    s_read_ = rec_.name_id("net.read");
  }

  std::uint64_t sent_total() const { return id_base_ + reqs_.size(); }
  std::uint64_t fatal() const { return fatal_; }
  std::uint64_t bad_replies() const { return bad_replies_; }
  std::uint64_t uncertified() const { return uncertified_; }
  Reporter& reporter() { return reporter_; }

  /// Closed-loop warm-up over a fixed, seed-independent shape sequence.
  void warmup(std::size_t consults) {
    agora::trace::ZipfShapeGenerator warm({kParticipants, kCatalogShapes, kZipfS, 0.5, 0.25, 16, 0});
    step_ = nullptr;
    std::size_t issued = 0;
    while (issued < consults || outstanding_ > 0) {
      while (issued < consults && outstanding_ < kWarmupWindow) {
        const agora::trace::RequestShape s = warm.next();
        enqueue(SpanRecorder::now_ns(), s.participant, s.amount, 0);
        ++issued;
      }
      flush();
      pump(1'000'000);
      if (fatal_) throw std::runtime_error("serve_zipf: connection failed during warm-up");
    }
    forget();
  }

  /// One open-loop step at `rate` consults/s for `seconds`, then wait for
  /// every reply. `ops` (optional) receives the step's schedule.
  StepResult run(double rate, double seconds, std::vector<Op>* ops) {
    StepResult res;
    res.rate = rate;
    // Reserve before the clock starts: growing these mid-step would stall
    // the generator while it copies.
    const auto expect = static_cast<std::size_t>(rate * seconds * 1.25) + 1024;
    res.latency_us.reserve(expect);
    res.lateness_us.reserve(expect);
    reqs_.reserve(expect);
    rec_.reserve(expect * 5);
    if (ops) ops->reserve(ops->size() + expect);
    step_ = &res;
    const std::int64_t t_start = SpanRecorder::now_ns();
    const auto t_end = t_start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t next_due = t_start + gap_ns(rate);
    reporter_.start(t_start, t_end, rec_.enabled(), ops != nullptr);
    while (true) {
      const std::int64_t now = SpanRecorder::now_ns();
      if (now >= t_end) break;
      while (next_due <= now) {
        const agora::trace::RequestShape s = shapes_.next();
        if (ops) ops->push_back(Op{next_due, false, s, {}});
        enqueue(next_due, s.participant, s.amount, now);
        next_due += gap_ns(rate);
      }
      flush();
      pump(std::max<std::int64_t>(0, std::min(next_due, t_end) - SpanRecorder::now_ns()));
      if (fatal_) break;
    }
    reporter_.join();
    res.seconds = static_cast<double>(SpanRecorder::now_ns() - t_start) / 1e9;
    const auto drain_end = SpanRecorder::now_ns() + static_cast<std::int64_t>(kDrainS * 1e9);
    while (outstanding_ > 0 && !fatal_ && SpanRecorder::now_ns() < drain_end) {
      flush();
      pump(1'000'000);
    }
    // Whatever is still unanswered is lost: count it and forget it.
    for (const Req& r : reqs_) {
      if (r.answered) continue;
      ++res.failed;
      ++res.lost;
      res.latency_us.push_back(static_cast<double>(kDeadlineUs));
    }
    forget();
    step_ = nullptr;
    return res;
  }

 private:
  struct Conn {
    explicit Conn(net::Fd f) : fd(std::move(f)) {}
    net::Fd fd;
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
  };
  struct Req {
    std::int64_t due_ns = 0;
    StepResult* step = nullptr;
    double amount = 0.0;
    std::uint32_t span = SpanRecorder::kNone;
    bool answered = false;
  };

  /// Drop the bookkeeping of a finished step; its ids are never reused.
  void forget() {
    id_base_ += reqs_.size();
    reqs_.clear();
    outstanding_ = 0;
  }

  std::int64_t gap_ns(double rate) {
    // Exponential inter-arrival times: a Poisson schedule.
    return static_cast<std::int64_t>(-std::log(arrivals_.next_double_open()) / rate * 1e9);
  }

  void enqueue(std::int64_t due_ns, std::size_t participant, double amount, std::int64_t now) {
    const std::uint64_t id = id_base_ + reqs_.size() + 1;
    Req r;
    r.due_ns = due_ns;
    r.step = step_;
    r.amount = amount;
    if (step_) {
      r.span = rec_.begin_at(s_consult_, due_ns, id);
      step_->lateness_us.push_back(static_cast<double>(now - due_ns) / 1e3);
      ++step_->sent;
    }
    Conn& c = *conns_[id % conns_.size()];
    const std::int64_t e0 = rec_.stamp();
    frame_.type = net::FrameType::Consult;
    frame_.request_id = id;
    frame_.deadline_us = kDeadlineUs;
    frame_.payload.clear();
    net::encode(net::ConsultRequest{static_cast<std::uint32_t>(participant), amount},
                frame_.payload);
    net::encode_frame(frame_, c.out);
    rec_.end_at(rec_.begin_at(s_encode_, e0, id, r.span), rec_.stamp());
    reqs_.push_back(r);
    ++outstanding_;
  }

  void flush() {
    for (auto& cp : conns_) {
      Conn& c = *cp;
      if (c.out_pos == c.out.size()) continue;
      const ScopedSpan sp(rec_, s_write_);
      const std::ptrdiff_t n =
          net::write_some(c.fd.get(), c.out.data() + c.out_pos, c.out.size() - c.out_pos);
      if (n < 0) {
        ++fatal_;
        continue;
      }
      c.out_pos += static_cast<std::size_t>(n);
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
    }
  }

  /// Wait up to `timeout_ns` for socket activity, then read and match every
  /// reply that arrived.
  void pump(std::int64_t timeout_ns) {
    pollfd fds[kConnections];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i]->fd.get();
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i]->out_pos < conns_[i]->out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds, conns_.size(), &ts, nullptr) <= 0) return;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) ++fatal_;
      if (fds[i].revents & POLLIN) read_conn(*conns_[i]);
    }
  }

  void read_conn(Conn& c) {
    bool eof = false;
    std::ptrdiff_t n = 0;
    {
      const ScopedSpan sp(rec_, s_read_);
      while ((n = net::read_some(c.fd.get(), buf_, sizeof buf_, eof)) > 0)
        c.decoder.feed(std::span<const std::uint8_t>(buf_, static_cast<std::size_t>(n)));
    }
    if (n < 0 || eof) ++fatal_;
    const std::int64_t recv_ns = SpanRecorder::now_ns();
    while (true) {
      const std::int64_t d0 = rec_.stamp();
      const net::FrameDecoder::Result r = c.decoder.next(in_);
      if (r == net::FrameDecoder::Result::NeedMore) break;
      if (r == net::FrameDecoder::Result::Error || in_.type != net::FrameType::ConsultReply) {
        ++fatal_;
        break;
      }
      const bool ok = net::decode(in_.payload, reply_);
      const std::int64_t d1 = rec_.stamp();
      if (!ok || in_.request_id <= id_base_ || in_.request_id > id_base_ + reqs_.size()) {
        ++bad_replies_;
        continue;
      }
      Req& q = reqs_[in_.request_id - id_base_ - 1];
      if (q.answered) {
        ++bad_replies_;
        continue;
      }
      q.answered = true;
      --outstanding_;
      rec_.end_at(rec_.begin_at(s_decode_, d0, in_.request_id, q.span), d1);
      rec_.end_at(q.span, recv_ns);
      check_reply(q);
      if (q.step == nullptr) continue;
      StepResult& st = *q.step;
      const bool decided =
          reply_.code == StatusCode::Ok || reply_.code == StatusCode::Insufficient;
      if (decided) {
        ++st.decided;
        st.latency_us.push_back(static_cast<double>(recv_ns - q.due_ns) / 1e3);
      } else {
        ++st.failed;
        st.latency_us.push_back(
            std::max(static_cast<double>(kDeadlineUs), static_cast<double>(recv_ns - q.due_ns) / 1e3));
      }
      if (reply_.has_plan && reply_.certified) ++st.certified;
      if (reply_.code == StatusCode::Insufficient) ++st.insufficient;
      if (reply_.code == StatusCode::Ok) {
        ++st.granted;
        st.theta_sum += reply_.theta;
      }
    }
  }

  /// Gate: a grant is certified, draws exactly the requested amount, and
  /// carries a finite non-negative theta.
  void check_reply(const Req& q) {
    if (reply_.code != StatusCode::Ok) return;
    if (!reply_.has_plan || !reply_.certified) {
      ++uncertified_;
      return;
    }
    double drawn = 0.0;
    for (const net::WireDraw& d : reply_.draws) drawn += d.amount;
    const double tol = 1e-6 * std::max(1.0, q.amount);
    if (std::fabs(drawn - q.amount) > tol || std::fabs(reply_.total_drawn - q.amount) > tol ||
        !(reply_.theta >= 0.0) || !std::isfinite(reply_.theta))
      ++bad_replies_;
  }

  agora::engine::EnforcementEngine& eng_;
  SpanRecorder& rec_;
  agora::trace::ZipfShapeGenerator shapes_;
  agora::Pcg32 arrivals_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Req> reqs_;
  std::uint64_t id_base_ = 0;  ///< request ids issued before reqs_[0]
  std::size_t outstanding_ = 0;
  StepResult* step_ = nullptr;
  std::uint64_t fatal_ = 0;
  std::uint64_t bad_replies_ = 0;
  std::uint64_t uncertified_ = 0;
  net::Frame frame_;
  net::Frame in_;
  net::ConsultReply reply_;
  std::uint8_t buf_[64 * 1024];
  std::uint32_t s_consult_ = 0, s_encode_ = 0, s_decode_ = 0, s_write_ = 0, s_read_ = 0;
  Reporter reporter_;
};

/// Engine, service and generator of one set-up; destroyed generator first.
struct Stack {
  std::unique_ptr<agora::engine::EnforcementEngine> engine;
  std::unique_ptr<net::AgoraService> service;
  std::unique_ptr<Generator> gen;
};

Stack build(std::uint64_t seed, SpanRecorder& rec, double& build_s) {
  Stack s;
  const Clock::time_point t0 = Clock::now();
  s.engine = std::make_unique<agora::engine::EnforcementEngine>(economy(), engine_options());
  build_s = seconds_between(t0, Clock::now());
  s.service = std::make_unique<net::AgoraService>(*s.engine);
  const agora::Status st = s.service->start();
  if (!st.ok()) throw std::runtime_error("serve_zipf: service start: " + st.to_string());
  s.gen = std::make_unique<Generator>(*s.engine, s.service->port(), seed, rec);
  s.gen->warmup(kWarmupConsults);
  return s;
}

struct Ladder {
  std::vector<StepResult> nominal;
  StepResult nominal_all;  ///< the nominal steps' consults together
  double p50_us = 0.0;     ///< median over the nominal steps
  double p95_us = 0.0;
  double goodput = 0.0;
  std::vector<StepResult> steps;
};

/// kRounds rounds of the nominal step and the ladder. Spans are recorded
/// for the nominal steps only.
Ladder run_ladder(Generator& gen, double seconds, SpanRecorder& rec, bool trace,
                  std::vector<Op>* nominal_ops) {
  Ladder l;
  constexpr std::size_t kRates = std::size(kLadder);
  const double nominal_s = seconds * kNominalShare / kRounds;
  const double step_s = seconds * (1.0 - kNominalShare) / (kRates * kRounds);
  std::vector<double> p50, p95, nominal_good;
  std::vector<std::vector<double>> good(kRates);
  for (int round = 0; round < kRounds && !gen.fatal(); ++round) {
    rec.set_enabled(trace);
    l.nominal.push_back(gen.run(kNominalRate, nominal_s, nominal_ops));
    rec.set_enabled(false);
    const StepResult& nom = l.nominal.back();
    p50.push_back(percentile(nom.latency_us, 0.50));
    p95.push_back(percentile(nom.latency_us, 0.95));
    nominal_good.push_back(nom.good_rate());
    for (std::size_t i = 0; i < kRates; ++i) {
      l.steps.push_back(gen.run(kLadder[i], step_s, nullptr));
      good[i].push_back(l.steps.back().good_rate());
    }
  }
  l.p50_us = median(p50);
  l.p95_us = median(p95);
  l.goodput = median(nominal_good);
  for (const std::vector<double>& g : good) l.goodput = std::max(l.goodput, median(g));
  StepResult& all = l.nominal_all;
  for (const StepResult& st : l.nominal) {
    all.sent += st.sent;
    all.decided += st.decided;
    all.failed += st.failed;
    all.lost += st.lost;
    all.granted += st.granted;
    all.insufficient += st.insufficient;
    all.certified += st.certified;
    all.theta_sum += st.theta_sum;
    all.latency_us.insert(all.latency_us.end(), st.latency_us.begin(), st.latency_us.end());
    all.lateness_us.insert(all.lateness_us.end(), st.lateness_us.begin(), st.lateness_us.end());
  }
  return l;
}

void print_step(const char* label, const StepResult& st) {
  std::printf("%s rate=%.0f/s sent=%llu p50_us=%.1f p95_us=%.1f fail_frac=%.5f "
              "lateness_p99_us=%.1f good_per_s=%.0f\n",
              label, st.rate, static_cast<unsigned long long>(st.sent),
              percentile(st.latency_us, 0.50), percentile(st.latency_us, 0.95), st.fail_frac(),
              percentile(st.lateness_us, 0.99), st.good_rate());
}

}  // namespace

Outcome run_serve_zipf(const Args& args) {
  Outcome out;
  // Keep ppoll wake-ups on schedule: the default 50 us timer slack would
  // make every consult late by up to that much.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  // Spans are recorded only in the traced half of a traced run.
  SpanRecorder rec(false);
  std::vector<double> setup_s, build_s;
  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    stack = Stack{};
    double b = 0.0;
    const Clock::time_point t0 = Clock::now();
    stack = build(args.seed, rec, b);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    build_s.push_back(b);
  }
  Generator& gen = *stack.gen;
  agora::engine::EnforcementEngine& eng = *stack.engine;

  std::optional<Ladder> base;
  if (args.trace) base = run_ladder(gen, args.seconds / 2, rec, false, nullptr);
  const agora::engine::EngineStats es0 = eng.stats();
  const agora::lp::PipelineStats lp0 = *eng.solver_stats();
  const net::ServiceStats ss0 = stack.service->stats();
  std::vector<Op> ops;
  const Ladder l = run_ladder(gen, args.trace ? args.seconds / 2 : args.seconds, rec, args.trace,
                              args.trace ? &ops : nullptr);
  const agora::engine::EngineStats es1 = eng.stats();
  const agora::lp::PipelineStats lp1 = *eng.solver_stats();
  rec.append(gen.reporter().spans());

  // In-process replay of the nominal schedule, closed loop (traced run): the
  // engine's own consult latency for the same shapes and reports.
  std::uint64_t replay_iterations = 0, replayed = 0;
  if (args.trace) {
    std::vector<Op>& reports = gen.reporter().log();
    ops.insert(ops.end(), std::make_move_iterator(reports.begin()),
               std::make_move_iterator(reports.end()));
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Op& a, const Op& b) { return a.time_ns < b.time_ns; });
    const std::uint32_t s_direct = rec.name_id("engine.consult");
    rec.set_enabled(true);
    for (const Op& op : ops) {
      if (op.report) {
        eng.set_capacities(op.capacity);
        continue;
      }
      if (replayed == kReplayConsults) break;
      ++replayed;
      const std::uint32_t sp = rec.begin(s_direct, replayed);
      const agora::alloc::AllocationPlan plan = eng.consult(op.shape.participant, op.shape.amount);
      rec.end(sp);
      replay_iterations += plan.lp_iterations;
    }
  }
  rec.set_enabled(false);

  // Stop the service: every consult that reached admission is answered.
  const std::uint64_t sent = gen.sent_total();
  out.gate(gen.fatal() == 0, "serve_zipf: a connection failed or sent an unexpected frame");
  out.gate(gen.uncertified() == 0, "serve_zipf: a grant crossed the wire uncertified");
  out.gate(gen.bad_replies() == 0,
           "serve_zipf: a reply was duplicated, unknown, or drew other than the request");
  std::uint64_t lost = l.nominal_all.lost;
  for (const StepResult& s : l.steps) lost += s.lost;
  if (base) {
    lost += base->nominal_all.lost;
    for (const StepResult& s : base->steps) lost += s.lost;
  }
  out.gate(lost == 0, "serve_zipf: " + std::to_string(lost) + " consults never answered");
  stack.gen.reset();
  stack.service->stop();
  const net::ServiceStats ss = stack.service->stats();
  out.gate(ss.consults == ss.answered && ss.consults == sent,
           "serve_zipf: service counted " + std::to_string(ss.consults) + " consults and " +
               std::to_string(ss.answered) + " answers for " + std::to_string(sent) + " sent");

  const StepResult& nom = l.nominal_all;
  for (const StepResult& st : l.nominal) print_step("nominal", st);
  for (const StepResult& st : l.steps) print_step("ladder", st);
  out.attempted = nom.sent;
  out.failed = nom.failed;
  // Each percentile is a median over the nominal steps of that percentile.
  out.samples["p50_us"] = nom.latency_us.size();
  out.samples["bench.p95_us"] = nom.latency_us.size();
  const double p50 = l.p50_us;
  if (!args.trace) {
    out.e2e["setup_s"] = median(setup_s);
    out.e2e["p50_us"] = p50;
    out.e2e["throughput"] = l.goodput;
    out.e2e["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  auto& L = out.layer;
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  L["net.encode_ns"] = mean(rec.durations_ns("net.encode"));
  L["net.decode_ns"] = mean(rec.durations_ns("net.decode"));
  const double consults = delta(ss0.consults, ss.consults);
  L["net.bytes_per_consult"] =
      (delta(ss0.bytes_rx, ss.bytes_rx) + delta(ss0.bytes_tx, ss.bytes_tx)) / consults;
  L["net.shed_queue"] = delta(ss0.shed_queue, ss.shed_queue);
  L["net.shed_deadline"] = delta(ss0.shed_deadline, ss.shed_deadline);
  L["net.late_drop"] = delta(ss0.late_drop, ss.late_drop);
  L["net.peak_queue"] = static_cast<double>(ss.peak_queue);
  L["net.peak_inflight"] = static_cast<double>(ss.peak_inflight);
  std::vector<double> direct_us = rec.durations_ns("engine.consult");
  for (double& d : direct_us) d /= 1e3;
  const double direct_p50 = percentile(direct_us, 0.50);
  L["net.wire_overhead_us"] = p50 - direct_p50;
  L["gen.lateness_p99_us"] = percentile(nom.lateness_us, 0.99);
  L["gen.consult_self_us"] = median(rec.self_ns("gen.consult")) / 1e3;
  const auto& pc0 = es0.plan_cache;
  const auto& pc1 = es1.plan_cache;
  const double hits = delta(pc0.hits, pc1.hits) + delta(pc0.neg_hits, pc1.neg_hits);
  const double lookups =
      hits + delta(pc0.misses, pc1.misses) + delta(pc0.stale, pc1.stale);
  L["engine.plan_cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  L["engine.plan_cache.stale"] = delta(pc0.stale, pc1.stale);
  L["engine.plan_cache.certify_rejects"] = delta(pc0.certify_rejects, pc1.certify_rejects);
  L["engine.batch_mean"] = batch_mean(es0, es1);
  L["engine.epochs"] = delta(es0.epoch, es1.epoch);
  L["engine.consult_p50_us"] = direct_p50;
  std::vector<double> mutate = rec.durations_ns("engine.set_capacities");
  L["engine.mutate_p50_us"] = percentile(mutate, 0.50) / 1e3;
  L["engine.mutate_p99_us"] = percentile(mutate, 0.99) / 1e3;
  fill_lp_layers(L, lp0, lp1);
  L["lp.iterations_per_consult"] =
      replayed ? static_cast<double>(replay_iterations) / static_cast<double>(replayed) : 0.0;
  std::uint64_t decided = nom.decided, certified = nom.certified;
  for (const StepResult& s : l.steps) {
    decided += s.decided;
    certified += s.certified;
  }
  L["alloc.certified_ratio"] =
      decided ? static_cast<double>(certified) / static_cast<double>(decided) : 0.0;
  L["alloc.fastpath_share"] =
      delta(es0.fastpath_granted, es1.fastpath_granted) / consults;
  L["alloc.theta_mean"] = nom.granted ? nom.theta_sum / static_cast<double>(nom.granted) : 0.0;
  L["alloc.insufficient_frac"] =
      nom.decided ? static_cast<double>(nom.insufficient) / static_cast<double>(nom.decided) : 0.0;
  L["agree.build_s"] = median(build_s);
  L["bench.p95_us"] = l.p95_us;
  L["bench.fail_frac"] = nom.fail_frac();
  L["bench.trace_overhead_pct"] =
      overhead_pct(base->p50_us, p50, false);
  if (!args.spans_out.empty() && !rec.write_csv(args.spans_out))
    out.gate(false, "serve_zipf: cannot write spans to " + args.spans_out);
  return out;
}

}  // namespace perfbench
