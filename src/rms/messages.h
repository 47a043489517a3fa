// messages.h -- the message vocabulary between Local Resource Managers and
// the Global Resource Manager (Section 3.2, final paragraph):
//
//   "The GRM provides services to manage sharing agreements and to schedule
//    resources among local resource managers. LRMs are responsible for
//    providing resource availability information to the GRM dynamically,
//    and fulfilling resource allocation according to the GRM's decisions."
//
// The vocabulary also carries the hardening metadata the protocol needs on
// an unreliable bus: per-LRM report sequence numbers (duplicate/reorder
// suppression), retry attempt counters, explicit acks for reserve commands,
// a restart resync report, and a generic self-addressed timer tick.
//
// The second half of the vocabulary is the replicated-GRM quorum log
// (replica/raft.h, DESIGN.md §12): log entries carrying the commands a GRM
// state machine applies, the Raft-style election and replication RPCs, and
// the NotLeader redirect a follower sends a client.
//
// Nothing else rides the bus: the enforcement engine's shards exchange no
// messages (each decides from its own exact allocator; mutations reach
// every shard through its in-process queue).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace agora::rms {

/// LRM -> GRM: periodic/dirty availability report (one entry per resource).
struct AvailabilityReport {
  std::size_t lrm = 0;
  std::vector<double> available;
  double timestamp = 0.0;        ///< LRM-local bus time when measured
  std::uint64_t report_seq = 0;  ///< per-LRM monotone counter; 0 = unsequenced
};

/// Client -> GRM: allocate `amounts` (per resource) on behalf of the
/// principal hosted at LRM `principal`, holding them for `duration` time.
struct AllocationRequest {
  std::uint64_t request_id = 0;
  std::size_t principal = 0;
  std::vector<double> amounts;
  double duration = 0.0;
  std::uint32_t attempt = 0;  ///< 0 for the first send, bumped per retry
};

/// GRM -> client: the decision.
struct AllocationReply {
  std::uint64_t request_id = 0;
  bool granted = false;
  /// Per resource, per LRM: how much was drawn where (empty when denied).
  std::vector<std::vector<double>> draws;
  std::string reason;
};

/// GRM -> LRM: reserve local capacity for a request (per resource).
struct ReserveCommand {
  std::uint64_t request_id = 0;
  std::vector<double> amounts;
  double duration = 0.0;
  bool want_ack = false;  ///< set when the GRM retries until acknowledged
};

/// LRM -> GRM (and internal): reservation expired / job finished.
struct ReleaseNotice {
  std::uint64_t request_id = 0;
};

/// LRM -> GRM: a ReserveCommand was applied (or was already applied --
/// acks are idempotent, retried commands re-ack).
struct Ack {
  std::uint64_t request_id = 0;
  std::size_t site = 0;
};

/// LRM -> GRM after a restart: authoritative availability plus every
/// outstanding reservation, so the GRM can rebuild its view of the site.
struct LrmResync {
  struct Hold {
    std::uint64_t request_id = 0;
    std::vector<double> amounts;
    double expires_at = 0.0;  ///< 0 = open-ended reservation
  };
  std::size_t lrm = 0;
  double timestamp = 0.0;
  std::vector<double> available;
  std::vector<Hold> holds;
};

/// Self-addressed wake-up used for retry backoff and request deadlines.
/// Timers model an endpoint's local clock: the fault layer never drops them.
struct Timer {
  std::uint64_t token = 0;
};

/// Agreement management service (GRM): change a relative share at runtime.
struct AgreementUpdate {
  std::size_t resource = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  double share = 0.0;
};

// ---------------------------------------------------------------------------
// Replicated-GRM quorum log (replica/raft.h). Replica and site identifiers
// are plain indices; `origin` endpoints are bus EndpointIds (std::size_t).
// ---------------------------------------------------------------------------

struct GrmSnapshot;  // replica/state_machine.h

/// Leader bookkeeping entry appended on election so entries from earlier
/// terms commit promptly (the classic no-op); applying it changes nothing.
struct RaftNoop {};

/// What a replicated GRM state machine applies. Decisions, reports, resyncs
/// and agreement updates all flow through the log so every replica sees the
/// same sequence; replies/acks/timers stay node-local.
using LogCommand =
    std::variant<RaftNoop, AvailabilityReport, AllocationRequest, AgreementUpdate, LrmResync>;

struct LogEntry {
  std::uint64_t term = 0;
  std::uint64_t index = 0;
  /// Leader's bus time at append. Replicas apply with this time (not their
  /// local clock) so staleness masking is bit-identical everywhere.
  double time = 0.0;
  std::size_t origin = 0;  ///< endpoint to answer once the entry commits
  LogCommand command;
};

/// Candidate -> all: ask for a vote in `term`.
struct RequestVote {
  std::uint64_t term = 0;
  std::size_t candidate = 0;  ///< replica index
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
};

struct VoteReply {
  std::uint64_t term = 0;
  std::size_t voter = 0;
  bool granted = false;
};

/// Leader -> follower: replicate `entries` after (prev_index, prev_term);
/// empty entries = heartbeat. `commit` piggybacks the leader's commit index.
struct AppendEntries {
  std::uint64_t term = 0;
  std::size_t leader = 0;
  std::uint64_t prev_index = 0;
  std::uint64_t prev_term = 0;
  std::vector<LogEntry> entries;
  std::uint64_t commit = 0;
};

struct AppendReply {
  std::uint64_t term = 0;
  std::size_t follower = 0;
  bool success = false;
  std::uint64_t match_index = 0;  ///< on success: highest index known replicated
  std::uint64_t hint_index = 0;   ///< on failure: follower's suggested next index
};

/// Leader -> lagging follower whose next entry was compacted away: the full
/// state machine at (last_index, last_term). The snapshot is shared, not
/// copied, so fault-layer duplication of this message stays cheap.
struct InstallSnapshot {
  std::uint64_t term = 0;
  std::size_t leader = 0;
  std::uint64_t last_index = 0;
  std::uint64_t last_term = 0;
  std::shared_ptr<const GrmSnapshot> state;
};

struct SnapshotReply {
  std::uint64_t term = 0;
  std::size_t follower = 0;
  std::uint64_t match_index = 0;
};

/// Follower/candidate -> client: resubmit to the leader (if known).
struct NotLeader {
  std::uint64_t request_id = 0;
  std::uint64_t term = 0;
  bool leader_known = false;
  std::size_t leader = 0;  ///< bus endpoint of the believed leader
};

using Payload = std::variant<AvailabilityReport, AllocationRequest, AllocationReply,
                             ReserveCommand, ReleaseNotice, AgreementUpdate, Ack,
                             LrmResync, Timer, RequestVote, VoteReply, AppendEntries,
                             AppendReply, InstallSnapshot, SnapshotReply, NotLeader>;

}  // namespace agora::rms
