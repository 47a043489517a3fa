// partition.h -- how the enforcement engine splits participants into shards.
//
// The agreement graph gives a natural sharding axis: capacity can only flow
// along (possibly transitive) agreement edges, so participants in different
// connected components of the agreement graph can never draw on each other.
// A shard that owns a whole set of components can therefore decide requests
// for its participants with a *local* LP over only those participants, and
// the decision is exactly what the global allocator would have produced for
// them (entitlements crossing a component boundary are identically zero).
// This is GMA's locality argument applied to our agreement economies, and
// it is also the perf win: the simplex is superlinear in participant count,
// so eight shards solving 9-variable LPs beat one solver on a 65-variable
// model even on a single core.
//
// When the economy is a single connected component there is no independent
// split. Participants are then hashed to shards for queue routing and every
// shard owns a full-system replica allocator (mutations are broadcast so
// replicas stay identical). Every shard solves the same global min-theta LP
// the direct allocator solves, so decisions never depend on the shard
// count; only the queue a request waits in does.
#pragma once

#include <cstddef>
#include <vector>

#include "agree/matrices.h"

namespace agora::engine {

struct Partition {
  /// Effective shard count (<= requested: never more shards than
  /// components in connectivity mode, never more than participants).
  std::size_t shards = 1;
  /// True when the hash fallback is in use: every shard owns the full
  /// participant set and mutations must be broadcast to all shards.
  bool replicated = false;
  /// Number of connected components in the agreement graph.
  std::size_t components = 0;
  /// Owning shard per participant (routing key).
  std::vector<std::size_t> shard_of;
  /// Participants owned by each shard, ascending. In replicated mode every
  /// shard lists all participants.
  std::vector<std::vector<std::size_t>> members;
};

/// Partition the participants of `sys` into at most `shards` shards.
/// Connected components (union of the relative and absolute agreement
/// supports, symmetrized) are bin-packed onto shards, largest first. A
/// single component falls back to hash routing over full replicas; several
/// components never yield more shards than components.
Partition partition_participants(const agree::AgreementSystem& sys, std::size_t shards);

}  // namespace agora::engine
