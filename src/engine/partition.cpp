#include "engine/partition.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace agora::engine {

namespace {

std::size_t find_root(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];  // path halving
    i = parent[i];
  }
  return i;
}

void unite(std::vector<std::size_t>& parent, std::size_t a, std::size_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a != b) parent[std::max(a, b)] = std::min(a, b);
}

/// Connected components, each ascending, ordered by smallest member for
/// determinism.
std::vector<std::vector<std::size_t>> collect_groups(std::vector<std::size_t>& parent) {
  const std::size_t n = parent.size();
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = find_root(parent, i);
    if (group_of[r] == n) {
      group_of[r] = groups.size();
      groups.emplace_back();
    }
    groups[group_of[r]].push_back(i);  // ascending: i is visited in order
  }
  return groups;
}

/// LPT bin-packing of components onto `part.shards` shards: largest first
/// onto the least-loaded shard, ties toward the lower shard id.
void pack_groups(const std::vector<std::vector<std::size_t>>& groups, Partition& part) {
  part.members.assign(part.shards, {});
  part.shard_of.assign(part.shard_of.size(), 0);
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return groups[a].size() > groups[b].size();
  });
  std::vector<std::size_t> load(part.shards, 0);
  for (const std::size_t g : order) {
    const std::size_t s = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[s] += groups[g].size();
    for (const std::size_t i : groups[g]) {
      part.members[s].push_back(i);
      part.shard_of[i] = s;
    }
  }
  // Local indices inside a shard follow the sorted global order so the
  // induced sub-system is independent of packing order.
  for (auto& m : part.members) std::sort(m.begin(), m.end());
}

}  // namespace

Partition partition_participants(const agree::AgreementSystem& sys, std::size_t shards) {
  const std::size_t n = sys.size();
  AGORA_REQUIRE(n > 0, "cannot partition an empty system");
  shards = shards == 0 ? 1 : std::min(shards, n);

  // Connected components of the symmetrized agreement support S + A.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && (sys.relative(i, j) > 0.0 || sys.absolute(i, j) > 0.0))
        unite(parent, i, j);
  const std::vector<std::vector<std::size_t>> comps = collect_groups(parent);

  Partition part;
  part.components = comps.size();
  part.shard_of.assign(n, 0);

  if (comps.size() == 1 && shards > 1) {
    // Hash fallback: one giant component, no independent split. Replicate
    // the full system on every shard and route requests by participant id.
    part.shards = shards;
    part.replicated = true;
    for (std::size_t i = 0; i < n; ++i) part.shard_of[i] = i % shards;
    part.members.assign(shards, comps[0]);
    return part;
  }

  part.shards = std::min(shards, comps.size());
  pack_groups(comps, part);
  return part;
}

}  // namespace agora::engine
