// ids.h -- strongly typed identifiers for the economy's entities.
//
// Distinct wrapper types keep a PrincipalId from being passed where a
// CurrencyId is expected; all are cheap value types indexing into the
// Economy's internal tables.
#pragma once

#include <cstddef>
#include <functional>

namespace agora::core {

namespace detail {
template <typename Tag>
struct Id {
  std::size_t value = static_cast<std::size_t>(-1);

  constexpr Id() = default;
  constexpr explicit Id(std::size_t v) : value(v) {}
  constexpr bool valid() const { return value != static_cast<std::size_t>(-1); }

  friend constexpr bool operator==(Id a, Id b) { return a.value == b.value; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value != b.value; }
  friend constexpr bool operator<(Id a, Id b) { return a.value < b.value; }
};
}  // namespace detail

struct PrincipalTag {};
struct CurrencyTag {};
struct TicketTag {};
struct ResourceTag {};

/// A participant in the sharing economy (an ISP, an organization, ...).
using PrincipalId = detail::Id<PrincipalTag>;
/// A currency: the default per-principal one or a virtual currency.
using CurrencyId = detail::Id<CurrencyTag>;
/// A ticket: base resource capacity or an agreement.
using TicketId = detail::Id<TicketTag>;
/// A resource type (CPU seconds, disk TB, network bandwidth, ...).
using ResourceTypeId = detail::Id<ResourceTag>;

}  // namespace agora::core

namespace std {
template <typename Tag>
struct hash<agora::core::detail::Id<Tag>> {
  size_t operator()(agora::core::detail::Id<Tag> id) const noexcept {
    return std::hash<size_t>{}(id.value);
  }
};
}  // namespace std
