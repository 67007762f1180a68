// ConsistencyProtocol: the policy axis the paper's evaluation compares.
//
// All four protocols share the same locking substrate (nested O2PL + GDO);
// they differ in which pages move, when:
//
//   COTEC  - Conservative OTEC: transfer ALL of an object's pages to the
//            acquiring site after a successful lock acquisition (baseline).
//   OTEC   - transfer only UPDATED pages (newer than the acquirer's cached
//            copy, or not cached there at all).
//   LOTEC  - transfer only updated pages PREDICTED TO BE NEEDED by the
//            acquiring method (compiler access analysis); mispredictions
//            are fetched on demand.  Up-to-date pages scatter across sites.
//   RC     - Release Consistency for nested objects (the comparison the
//            paper lists as "now underway"): eagerly push updated pages to
//            every caching site at root release.
//
// The policy surface is small and pure: given the acquirer's image, the
// directory page map and the method's predicted page set, which pages are
// fetched now; which pages a release reports to the directory; whether
// demand fetch is legal; whether releases push eagerly.
#pragma once

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/page_set.hpp"
#include "gdo/page_map.hpp"
#include "page/object_image.hpp"

namespace lotec {

enum class ProtocolKind : std::uint8_t { kCotec, kOtec, kLotec, kRc,
                                         kLotecDsd };

/// Number of protocol kinds (array sizing).
inline constexpr std::size_t kNumProtocols = 5;

[[nodiscard]] constexpr std::string_view to_string(ProtocolKind k) noexcept {
  switch (k) {
    case ProtocolKind::kCotec: return "COTEC";
    case ProtocolKind::kOtec: return "OTEC";
    case ProtocolKind::kLotec: return "LOTEC";
    case ProtocolKind::kRc: return "RC";
    case ProtocolKind::kLotecDsd: return "LOTEC-DSD";
  }
  return "?";
}

/// Inverse of to_string, ignoring case: "lotec-dsd" and "LOTEC-DSD" both
/// name kLotecDsd.  Throws UsageError on an unknown name.
[[nodiscard]] inline ProtocolKind parse_protocol(std::string_view name) {
  for (std::size_t i = 0; i < kNumProtocols; ++i) {
    const auto kind = static_cast<ProtocolKind>(i);
    const std::string_view canon = to_string(kind);
    if (std::equal(name.begin(), name.end(), canon.begin(), canon.end(),
                   [](char a, char b) {
                     return std::toupper(static_cast<unsigned char>(a)) == b;
                   }))
      return kind;
  }
  throw UsageError("unknown protocol '" + std::string(name) +
                   "' (cotec|otec|lotec|rc|lotec-dsd)");
}

class ConsistencyProtocol {
 public:
  virtual ~ConsistencyProtocol() = default;

  [[nodiscard]] virtual ProtocolKind kind() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept {
    return to_string(kind());
  }

  /// Pages to fetch from other sites before the acquiring method runs.
  /// `self` is the acquiring site, `image` its current cache of the object,
  /// `map` the page map received with the grant, `predicted` the acquiring
  /// method's predicted page set.
  [[nodiscard]] virtual PageSet pages_to_transfer(
      NodeId self, const ObjectImage& image, const PageMap& map,
      const PageSet& predicted) const = 0;

  /// Non-dirty pages whose residency the releasing site reports to the GDO
  /// (see ReleaseInfo::current).  Dirty pages are always reported.
  [[nodiscard]] virtual PageSet pages_to_report(
      const ObjectImage& image) const = 0;

  /// May a method access hit a non-resident page (answered by a demand
  /// fetch)?  Under COTEC/OTEC/RC the transfer discipline makes every
  /// needed page resident up front, so such an access is a protocol bug.
  [[nodiscard]] virtual bool allows_demand_fetch() const noexcept {
    return false;
  }

  /// Does a root release eagerly push updated pages to all caching sites?
  [[nodiscard]] virtual bool eager_push_on_release() const noexcept {
    return false;
  }

  /// Inter-family lock caching interaction (sticky-lock extension): may the
  /// protocol still push eagerly when the release is *retained* at the site
  /// instead of flushing to the directory?  Never — the versions a cached
  /// commit stamps are not yet published at the directory, and broadcasting
  /// them would orphan pages in remote caches if the caching site crashed
  /// before its flush.  RC therefore degrades to fetch-on-demand freshness
  /// for updates committed under a cached lock (equivalent to OTEC's
  /// staleness test) until the deferred report is flushed.
  [[nodiscard]] virtual bool eager_push_on_retained_release() const noexcept {
    return false;
  }

  /// DSD mode (Section 4.2 / Section 6): when the acquirer's copy of a page
  /// is exactly one version behind, transfer only the delta ranges the last
  /// commit changed instead of the whole page.
  [[nodiscard]] virtual bool delta_transfers() const noexcept {
    return false;
  }
};

/// Instantiate the protocol implementation for `kind`.
[[nodiscard]] std::unique_ptr<ConsistencyProtocol> make_protocol(
    ProtocolKind kind);

/// Pages at other sites whose copy is newer than (or absent from) the local
/// image — the staleness test shared by OTEC/LOTEC/RC.
[[nodiscard]] PageSet stale_or_missing_pages(NodeId self,
                                             const ObjectImage& image,
                                             const PageMap& map);

}  // namespace lotec
