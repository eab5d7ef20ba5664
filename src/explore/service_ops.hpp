// Protocol glue: installs the exploration ops into a ServiceProtocol via
// its extension seam, so losynthd gains
//
//   explore         start an exploration; {"async":true} returns the
//                   exploration id immediately, otherwise blocks and
//                   returns the front
//   explore_result  block until an exploration finishes and return its
//                   front ({"csv":true} adds the CSV export)
//
// plus an "explorations" section in the `stats` response with each
// exploration's live phase / evaluated / front-size counters.  The
// dependency points explore -> service only; the protocol knows nothing
// about this library.
#pragma once

#include "explore/manager.hpp"
#include "service/protocol.hpp"

namespace lo::explore {

/// Parse the space/options fields of an `explore` request (topology, case,
/// model, corner, spec, axes, budget, max_rounds, objectives, tolerance,
/// priority, deadline_seconds).  Throws std::invalid_argument on missing
/// or malformed fields; shared with the loexplore CLI's config file.
[[nodiscard]] ExploreSpace spaceFromJson(const service::Json& request);
[[nodiscard]] ExploreOptions optionsFromJson(const service::Json& request);

/// Inverse of spaceFromJson/optionsFromJson: serialise a space + options
/// back into the request shape they parse.  Round trips are exact (the
/// doubles survive bit-identically), so the explore session journal can
/// store a session as its request and re-run it verbatim after a crash.
[[nodiscard]] service::Json exploreRequestJson(const ExploreSpace& space,
                                               const ExploreOptions& options);

/// Register the ops and the stats section.  Both objects must outlive the
/// protocol's serving loop.
void installExploreOps(service::ServiceProtocol& protocol, ExploreManager& manager);

}  // namespace lo::explore
