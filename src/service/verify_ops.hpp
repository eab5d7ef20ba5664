// The "verify" protocol op: a synthesize whose post-layout verification
// tier is always on, answering with the verification verdict up front so
// clients can gate on pass/fail without digging through the full result.
//
// Installed through ServiceProtocol::registerOp like the explore ops, so
// lo_service's core protocol keeps no dependency on when (or whether) the
// op is wired in -- losynthd installs it at startup.
#pragma once

#include "service/protocol.hpp"

namespace lo::service {

/// Register the "verify" op on `protocol`.  Jobs are submitted through
/// `scheduler` with options.postLayoutVerify.enabled forced on; the
/// response mirrors a synchronous synthesize outcome plus
///   "post_layout_ran"   whether the tier produced a report
///   "post_layout_pass"  the report's verdict (absent when it never ran)
///   "verification"      the structured report (absent when it never ran)
/// {"summary":true} omits the full "result" body, keeping the verdict and
/// report.  Throws (-> {"ok":false,...}) on malformed requests.
void installVerifyOps(ServiceProtocol& protocol, JobScheduler& scheduler);

}  // namespace lo::service
