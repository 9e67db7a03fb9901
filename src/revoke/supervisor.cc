#include "revoke/supervisor.hh"

namespace cherivoke {
namespace revoke {

const char *
sweeperEventKindName(SweeperEventKind kind)
{
    switch (kind) {
      case SweeperEventKind::Dispatch: return "dispatch";
      case SweeperEventKind::Completed: return "completed";
      case SweeperEventKind::StallDetected: return "stall-detected";
      case SweeperEventKind::Retry: return "retry";
      case SweeperEventKind::Crash: return "crash";
      case SweeperEventKind::ReassignToAssist:
        return "reassign-to-assist";
      case SweeperEventKind::StwCatchup: return "stw-catchup";
      case SweeperEventKind::Containment: return "containment";
    }
    return "unknown";
}

std::string
sweeperEventLine(const SweeperEvent &event)
{
    std::string out = sweeperEventKindName(event.kind);
    out += "@d";
    out += std::to_string(event.domain);
    out += ":e";
    out += std::to_string(event.epochSeq);
    out += " pages=";
    out += std::to_string(event.pages);
    out += " attempt=";
    out += std::to_string(event.attempt);
    return out;
}

} // namespace revoke
} // namespace cherivoke
