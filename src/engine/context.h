// Parameter contexts (paper §4.2, after Snoop).
//
// A parameter context decides which constituent-instance combinations are
// pulled out of the event history when a complex event completes. The
// paper argues only the *chronicle* context is correct for RFID streams,
// because complex-event instances routinely overlap (multiple packing
// episodes in flight); *unrestricted* stays as its counterexample and as
// the exhaustive baseline the reference interpreter also implements.

#ifndef RFIDCEP_ENGINE_CONTEXT_H_
#define RFIDCEP_ENGINE_CONTEXT_H_

#include <string_view>

namespace rfidcep::engine {

// The values are part of the snapshot fingerprint (ComputeFingerprint
// hashes them): never renumber. 1-3 were the removed recent, continuous
// and cumulative contexts.
enum class ParameterContext {
  kChronicle = 0,     // Oldest initiator pairs with oldest terminator
                      // (default).
  kUnrestricted = 4,  // Every combination; nothing is consumed.
};

std::string_view ParameterContextName(ParameterContext context);

}  // namespace rfidcep::engine

#endif  // RFIDCEP_ENGINE_CONTEXT_H_
