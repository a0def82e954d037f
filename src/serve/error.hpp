// Stable per-request error codes — the service's wire-level failure surface.
//
// A multi-tenant service cannot hand tenants C++ exceptions: a response
// needs a small stable code a client can switch on and a human-readable
// detail string.  This header defines that code space and the *exhaustive*
// mapping from the emulator's typed trap taxonomy into it.
//
// The mapping discipline (satellite of ISSUE 7): error_code() is a single
// switch over sim::TrapKind with no default case.  Under the repo's
// -Wswitch -Werror build, adding a trap kind to the taxonomy without
// assigning it a service error code is a compile error, so the service can
// never see a trap it has no stable code for.  tests/test_serve.cpp
// round-trips every kind through the mapping and its partial inverse.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/trap.hpp"

namespace rvvsvm::serve {

/// Every way a request can fail, as seen by the tenant.  Values are stable:
/// new codes append, existing codes never renumber (clients switch on them).
enum class ErrorCode : std::uint8_t {
  kOk = 0,

  // Admission failures — the request never executed and was never charged.
  kQueueFull = 1,       ///< bounded queue at capacity; retry with backoff
  kBudgetExceeded = 2,  ///< tenant's instruction budget cannot cover this
  kMalformed = 3,       ///< request shape invalid (flag length, zero bins)
  kShutdown = 4,        ///< service stopping; request not executed

  // Execution failures mapped from the trap taxonomy (error_code below).
  kIllegalConfig = 5,       ///< sim::TrapKind::kIllegalConfig
  kOperandFault = 6,        ///< sim::TrapKind::kOperand
  kMemoryFault = 7,         ///< sim::TrapKind::kMemoryAccess
  kInvalidInput = 8,        ///< sim::TrapKind::kInvalidInput
  kResourceExhausted = 9,   ///< sim::TrapKind::kPoolAlloc
  kFaultInjected = 10,      ///< sim::TrapKind::kInjected

  // Execution failure that was not a typed trap (a hart crash, a host
  // exception).  The pool recovered or isolated it; only this request fails.
  kWorkerCrash = 11,

  // Snapshot subsystem failure surfaced through the service (a cold-start
  // restore or checkpoint rejected a corrupt/mismatched snapshot file).
  kSnapshotInvalid = 12,  ///< sim::TrapKind::kSnapshot

  // Overload containment (ISSUE 10).  kDeadlineExceeded is the only one of
  // these that can follow execution: the request's instruction-budget
  // deadline passed, either while queued (shed before execution, zero bill)
  // or mid-execution (cooperatively cancelled at a strip-mine wave boundary;
  // the cancelled attempt rolls back whole into the pool's abandoned ledger
  // and the request bills nothing).  The other three are admission
  // rejections decided in microseconds, never executed, never charged.
  kDeadlineExceeded = 13,    ///< sim::TrapKind::kDeadlineExceeded
  kDeadlineUnmeetable = 14,  ///< predicted cost + queue backlog > deadline
  kShedOverload = 15,        ///< shed by a higher-priority arrival at saturation
  kTenantQuarantined = 16,   ///< tenant's circuit breaker is open
};

/// Stable mnemonic for logs and the CLI ("ok", "queue_full", ...).
[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

/// The exhaustive trap-taxonomy mapping: every sim::TrapKind has exactly one
/// service error code.  No default case — extending the taxonomy without
/// extending this switch fails to compile.
[[nodiscard]] ErrorCode error_code(sim::TrapKind kind) noexcept;

/// Partial inverse: the trap kind a trap-derived code came from, or
/// std::nullopt for kOk / admission / kWorkerCrash codes.  The round-trip
/// trap_kind(error_code(k)) == k holds for every k (unit-tested per kind).
[[nodiscard]] std::optional<sim::TrapKind> trap_kind(ErrorCode code) noexcept;

}  // namespace rvvsvm::serve
