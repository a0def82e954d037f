// The service's request/response value types.
//
// A request names a tenant, one of the SVM kernel families, and its
// payload; a response carries the result data, a stable error code
// (serve/error.hpp), and — the billing contract — an exact per-request
// dynamic-instruction bill drawn from the pool's merged ledger.  The data
// plane is fixed at 32-bit unsigned elements: wide enough for every
// paper workload, and one concrete type keeps the wire format (and the
// future socket protocol) trivial.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/error.hpp"
#include "sim/inst_counter.hpp"
#include "sim/tenant_ledger.hpp"
#include "sim/trap.hpp"

namespace rvvsvm::serve {

/// Service data-plane element type.
using Value = std::uint32_t;

/// Kernel families the service executes.  Small same-kind requests of the
/// first four coalesce into one segmented envelope pass; histogram and sort
/// always execute individually (their passes are not segment-composable).
enum class Kind : std::uint8_t {
  kScan,           ///< inclusive plus-scan, in place
  kScanExclusive,  ///< exclusive plus-scan, in place
  kReduce,         ///< plus-reduce to one scalar
  kCompress,       ///< stable stream compaction by keep-flags
  kHistogram,      ///< bin counts of keys in [0, bins)
  kSort,           ///< split radix sort, ascending
};

inline constexpr std::size_t kNumRequestKinds = 6;

/// Scheduling class for overload containment.  Higher values are served
/// first and survive queue saturation longer: when the queue is full, an
/// arriving request sheds the newest queued request of the *lowest* class
/// strictly below its own (shed-lowest-first) instead of being rejected
/// flat.  Within a class, service order stays FIFO.
enum class Priority : std::uint8_t {
  kBackground = 0,  ///< first to shed under overload
  kBatch = 1,       ///< the default
  kInteractive = 2,  ///< served first, last to shed
};

inline constexpr std::size_t kNumPriorities = 3;

/// Mnemonic for logs and the CLI ("background", "batch", "interactive").
[[nodiscard]] constexpr const char* to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kBackground:
      return "background";
    case Priority::kBatch:
      return "batch";
    case Priority::kInteractive:
      return "interactive";
  }
  return "?";
}

/// Mnemonic for logs and the CLI ("scan", "compress", ...).
[[nodiscard]] constexpr const char* to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScan:
      return "scan";
    case Kind::kScanExclusive:
      return "scan_exclusive";
    case Kind::kReduce:
      return "reduce";
    case Kind::kCompress:
      return "compress";
    case Kind::kHistogram:
      return "histogram";
    case Kind::kSort:
      return "sort";
  }
  return "?";
}

struct Request {
  sim::TenantId tenant = 0;
  Kind kind = Kind::kScan;
  /// Payload: the array to scan/reduce/compress/sort, or histogram keys.
  std::vector<Value> data;
  /// kCompress only: keep-flags, one per payload element (nonzero = keep).
  std::vector<Value> flags;
  /// kHistogram only: number of bins, in [1, 2^32]; every key must be
  /// < bins.
  std::size_t bins = 0;
  /// Scheduling class (see Priority).  Orthogonal to the deadline: a
  /// background request may carry a deadline and an interactive one may not.
  Priority priority = Priority::kBatch;
  /// Latency deadline as a *virtual-time budget*: the request must finish
  /// within this many per-hart retired instructions of admission (the
  /// service's clock is the pool's merged ledger divided by hart count —
  /// deterministic, unlike wall time).  0 = no deadline.  Enforced three
  /// ways, earliest first: admission control predicts cost via
  /// tune::CostModel and rejects unmeetable requests in microseconds
  /// (kDeadlineUnmeetable); requests whose deadline passed while queued are
  /// shed unexecuted (kDeadlineExceeded, zero bill); in-flight requests are
  /// cooperatively cancelled at the next strip-mine wave boundary
  /// (kDeadlineExceeded, rolled-back work ledgered abandoned).
  std::uint64_t deadline_insts = 0;
  /// Test/bench-only fault channel: installed on the executing machine for
  /// exactly this request's attempts (never coalesced, so the blast radius
  /// is one request).  Non-owning; must outlive the request.  Hooks keep
  /// unsynchronized state, so requests that can run at the same time must
  /// not share one.  Production clients leave it null.
  FaultHook* chaos_hook = nullptr;
};

struct Response {
  ErrorCode error = ErrorCode::kOk;
  /// Scan/compress/sort output, or histogram bins.  Empty for kReduce and
  /// for every failed request.
  std::vector<Value> data;
  /// kReduce result.
  Value scalar = 0;
  /// kCompress: number of kept elements (== data.size()).
  std::size_t out_size = 0;
  /// Exact dynamic-instruction bill for this request: the committed counts
  /// of the attempt that produced the result (failed attempts are rolled
  /// back by the pool and ledgered abandoned — never billed).  Zero for
  /// rejected and failed requests.
  sim::CountSnapshot bill;
  /// bill.total(), for clients that only meter one number.
  std::uint64_t billed_total = 0;
  /// The request was executed inside a coalesced segmented-envelope pass.
  bool coalesced = false;
  /// Virtual-time latency: service clock at completion minus service clock
  /// at admission, in per-hart retired instructions (the unit deadlines are
  /// expressed in).  The clock advances at execution-phase boundaries, so
  /// this is exact to within one phase.  Zero for admission rejections.
  std::uint64_t vt_latency = 0;
  /// Failure detail (trap message or pool report summary); empty on success.
  std::string message;

  [[nodiscard]] bool ok() const noexcept { return error == ErrorCode::kOk; }
};

}  // namespace rvvsvm::serve
