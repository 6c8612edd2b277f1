// Deterministic differential fuzzer for the bandwidth broker.
//
// Generates long randomized operation sequences over the full broker API —
// per-flow admit/release/renegotiate, class-based microflow join/leave,
// out-of-band link bandwidth mutation, checkpointing, crash/recover,
// duplicate re-delivery — and after EVERY operation asserts equivalence
// between the broker's cached fast path and the from-scratch reference
// oracle (core/oracle.h):
//
//   * per-flow decisions (admit bit, chosen path, rate/delay/bound within
//     kOracleRateTol, reject-reason class) against oracle_decide_request /
//     oracle_admit_per_flow,
//   * the full MIB state (knot caches, C_res^P caches, reserved bandwidth
//     vs. a full-map rebooking) against oracle_check_state,
//   * rejected requests leave the MIB state untouched.
//
// All operations run through the DurableBroker write-ahead journal
// (core/durable_broker.h), which the harness attacks with fault injection:
//
//   * kCrashRecover kills the broker mid-sequence (clean cut, torn final
//     record, or bit-flip corruption of the journal image) and requires
//     recovery to reproduce the live state EXACTLY — every acknowledged
//     operation survives, corruption is refused loudly (kDataLoss);
//   * kRedeliver re-sends a previously acknowledged request (after a
//     jittered util/backoff.h delay, as a real at-least-once client would)
//     and requires the recorded decision back with zero state change;
//   * run_crash_sweep() replays a sequence while snapshotting the journal
//     after every op, then re-recovers at every record boundary, at cuts
//     inside every record, and under single-bit flips.
//
// All randomness is resolved at GENERATION time into concrete FuzzOp
// records, so a dumped op log replays without the generator (and therefore
// survives minimization and generator changes). On divergence the driver
// truncates + greedily minimizes the sequence and produces a replayable
// repro file ("# seed ..." header + one op per line).

#ifndef QOSBB_TOOLS_FUZZ_HARNESS_H_
#define QOSBB_TOOLS_FUZZ_HARNESS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/durable_broker.h"
#include "core/journal.h"

namespace qosbb::fuzz {

enum class OpKind : int {
  kAdmit = 0,
  kRelease = 1,
  kRenegotiate = 2,
  kClassJoin = 3,
  kClassLeave = 4,
  kLinkReserve = 5,
  kLinkRelease = 6,
  kSnapshotRestore = 7,  ///< anchor checkpoint (journal truncation)
  kCrashRecover = 8,     ///< kill + recover; `target` picks the fault mode
  kRedeliver = 9,        ///< duplicate delivery of an earlier request
  /// 2-8 admits through the batched group-commit path; the journaled
  /// harness draws up to 2 releases of live flows into the batch.
  kBatchAdmit = 10,
};
const char* op_kind_name(OpKind k);

/// One concrete, replayable operation. Ordinal fields (`pair`, `target`)
/// are reduced modulo the relevant live-list size at execution time, so a
/// sequence stays executable after minimization removes earlier ops.
struct FuzzOp {
  OpKind kind = OpKind::kAdmit;
  // Traffic shape for kAdmit / kClassJoin (σ, ρ, P, L) and the delay
  // requirement for kAdmit / kRenegotiate.
  double sigma = 0.0;
  double rho = 0.0;
  double peak = 0.0;
  double l_max = 0.0;
  double d_req = 0.0;
  int pair = 0;       ///< ingress/egress pair ordinal
  std::int64_t target = 0;  ///< flow / class / link ordinal (mod list size)
  double amount = 0.0;      ///< bandwidth for kLinkReserve / kLinkRelease

  std::string to_line() const;
  static std::optional<FuzzOp> from_line(const std::string& line);
};

enum class FuzzTopology : int {
  kFig8Mixed = 0,     // Figure 8, Setting B (C̸SVC + VT-EDF hops)
  kFig8RateOnly = 1,  // Figure 8, Setting A (all rate-based)
  kDumbbellEdf = 2,   // 3-pair dumbbell, every link VT-EDF
};
const char* fuzz_topology_name(FuzzTopology t);

struct FuzzConfig {
  std::uint64_t seed = 1;
  int ops = 2000;
  FuzzTopology topology = FuzzTopology::kFig8Mixed;
  /// TEST ONLY (canary): drop every knot-cache dirty flag after each op
  /// without rebuilding — simulates a forgotten invalidation. The harness
  /// MUST report a divergence quickly under this flag. Crash/recover ops
  /// are skipped (the deliberately-poisoned cache is not durable state).
  bool sabotage_knot_cache = false;
  /// TEST ONLY (canary): silently drop one journal append (the broker
  /// still acknowledges the op). Recovery MUST catch the hole — as an LSN
  /// discontinuity or as a lost acknowledged op — and the harness reports
  /// it as a divergence. Checkpoint ops are skipped under this flag (an
  /// anchor truncates the journal and would heal the hole).
  bool sabotage_drop_append = false;
  /// Widen the kBatchAdmit slice of the generator's op mix (~6% -> ~24%),
  /// stress-testing the grouped submit_batch / request_service_batch paths.
  /// Replay is unaffected (ops are concrete once generated).
  bool batch_heavy = false;
};

struct FuzzResult {
  bool ok = true;
  int ops_executed = 0;
  int divergence_op = -1;   ///< index into `ops` of the diverging op
  std::string divergence;   ///< human-readable description
  std::vector<FuzzOp> ops;  ///< the concrete sequence that ran

  // Aggregate counters (reporting only).
  int admits = 0;
  int rejects = 0;
  int releases = 0;
  int renegotiations = 0;
  int joins = 0;
  int leaves = 0;
  int snapshots = 0;
  int recoveries = 0;
  int redeliveries = 0;
  int batch_admits = 0;  ///< kBatchAdmit ops (members count into admits/rejects)
  std::uint64_t prefilter_checked = 0;  ///< threaded: pre-filter predictions

  std::string summary() const;
};

/// Generate `cfg.ops` concrete operations from `cfg.seed` and run them
/// differentially. Stops at the first divergence.
FuzzResult run_fuzz(const FuzzConfig& cfg);

/// Replay a concrete operation sequence differentially (used by repro files
/// and by minimization; `cfg.seed`/`cfg.ops` are ignored here).
FuzzResult replay(const FuzzConfig& cfg, const std::vector<FuzzOp>& ops);

/// Differential THREADED replay: run the generated sequence through a
/// sequential monolith broker and through a ConcurrentBrokerFront, running
/// each per-flow op on its own OS thread and joining it before issuing the
/// next (a barrier-sequentialized schedule in which the front's
/// thread-local scratch crosses threads; at most one op thread is alive at
/// a time). After every op the two brokers must agree bit-for-bit:
/// decision, reservation parameters, reject reason and detail, status text,
/// per-link (reserved, buffer) floats, flow population, aggregate stats
/// and every audit-log entry; snapshot ops must produce byte-equal frames.
/// kBatchAdmit ops run their admits (no releases are drawn in;
/// the journaled harness, whose DurableBroker decides through the same
/// front, covers mixed slabs) through ConcurrentBrokerFront::submit_batch
/// against a member-at-a-time monolith reference in batch_grouped_order.
/// Journal-layer ops (kCrashRecover, kRedeliver) are skipped — this
/// mode proves the decomposed front is observationally identical to the
/// monolith, not durability (run_fuzz covers that). The front's broker
/// passes a full oracle_check_state audit at the end, and the admission
/// pre-filter must have agreed with the full admission test on EVERY
/// prediction it made (FuzzResult::prefilter_checked counts them).
FuzzResult run_fuzz_threaded(const FuzzConfig& cfg);

/// Greedy chunked minimization (ddmin-lite): truncate at the divergence,
/// then repeatedly drop chunks whose removal preserves SOME divergence.
/// Returns a sequence that still diverges under replay.
std::vector<FuzzOp> minimize(const FuzzConfig& cfg,
                             const std::vector<FuzzOp>& ops);

/// Replayable repro text: a "# seed ... topology ..." header followed by
/// one op per line (%.17g doubles — exact round trip).
std::string dump_repro(const FuzzConfig& cfg, const std::vector<FuzzOp>& ops);
std::optional<std::pair<FuzzConfig, std::vector<FuzzOp>>> parse_repro(
    const std::string& text);

/// Exact observable-state fingerprint used by crash-recovery equality:
/// per-link floats bit-for-bit, flow population, and the journal position.
struct StateDigest {
  std::vector<std::pair<double, double>> links;
  std::size_t flows = 0;
  std::size_t macroflows = 0;
  std::uint64_t next_lsn = 0;
  bool operator==(const StateDigest&) const = default;
};
StateDigest digest_of(const DomainSpec& spec, const BandwidthBroker& bb,
                      std::uint64_t next_lsn);

/// DurableBroker::execute_batch's documented execution order: each admit
/// run in batch_grouped_order, each release in its position.
std::vector<std::size_t> batch_execution_order(std::span<const SlabOp> ops);
/// One batch member through the per-op API (request_service /
/// release_service), shaped like an execute_batch result.
Result<Reservation> run_member(DurableBroker& db, const SlabOp& op,
                               Seconds now);

// ---- Crash sweep ----

/// Exhaustive crash-point sweep over one generated sequence: execute ops
/// through the journal, snapshot the journal image + an exact state digest
/// after every acknowledged op, then for every op recover from
///   * the image as of that op (record boundary) — must reproduce the
///     digest exactly and satisfy oracle_check_state,
///   * cuts INSIDE the bytes that op appended (mid-record torn tail) —
///     must recover to the PREVIOUS op's digest (unacked op cleanly
///     absent); a multi-record group frame (kBatchAdmit) is cut at EVERY
///     byte, and each cut must recover to the all-or-prefix state (the
///     clean member prefix applied, the torn member cleanly absent),
///   * a single bit flip in the image — recovery must refuse (kDataLoss).
/// Under sabotage_drop_append the sweep must instead detect the hole
/// (reported via `failures`; the driver inverts the exit code).
struct CrashSweepResult {
  bool ok = true;
  int ops_executed = 0;
  int boundaries = 0;  ///< boundary recoveries checked
  int mid_cuts = 0;    ///< torn-tail (mid-record) recoveries checked
  int bit_flips = 0;   ///< corrupted images refused
  int redeliveries = 0;  ///< post-recovery duplicate deliveries checked
  std::vector<std::string> failures;

  std::string summary() const;
};
CrashSweepResult run_crash_sweep(const FuzzConfig& cfg);

// ---- Fault injection ----

/// Journal backing with injectable faults, used by the harness and the
/// journal unit tests. Behaves like MemoryJournalFile until told otherwise.
class FaultyJournalFile : public JournalFile {
 public:
  Status append(const WireBuffer& bytes) override;
  Result<WireBuffer> read_all() const override;
  Status replace(const WireBuffer& bytes) override;

  const WireBuffer& contents() const { return data_; }
  void set_contents(WireBuffer bytes) { data_ = std::move(bytes); }

  /// Silently swallow the Nth append (0-based, counted across the file's
  /// lifetime): the caller sees OK but nothing is written — the injected
  /// fault the --sabotage mode must catch.
  void set_drop_append_index(std::uint64_t idx) { drop_append_index_ = idx; }
  std::uint64_t appends() const { return appends_; }
  std::uint64_t replaces() const { return replaces_; }

  /// Flip one bit of the stored image (corruption injection).
  void flip_bit(std::size_t bit_index);

 private:
  WireBuffer data_;
  std::uint64_t appends_ = 0;
  std::uint64_t replaces_ = 0;
  std::optional<std::uint64_t> drop_append_index_;
};

}  // namespace qosbb::fuzz

#endif  // QOSBB_TOOLS_FUZZ_HARNESS_H_
