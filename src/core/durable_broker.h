// Crash-consistent facade over BandwidthBroker: write-ahead journaling of
// every state-mutating operation, anchor checkpoints, and idempotent
// at-least-once request handling.
//
// Discipline (redo logging): execute the operation on the live broker,
// append ONE record holding the request AND the encoded decision, and only
// then acknowledge. Recovery loads the anchor snapshot at the head of the
// log (if any) and re-executes the tail records in order; because the
// broker is deterministic, each re-execution must reproduce the recorded
// decision byte-for-byte — a mismatch means the log does not describe this
// broker's history and recovery fails loudly (kDataLoss) instead of
// rebuilding a subtly different state.
//
// Idempotency: signaling clients retry on timeout, so every client-facing
// operation carries a client-assigned RequestId. A duplicate delivery
// replays the RECORDED decision without touching the broker — even when the
// first delivery admitted a flow that has since been released. The dedup
// window (bounded, FIFO-evicted) is serialized into each anchor record and
// rebuilt from the tail on recovery, so a retry that straddles a crash is
// still recognized.
//
// Checkpointing swaps the live broker for its own restored snapshot. That
// sounds redundant, but it pins the float state: post-anchor execution then
// starts from bit-exactly the state recovery will reconstruct, which is
// what lets the fault-injection harness (tools/fuzz_harness.h) demand exact
// equality between a crashed-and-recovered broker and the live one.

#ifndef QOSBB_CORE_DURABLE_BROKER_H_
#define QOSBB_CORE_DURABLE_BROKER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/broker.h"
#include "core/journal.h"

namespace qosbb {

// RequestId / kNoRequestId live in core/types.h (pulled in via broker.h):
// the wire protocol carries the client's rid, so the vocabulary type is
// shared by the codec, the server, and this journaled broker.

struct DurableBrokerOptions {
  /// Maximum remembered decisions (FIFO eviction). A retry arriving after
  /// its decision was evicted re-executes as a fresh request — size the
  /// window to dominate the client retry horizon. The decisions recovered
  /// by open() are kept on top of this for the broker's lifetime (see
  /// `recovered_order_`), so a restarted broker remembers up to twice as
  /// many.
  std::size_t dedup_window = 4096;
  /// Auto-checkpoint after this many appended records (0 = manual only).
  /// Skipped while the broker is non-quiescent; retried on later appends.
  std::uint64_t anchor_every = 0;
};

struct DurableBrokerStats {
  std::uint64_t appended = 0;    ///< records written to the journal
  std::uint64_t replayed = 0;    ///< records re-executed during open()
  std::uint64_t dedup_hits = 0;  ///< duplicate deliveries short-circuited
  std::uint64_t checkpoints = 0;
};

/// One member of a mixed journaled batch (DurableBroker::execute_batch):
/// an admit of `*request`, or, with `request` null, a release of `flow`.
struct DurableOp {
  RequestId rid = kNoRequestId;
  const FlowServiceRequest* request = nullptr;  ///< admit; null = release
  FlowId flow = kInvalidFlowId;                 ///< release target

  static DurableOp admit(RequestId rid, const FlowServiceRequest& request) {
    return DurableOp{rid, &request, kInvalidFlowId};
  }
  static DurableOp release(RequestId rid, FlowId flow) {
    return DurableOp{rid, nullptr, flow};
  }
  bool is_admit() const { return request != nullptr; }
};

class DurableBroker {
 public:
  /// Open = recover: scan `file`, load the anchor (or start from genesis),
  /// re-execute the tail, truncate any torn tail. The file reference must
  /// outlive the broker. Fails with kDataLoss on a corrupt log or a replay
  /// divergence.
  static Result<std::unique_ptr<DurableBroker>> open(
      const DomainSpec& spec, const BrokerOptions& broker_options,
      JournalFile& file, DurableBrokerOptions options = {});

  DurableBroker(const DurableBroker&) = delete;
  DurableBroker& operator=(const DurableBroker&) = delete;

  // ---- Journaled broker operations ----
  // Mirrors of the BandwidthBroker API, each taking the client's RequestId
  // first. Duplicate RequestIds replay the recorded decision.
  Result<PathId> provision_path(RequestId rid, const std::string& ingress,
                                const std::string& egress);
  /// One admit: execute_batch with a single member.
  Result<Reservation> request_service(RequestId rid,
                                      const FlowServiceRequest& request,
                                      Seconds now);
  /// A batch of admits: execute_batch over one admit run, so the members
  /// execute in batch_grouped_order and commit as ONE append. Results are
  /// indexed by submission position.
  std::vector<Result<Reservation>> request_service_batch(
      std::span<const RequestId> rids,
      std::span<const FlowServiceRequest> requests, Seconds now);
  /// One release: execute_batch with a single member.
  Status release_service(RequestId rid, FlowId flow);
  /// Mixed batch of admits and releases, committed as ONE append.
  ///
  /// Order: each maximal run of consecutive admits executes in
  /// batch_grouped_order over that run, and each release executes in its
  /// position. Decisions and state are identical to calling
  /// request_service / release_service once per member in that order.
  ///
  /// Journal: every fresh member's record is framed in place into the
  /// broker's reusable frame, at consecutive LSNs in execution order, and
  /// the whole frame goes out as one JournalFile::append before the call
  /// returns (one write(2) on an FsJournalFile, however many members).
  /// The records are byte-identical to the per-member calls'.
  ///
  /// Dedup: a remembered rid replays its recorded decision without
  /// executing or logging. A rid repeated WITHIN the batch replays the
  /// earlier member's decision; if the earlier member was the other kind,
  /// it gets the same kInvalidArgument as a reuse across batches.
  ///
  /// Failure: if the append fails, every fresh member reports the append
  /// error and nothing is remembered (the unacknowledged-mutation state a
  /// failed single append leaves). Auto-anchoring is checked once, after
  /// the append.
  ///
  /// Results are indexed by position. A release's result is its Status,
  /// or on success a Reservation whose only set field is `flow`.
  std::vector<Result<Reservation>> execute_batch(
      std::span<const DurableOp> ops, Seconds now);
  Result<Reservation> renegotiate_service(RequestId rid, FlowId flow,
                                          Seconds new_delay_req, Seconds now);
  Result<ClassId> define_class(RequestId rid, Seconds e2e_delay,
                               Seconds delay_param, std::string name = {});
  JoinResult request_class_service(RequestId rid, ClassId cls,
                                   const TrafficProfile& profile,
                                   const std::string& ingress,
                                   const std::string& egress, Seconds now,
                                   std::optional<Bits> edge_backlog =
                                       std::nullopt);
  Result<LeaveResult> leave_class_service(RequestId rid, FlowId microflow,
                                          Seconds now,
                                          std::optional<Bits> edge_backlog =
                                              std::nullopt);
  Status reserve_link_external(RequestId rid, const std::string& link,
                               BitsPerSecond amount);
  Result<BitsPerSecond> release_link_external(RequestId rid,
                                              const std::string& link,
                                              BitsPerSecond amount);
  /// Internal timer/feedback events — journaled (they mutate state and must
  /// replay) but carry no RequestId.
  Status expire_contingency(GrantId grant, Seconds now);
  Status edge_buffer_empty(FlowId macroflow, Seconds now);

  /// Anchor checkpoint: snapshot + dedup window into one kAnchor record,
  /// atomically replacing the journal, then swap the live broker for the
  /// restored image (see the header comment). kUnavailable while
  /// contingency grants are live.
  Status checkpoint();

  /// The underlying broker (read-mostly access: MIBs, oracle checks).
  /// Mutating it directly bypasses the journal — recovery then fails by
  /// design (replay divergence).
  BandwidthBroker& broker() { return *bb_; }
  const BandwidthBroker& broker() const { return *bb_; }

  std::uint64_t next_lsn() const { return next_lsn_; }
  const DurableBrokerStats& stats() const { return stats_; }
  const DurableBrokerOptions& options() const { return options_; }
  /// True if `rid` currently has a recorded decision in the dedup window.
  bool remembers(RequestId rid) const { return window_.contains(rid); }
  /// Current dedup-window population (exported by the server's Health op so
  /// operators can see how much retry horizon is actually retained).
  std::size_t dedup_window_size() const { return window_.size(); }

 private:
  DurableBroker(const DomainSpec& spec, const BrokerOptions& broker_options,
                JournalFile& file, DurableBrokerOptions options);

  struct Decision {
    JournalOpKind kind = JournalOpKind::kAnchor;
    WireBuffer outcome;
  };

  /// Recorded decision for `rid`, or nullptr. A duplicate rid arriving
  /// with a DIFFERENT operation kind is a client bug — reported via
  /// `mismatch`.
  const Decision* find_decision(RequestId rid, JournalOpKind kind,
                                Status* mismatch);
  /// Append (request ++ outcome) as one record; on success remember the
  /// decision and maybe auto-anchor. `request` must already start with the
  /// rid field for client ops.
  Status log_decision(RequestId rid, JournalOpKind kind,
                      const WireBuffer& request, const WireBuffer& outcome);
  /// Execute one execute_batch member: replay a recorded decision, or run
  /// it on the broker and frame its record into frame_.
  void execute_member(const DurableOp& op, std::size_t idx, Seconds now,
                      Result<Reservation>* result);
  /// Auto-anchor once anchor_every records have accumulated (best effort).
  void maybe_anchor();
  void remember(RequestId rid, JournalOpKind kind, WireBuffer outcome);
  /// Re-execute one tail record against the recovering broker and verify
  /// the recorded outcome byte-for-byte.
  Status replay_record(const JournalRecord& rec);
  /// Load an anchor record: snapshot -> broker, serialized window -> dedup.
  Status load_anchor(const JournalRecord& rec);

  DomainSpec spec_;
  BrokerOptions broker_options_;
  DurableBrokerOptions options_;
  JournalFile& file_;
  std::unique_ptr<BandwidthBroker> bb_;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t records_since_anchor_ = 0;
  std::unordered_map<RequestId, Decision> window_;
  std::deque<RequestId> window_order_;  ///< FIFO eviction order
  /// Decisions recovered by open(), exempt from FIFO eviction. The crash
  /// before a restart can lose the acknowledgements of the last decisions
  /// it journaled; their clients retry after a backoff, while the rest of
  /// the load resumes at full speed and would otherwise push them out of
  /// the window before the retry lands.
  std::deque<RequestId> recovered_order_;
  DurableBrokerStats stats_;

  // execute_batch working buffers, reused across calls so a steady batch
  // stream does not allocate for framing or bookkeeping.
  struct Fresh {
    std::size_t idx = 0;  ///< position in the batch
    JournalOpKind kind = JournalOpKind::kAdmit;
    WireBuffer outcome;
  };
  JournalFrameWriter frame_;  ///< the group-commit frame
  std::vector<Fresh> fresh_;  ///< members executed, in execution order
  std::unordered_map<RequestId, std::size_t> batch_rids_;  ///< -> fresh_
  std::vector<const FlowServiceRequest*> run_;  ///< current admit run
};

}  // namespace qosbb

#endif  // QOSBB_CORE_DURABLE_BROKER_H_
