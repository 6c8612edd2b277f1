// Crash-consistent journaling around the concurrent front: write-ahead
// journaling of every state-mutating operation, anchor checkpoints, and
// idempotent at-least-once request handling.
//
// Discipline (redo logging): the live decision is made by a
// ConcurrentBrokerFront over the broker (the same admission pipeline an
// in-memory qosbbd runs); ONE record holding the request AND the encoded
// decision is appended, and only then is the operation acknowledged.
// Recovery loads the anchor snapshot at the head of the log (if any) and
// re-executes the tail records in order on the sequential BandwidthBroker,
// the reference implementation; because both are deterministic and decide
// identically, each re-execution must reproduce the recorded decision
// byte-for-byte — a mismatch means the log does not describe this broker's
// history and recovery fails loudly (kDataLoss) instead of rebuilding a
// subtly different state. Every restart therefore re-verifies the front's
// decisions against the reference broker.
//
// Idempotency: signaling clients retry on timeout, so every client-facing
// operation carries a client-assigned RequestId. A duplicate delivery
// replays the RECORDED decision without touching the broker — even when the
// first delivery admitted a flow that has since been released. The dedup
// window (bounded, FIFO-evicted) is serialized into each anchor record and
// rebuilt from the tail on recovery, so a retry that straddles a crash is
// still recognized.
//
// Anchors bound recovery by live state, not uptime. Once the bytes appended
// since the last anchor reach kAnchorGrowth (4) times that anchor's size,
// or kAnchorFloorBytes (1 MiB) if that is more, the next append is followed
// by an anchor: the journal is replaced by ONE kAnchor record (snapshot +
// dedup decisions) whose LSN continues the sequence. Anchor writes thus
// add at most 1/kAnchorGrowth = 25% to the bytes written, and a restart
// replays a tail of at most about 4× the live state plus one slab. While
// §4 contingency grants are live the anchor is skipped and retried on a
// later append.
//
// An anchor holds no second broker image and no in-memory copy of its
// record: the record streams into the journal's temp file through one
// fixed-size WireStream chunk (JournalFile::replace_streamed), and after
// the rename the live broker rebases its ledgers in place
// (BandwidthBroker::rebase_ledgers): every link ledger is cleared and
// re-booked from the flow records in canonical order, which is exactly how
// restore() books the anchor's snapshot. Post-anchor execution therefore
// starts from bit-exactly the state recovery reconstructs, which is what
// lets the fault-injection harness (tools/fuzz_harness.h) demand exact
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
#include <utility>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
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
  /// `recovered_order_`): up to 3 × dedup_window after an anchor.
  std::size_t dedup_window = 4096;
};

struct DurableBrokerStats {
  std::uint64_t appended = 0;    ///< records written to the journal
  std::uint64_t replayed = 0;    ///< records re-executed during open()
  std::uint64_t dedup_hits = 0;  ///< duplicate deliveries short-circuited
  std::uint64_t checkpoints = 0;
};

class DurableBroker {
 public:
  /// The anchor rule (see the header comment): anchor once the tail
  /// reaches max(kAnchorGrowth × the last anchor's size, kAnchorFloorBytes).
  static constexpr std::uint64_t kAnchorGrowth = 4;
  static constexpr std::uint64_t kAnchorFloorBytes = 1 << 20;

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
  /// Mixed slab of admits and releases, committed as ONE append.
  ///
  /// Order: slab_execution_order — each maximal run of consecutive admits
  /// in batch_grouped_order over that run, each release in its position.
  /// Decisions and state are identical to calling request_service /
  /// release_service once per member in that order.
  ///
  /// Dedup, first, in that order: a remembered rid replays its recorded
  /// decision without executing or logging. A rid repeated WITHIN the
  /// slab replays the earlier member's decision; if the earlier member was
  /// the other kind, it gets the same kInvalidArgument as a reuse across
  /// slabs.
  ///
  /// Execution: the fresh members go to the front in one
  /// ConcurrentBrokerFront::execute_ordered call, in execution order.
  ///
  /// Journal: every fresh member's record is framed into the broker's
  /// reusable frame, at consecutive LSNs in execution order, with the
  /// decision the front returned, and the whole frame goes out as one
  /// JournalFile::append before the call returns (one write(2) on an
  /// FsJournalFile, however many members). The records are byte-identical
  /// to the per-member calls'.
  ///
  /// Failure: if the append fails, every fresh member reports the append
  /// error and nothing is remembered (the unacknowledged-mutation state a
  /// failed single append leaves). Auto-anchoring is checked once, after
  /// the append.
  ///
  /// `outs` (sized like `ops`) receives one outcome per member, indexed by
  /// position. A replayed reject carries its recorded RejectReason.
  void execute_batch(std::span<const SlabOp> ops, Seconds now,
                     std::span<FrontOutcome> outs);
  /// execute_batch, reporting only each member's result.
  std::vector<Result<Reservation>> execute_batch(std::span<const SlabOp> ops,
                                                 Seconds now);
  FrontOutcome renegotiate_service(RequestId rid, FlowId flow,
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

  /// Anchor checkpoint: snapshot + dedup decisions streamed into one
  /// kAnchor record that atomically replaces the journal, then the live
  /// ledgers are rebased in place (see the header comment). The anchor
  /// keeps the window and the newest dedup_window recovered decisions.
  /// kUnavailable while contingency grants are live; kFailedPrecondition
  /// if the rebase found ledger state the records did not explain (the
  /// anchor is written, and the live broker now matches it).
  Status checkpoint();

  /// The underlying broker (read-mostly access: MIBs, oracle checks).
  /// Mutating it directly bypasses the journal — recovery then fails by
  /// design (replay divergence).
  BandwidthBroker& broker() { return *bb_; }
  const BandwidthBroker& broker() const { return *bb_; }

  std::uint64_t next_lsn() const { return next_lsn_; }
  /// Size of the anchor record at the journal's head (0 before the first).
  std::uint64_t anchor_bytes() const { return anchor_bytes_; }
  /// Journal bytes after the anchor: what a restart now replays.
  std::uint64_t tail_bytes() const { return tail_bytes_; }
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
  /// Anchor once the tail has reached the anchor rule's threshold and no
  /// contingency grant is live (best effort; retried on later appends).
  void maybe_anchor();
  void remember(RequestId rid, JournalOpKind kind, WireBuffer outcome);
  /// Re-execute one tail record against the recovering broker and verify
  /// the recorded outcome byte-for-byte.
  Status replay_record(const JournalRecord& rec);
  /// Load an anchor record: snapshot -> broker, decisions -> dedup (none
  /// evicted at load; see window_cap_).
  Status load_anchor(const JournalRecord& rec);

  DomainSpec spec_;
  BrokerOptions broker_options_;
  DurableBrokerOptions options_;
  JournalFile& file_;
  std::unique_ptr<BandwidthBroker> bb_;
  /// The live decision maker over *bb_; declared after it so it dies
  /// first. Null while open() replays; built once after that and kept for
  /// the broker's lifetime (checkpoint() rebases under its exclusive mode).
  std::unique_ptr<ConcurrentBrokerFront> front_;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t anchor_bytes_ = 0;
  std::uint64_t tail_bytes_ = 0;
  std::unordered_map<RequestId, Decision> window_;
  std::deque<RequestId> window_order_;  ///< FIFO eviction order
  /// FIFO capacity of window_order_: dedup_window, except while open()
  /// replays after an anchor, when it is dedup_window plus the anchor's
  /// decision count, so that the anchor's decisions all load and the tail
  /// evicts them, oldest first, only past dedup_window decisions of its
  /// own.
  std::size_t window_cap_;
  /// Decisions recovered by open(), exempt from FIFO eviction. The crash
  /// before a restart can lose the acknowledgements of the last decisions
  /// it journaled; their clients retry after a backoff, while the rest of
  /// the load resumes at full speed and would otherwise push them out of
  /// the window before the retry lands. An anchor keeps the newest
  /// dedup_window of them, so repeated crashes do not grow the set.
  std::deque<RequestId> recovered_order_;
  DurableBrokerStats stats_;

  // execute_batch working buffers, reused across calls so a steady slab
  // stream does not allocate for ordering, framing or bookkeeping.
  JournalFrameWriter frame_;  ///< the group-commit frame
  std::vector<std::size_t> order_;  ///< slab execution order
  std::vector<std::size_t> fresh_;  ///< members to execute, in that order
  std::vector<WireBuffer> encoded_;  ///< parallel to fresh_: the decisions
  std::unordered_map<RequestId, std::size_t> batch_rids_;  ///< -> fresh_
  /// In-slab repeats: (position, the fresh_ member whose decision it
  /// replays).
  std::vector<std::pair<std::size_t, std::size_t>> repeats_;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_DURABLE_BROKER_H_
