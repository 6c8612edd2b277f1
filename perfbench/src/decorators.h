// Timing decorators over the broker's two virtual seams, JournalFile and
// FederationMember. Each forwards every call unchanged to the wrapped
// object and records call count, failures and wall time; they never alter
// arguments or results, so a decorated run writes the same journal bytes
// and reaches the same federation state as an undecorated one.

#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <cstdint>
#include <vector>

#include "core/journal.h"
#include "federation/member.h"

namespace perfbench {

/// Call statistics of one operation kind.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;
  double total_s = 0.0;
  std::vector<double> samples_us;  ///< per call, when sampling is on

  void add(double seconds, bool ok, bool keep_sample);
};

class TimedJournalFile : public qosbb::JournalFile {
 public:
  explicit TimedJournalFile(qosbb::JournalFile& inner) : inner_(inner) {}

  qosbb::Status append(const qosbb::WireBuffer& bytes) override;
  qosbb::Result<qosbb::WireBuffer> read_all() const override;
  qosbb::Status replace(const qosbb::WireBuffer& bytes) override;

  const CallStats& appends() const { return append_; }
  std::uint64_t bytes_appended() const { return bytes_; }

 private:
  qosbb::JournalFile& inner_;
  CallStats append_;
  mutable CallStats read_;
  CallStats replace_;
  std::uint64_t bytes_ = 0;
};

class TimedMember : public qosbb::FederationMember {
 public:
  explicit TimedMember(qosbb::FederationMember& inner) : inner_(inner) {}

  int domain() const override { return inner_.domain(); }
  qosbb::Result<qosbb::Reservation> admit(
      const qosbb::FlowServiceRequest& request, qosbb::RequestId rid) override;
  qosbb::Status release(qosbb::FlowId flow, qosbb::RequestId rid) override;
  qosbb::Result<qosbb::PrepareReply> prepare(
      const qosbb::PrepareSegment& request) override;
  qosbb::Result<qosbb::SegmentAck> commit(
      const qosbb::CommitSegment& request) override;
  qosbb::Result<qosbb::SegmentAck> abort(
      const qosbb::AbortSegment& request) override;
  qosbb::Result<qosbb::FederatedDigestReply> digest() override;
  qosbb::Result<qosbb::WireBuffer> snapshot() override;
  qosbb::Status restore(const qosbb::WireBuffer& frame) override;

  const CallStats& admits() const { return admit_; }
  const CallStats& prepares() const { return prepare_; }
  const CallStats& commits() const { return commit_; }
  /// Calls and time over every 2PC and delegation op (not digests).
  std::uint64_t op_calls() const;
  double op_seconds() const;
  /// Drops the per-call samples kept so far (counts and totals stay).
  void clear_samples();

 private:
  qosbb::FederationMember& inner_;
  CallStats admit_, release_, prepare_, commit_, abort_, digest_, other_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
