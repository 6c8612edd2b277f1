#include "decorators.h"

#include <chrono>

namespace perfbench {

using namespace qosbb;
using Clock = std::chrono::steady_clock;

void CallStats::add(double seconds, bool ok, bool keep_sample) {
  ++calls;
  if (!ok) ++failures;
  total_s += seconds;
  if (keep_sample) samples_us.push_back(1e6 * seconds);
}

namespace {

// Times `fn()` into `stats`; `ok(result)` classifies the outcome.
template <typename F, typename Ok>
auto timed(CallStats& stats, bool keep_sample, F&& fn, Ok&& ok) {
  const auto t0 = Clock::now();
  auto result = fn();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  stats.add(s, ok(result), keep_sample);
  return result;
}

template <typename R>
bool is_ok(const R& r) {
  return r.is_ok();
}

}  // namespace

Status TimedJournalFile::append(const WireBuffer& bytes) {
  bytes_ += bytes.size();
  return timed(append_, false, [&] { return inner_.append(bytes); },
               is_ok<Status>);
}

Result<WireBuffer> TimedJournalFile::read_all() const {
  return timed(read_, false, [&] { return inner_.read_all(); },
               is_ok<Result<WireBuffer>>);
}

Status TimedJournalFile::replace(const WireBuffer& bytes) {
  return timed(replace_, false, [&] { return inner_.replace(bytes); },
               is_ok<Status>);
}

// A member admit that the broker rejects is a valid verdict, not a failed
// call; only transport-level errors count as failures.
namespace {
bool admit_ok(const Result<Reservation>& r) {
  return r.is_ok() || r.status().code() == StatusCode::kRejected;
}
}  // namespace

Result<Reservation> TimedMember::admit(const FlowServiceRequest& request,
                                       RequestId rid) {
  return timed(admit_, true, [&] { return inner_.admit(request, rid); },
               admit_ok);
}

Status TimedMember::release(FlowId flow, RequestId rid) {
  return timed(release_, true, [&] { return inner_.release(flow, rid); },
               is_ok<Status>);
}

Result<PrepareReply> TimedMember::prepare(const PrepareSegment& request) {
  return timed(prepare_, true, [&] { return inner_.prepare(request); },
               is_ok<Result<PrepareReply>>);
}

Result<SegmentAck> TimedMember::commit(const CommitSegment& request) {
  return timed(commit_, true, [&] { return inner_.commit(request); },
               is_ok<Result<SegmentAck>>);
}

Result<SegmentAck> TimedMember::abort(const AbortSegment& request) {
  return timed(abort_, true, [&] { return inner_.abort(request); },
               is_ok<Result<SegmentAck>>);
}

Result<FederatedDigestReply> TimedMember::digest() {
  return timed(digest_, false, [&] { return inner_.digest(); },
               is_ok<Result<FederatedDigestReply>>);
}

Result<WireBuffer> TimedMember::snapshot() {
  return timed(other_, false, [&] { return inner_.snapshot(); },
               is_ok<Result<WireBuffer>>);
}

Status TimedMember::restore(const WireBuffer& frame) {
  return timed(other_, false, [&] { return inner_.restore(frame); },
               is_ok<Status>);
}

void TimedMember::clear_samples() {
  for (CallStats* s : {&admit_, &release_, &prepare_, &commit_, &abort_}) {
    s->samples_us.clear();
  }
}

std::uint64_t TimedMember::op_calls() const {
  return admit_.calls + release_.calls + prepare_.calls + commit_.calls +
         abort_.calls;
}

double TimedMember::op_seconds() const {
  return admit_.total_s + release_.total_s + prepare_.total_s +
         commit_.total_s + abort_.total_s;
}

}  // namespace perfbench
