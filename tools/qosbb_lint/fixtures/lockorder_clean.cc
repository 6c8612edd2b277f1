// lock-order fixture, CLEAN: every acquisition respects the hierarchy
// fed_mu_ (0) -> member_mu_ (1) -> big_ (2) -> flow_mu_ (3)
// -> {shards, limiter_mu_} (4, leaves).

namespace qosbb {

class FixtureBroker {
 public:
  void clean_nested();
  void clean_scoped_release();
  void clean_call_chain();
  void clean_federation_descent();
  void lock_flow();

 private:
  Mutex fed_mu_;
  Mutex member_mu_;
  SharedMutex big_;
  Mutex flow_mu_;
  Mutex limiter_mu_;
};

void FixtureBroker::clean_nested() {
  SharedLock g(big_);
  MutexLock h(flow_mu_);
  ShardLockSet shards(0, 4);
}

void FixtureBroker::clean_scoped_release() {
  {
    MutexLock g(flow_mu_);
  }
  // The guard above died with its scope: re-acquiring is fine.
  MutexLock h(flow_mu_);
}

void FixtureBroker::lock_flow() { MutexLock g(flow_mu_); }

void FixtureBroker::clean_call_chain() {
  SharedLock g(big_);
  // Transitively acquires flow_mu_ (rank 3) while holding big_ (rank 2):
  // non-decreasing, allowed.
  lock_flow();
}

void FixtureBroker::clean_federation_descent() {
  // The one legitimate full descent: federation coordinator (fed_mu_)
  // above a member slot (member_mu_) above the member broker's own
  // hierarchy — mirrors FederatedFront::snapshot().
  MutexLock g(fed_mu_);
  MutexLock h(member_mu_);
  SharedLock b(big_);
  lock_flow();
}

}  // namespace qosbb
