// lock-order fixture, SABOTAGED: one instance of each violation class,
// including a federation-layer inversion (member_mu_ -> fed_mu_).
// The lint must flag all four; the fixture test inverts the exit code.

namespace qosbb {

class FixtureBroker {
 public:
  void sab_transitive_inversion();
  void sab_leaf_escape();
  void sab_reacquire();
  void sab_federation_inversion();
  void lock_big();
  void lock_fed();

 private:
  Mutex fed_mu_;
  Mutex member_mu_;
  SharedMutex big_;
  Mutex flow_mu_;
  Mutex limiter_mu_;
};

void FixtureBroker::lock_big() { ExclusiveLock g(big_); }

void FixtureBroker::sab_transitive_inversion() {
  MutexLock g(flow_mu_);
  // Callee acquires big_ (rank 2) while we hold flow_mu_ (rank 3).
  lock_big();
}

void FixtureBroker::sab_leaf_escape() {
  MutexLock g(limiter_mu_);
  // limiter_mu_ is a leaf: nothing may be acquired while holding it.
  MutexLock h(flow_mu_);
}

void FixtureBroker::sab_reacquire() {
  ExclusiveLock g(big_);
  ExclusiveLock h(big_);
}

void FixtureBroker::lock_fed() { MutexLock g(fed_mu_); }

void FixtureBroker::sab_federation_inversion() {
  // Member slot mutex (rank 1) held while the callee grabs the federation
  // coordinator mutex fed_mu_ (rank 0): the deadlock FederatedFront avoids
  // by never calling back up into coordinator state from a member call.
  MutexLock g(member_mu_);
  lock_fed();
}

}  // namespace qosbb
