// status-discard fixture, SABOTAGED: a bare discarded call and an
// unwaived (void) discard. The lint must flag both.

namespace qosbb {

Status fixture_commit();

Status fixture_commit() { return Status::ok(); }

void fixture_sab_bare() {
  fixture_commit();  // result silently dropped
}

void fixture_sab_void() {
  (void)fixture_commit();  // cast away without a waiver
}

}  // namespace qosbb
