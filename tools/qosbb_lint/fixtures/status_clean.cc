// status-discard fixture, CLEAN: every Status is consumed, and the one
// deliberate discard carries the audit waiver.

namespace qosbb {

Status fixture_commit();
Status fixture_best_effort_flush();

Status fixture_commit() { return Status::ok(); }

Status fixture_best_effort_flush() { return Status::ok(); }

Status fixture_run() {
  Status first = fixture_commit();
  if (!first.is_ok()) return first;
  // qosbb-lint: allow(discarded-status)
  (void)fixture_best_effort_flush();
  return fixture_commit();
}

bool fixture_probe() { return fixture_commit().is_ok(); }

}  // namespace qosbb
