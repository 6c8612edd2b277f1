// hotpath-alloc fixture, CLEAN: the hot root only reads, grows sanctioned
// scratch buffers, and pays allocation solely on the rejection sink.

namespace qosbb {

struct FixtureScratch {
  std::vector<double> knots_buf;
};

double reject(const std::string& why);

double reject(const std::string& why) { return why.empty() ? 0.0 : -1.0; }

double fixture_admit_helper(const std::vector<double>& knots) {
  double acc = 0.0;
  for (double k : knots) acc += k;
  return acc;
}

double fixture_admit_impl(const std::vector<double>& knots,
                          FixtureScratch& scratch) {
  scratch.knots_buf.clear();
  scratch.knots_buf.reserve(knots.size());
  for (double k : knots) scratch.knots_buf.push_back(k);
  const double acc = fixture_admit_helper(scratch.knots_buf);
  if (acc < 0.0) {
    // Diagnostic sink: the string built here is rejection-only cost.
    return reject("fixture: negative aggregate " + std::to_string(acc));
  }
  return acc;
}

}  // namespace qosbb
