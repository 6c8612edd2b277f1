// hotpath-alloc fixture, SABOTAGED: the hot root (and a helper it calls)
// allocate on the success path. The lint must flag every site.

namespace qosbb {

double fixture_leaky_helper(const std::vector<double>& knots) {
  // Allocating local copy on the hot path.
  std::vector<double> copy(knots);
  double acc = 0.0;
  for (double k : copy) acc += k;
  return acc;
}

double fixture_admit_impl(const std::vector<double>& knots) {
  auto box = std::make_unique<double>(0.0);
  std::vector<double> doubled;
  for (double k : knots) {
    // Unsanctioned container growth: not a scratch/cache receiver.
    doubled.push_back(k * 2.0);
  }
  std::string label = std::to_string(knots.size());
  *box = fixture_leaky_helper(doubled) + static_cast<double>(label.size());
  return *box;
}

}  // namespace qosbb
