#include "scenario/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "space/torus.hpp"

namespace poly::scenario {

std::string ascii_density_map(const Simulation& sim, std::size_t cols,
                              std::size_t rows) {
  std::vector<space::Point> positions;
  for (sim::NodeId n : sim.network().alive_ids())
    positions.push_back(sim.position(n));
  return ascii_density_map(sim.metric_space(), positions, cols, rows);
}

std::string ascii_density_map(const space::MetricSpace& space,
                              std::span<const space::Point> positions,
                              std::size_t cols, std::size_t rows) {
  const auto* torus = dynamic_cast<const space::TorusSpace*>(&space);

  double width = 1.0;
  double height = 1.0;
  if (torus != nullptr) {
    width = torus->width();
    height = torus->height();
  } else {
    // 1-D or generic: histogram along x over the observed extent.
    rows = 1;
    for (const auto& p : positions) width = std::max(width, p.x() + 1e-9);
  }

  std::vector<std::size_t> counts(cols * rows, 0);
  for (const auto& p : positions) {
    auto cx = static_cast<std::size_t>(p.x() / width *
                                       static_cast<double>(cols));
    auto cy = rows == 1 ? 0
                        : static_cast<std::size_t>(
                              p.y() / height * static_cast<double>(rows));
    if (cx >= cols) cx = cols - 1;
    if (cy >= rows) cy = rows - 1;
    ++counts[cy * cols + cx];
  }

  std::ostringstream os;
  os << '+' << std::string(cols, '-') << "+\n";
  for (std::size_t r = 0; r < rows; ++r) {
    os << '|';
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t k = counts[r * cols + c];
      if (k == 0)
        os << ' ';
      else if (k < 10)
        os << static_cast<char>('0' + k);
      else
        os << '+';
    }
    os << "|\n";
  }
  os << '+' << std::string(cols, '-') << "+\n";
  return os.str();
}

std::string summary_line(const Simulation& sim) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "round=%llu alive=%zu homogeneity=%.3f (H=%.3f) "
                "proximity=%.3f points/node=%.2f",
                static_cast<unsigned long long>(sim.network().round()),
                sim.network().num_alive(), sim.homogeneity(),
                sim.reference_homogeneity(), sim.proximity(),
                sim.avg_points_per_node());
  return buf;
}

}  // namespace poly::scenario
