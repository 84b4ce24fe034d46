// Snapshots of the overlay for the paper's visual figures (Figs. 1, 8, 9).
//
// We cannot draw the paper's scatter plots in a terminal, so a snapshot is
// an ASCII density map: each cell shows how many nodes currently project
// into it — a uniform map is a healthy shape, an empty half is Fig. 1c.
// (scenario::print_events writes snapshot positions as CSV for external
// plotting.)
#pragma once

#include <span>
#include <string>

#include "scenario/simulation.hpp"

namespace poly::scenario {

/// Renders the density of current node positions over the shape's bounding
/// box as an ASCII grid (one character per cell, ' ' = empty, '1'-'9' =
/// count, '+' = 10 or more).  Works for 2-D torus spaces; other spaces
/// render a 1-row histogram along the first coordinate.
std::string ascii_density_map(const Simulation& sim, std::size_t cols = 40,
                              std::size_t rows = 20);

/// Engine-agnostic form: renders `positions` over `space` the same way
/// (the events/live scenario runtimes snapshot through this overload).
std::string ascii_density_map(const space::MetricSpace& space,
                              std::span<const space::Point> positions,
                              std::size_t cols = 40, std::size_t rows = 20);

/// Summary line: round, alive count, homogeneity vs reference, proximity.
std::string summary_line(const Simulation& sim);

}  // namespace poly::scenario
