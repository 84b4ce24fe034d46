// detlint fixture: D1 unordered-iter must read only a lone `:` as the
// range-for colon, never the `::` of a qualified name in a classic
// for-loop header.
#include <cstddef>
#include <string>
#include <unordered_set>

struct Rng {
  std::size_t index(std::size_t n);
};

// A classic for loop whose header calls `rng.index(...)`: no finding,
// although another scanned file declares an unordered `index`.
std::size_t countdown(Rng& rng) {
  std::size_t steps = 0;
  for (std::size_t s = rng.index(4); s > 0; --s) ++steps;
  return steps;
}

// A range-for with a qualified element type over an unordered container.
std::unordered_set<std::string> m;
std::size_t total_length() {
  std::size_t n = 0;
  for (const std::string& k : m) n += k.size();  // FINDING
  return n;
}
