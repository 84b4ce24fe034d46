// detlint fixture: D1 unordered-iter must know an unordered container
// declared through a reference or a pointer, not only one declared by
// value, and fire on a range-for over it.
#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>

// A const-reference parameter.
std::size_t total_length(const std::unordered_set<std::string>& names) {
  std::size_t n = 0;
  for (const std::string& k : names) n += k.size();  // FINDING
  return n;
}

// A pointer, iterated through `*table`.
int sum_values(std::unordered_map<int, int>* table) {
  int acc = 0;
  for (const auto& [k, v] : *table) acc += v;  // FINDING
  return acc;
}

// A trailing `const&`, and an rvalue reference.
int sum_keys(std::unordered_map<int, int> const& counts,
             std::unordered_set<int>&& pending) {
  int acc = 0;
  for (const auto& kv : counts) acc += kv.first;  // FINDING
  for (int x : pending) acc += x;                 // FINDING
  return acc;
}

// Membership through a reference is order-free: no finding.
bool known(const std::unordered_set<int>& members, int id) {
  return members.contains(id);
}
