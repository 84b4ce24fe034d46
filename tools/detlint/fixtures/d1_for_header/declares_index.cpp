// detlint fixture: declares an unordered container named `index`, so that
// name is unordered for every file scanned with this one.
#include <unordered_map>

std::unordered_map<int, int> index;
