#include "cycles/cycle_cqs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "util/combinatorics.h"

namespace smr {

namespace {

/// Rotates a run list left by two runs (one up/down pair).
std::vector<int> RotateRunsByTwo(std::vector<int> runs) {
  std::rotate(runs.begin(), runs.begin() + 2, runs.end());
  return runs;
}

/// The full equivalence orbit of a run sequence: even cyclic shifts and
/// flips (reversals), per Section 5.1.
std::set<std::vector<int>> RunOrbit(const std::vector<int>& runs) {
  std::set<std::vector<int>> orbit;
  std::vector<int> current = runs;
  for (size_t j = 0; j + 1 < runs.size(); j += 2) {
    orbit.insert(current);
    std::vector<int> flipped(current.rbegin(), current.rend());
    // All even rotations of the flip are reached when the flip itself is
    // inserted and rotated by the outer loop of its own orbit; inserting
    // both here keeps the loop simple.
    std::vector<int> flip_rotated = flipped;
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      orbit.insert(flip_rotated);
      flip_rotated = RotateRunsByTwo(flip_rotated);
    }
    current = RotateRunsByTwo(current);
  }
  orbit.insert(current);
  return orbit;
}

std::string OrientationString(const std::vector<int>& runs) {
  std::string s;
  char symbol = 'u';
  for (int run : runs) {
    s.append(static_cast<size_t>(run), symbol);
    symbol = symbol == 'u' ? 'd' : 'u';
  }
  return s;
}

/// Directed automorphisms of the oriented cycle: elements of the dihedral
/// group D_p (as permutations of variable indices) that map the directed
/// subgoal set onto itself. These are exactly the self-symmetries
/// (periodicities and palindromes) that Section 5.2 step (4) must break.
std::vector<std::vector<int>> DirectedCycleAutomorphisms(
    int p, const std::vector<std::pair<int, int>>& subgoals) {
  std::set<std::pair<int, int>> subgoal_set(subgoals.begin(), subgoals.end());
  std::vector<std::vector<int>> result;
  auto check = [&](const std::vector<int>& g) {
    for (const auto& [a, b] : subgoals) {
      if (subgoal_set.count({g[a], g[b]}) == 0) return;
    }
    result.push_back(g);
  };
  std::vector<int> g(p);
  for (int r = 0; r < p; ++r) {
    for (int i = 0; i < p; ++i) g[i] = (i + r) % p;
    check(g);
  }
  for (int a = 0; a < p; ++a) {
    for (int i = 0; i < p; ++i) g[i] = ((a - i) % p + p) % p;
    check(g);
  }
  return result;
}

/// Calls `fn` on every total order of the p variables (order[i] = the
/// variable in position i) in which each subgoal (a, b) puts a before b,
/// in lexicographic order: depth first, placing the smallest variable whose
/// predecessors are all placed first. Only the extensions are visited, not
/// all p! orders.
template <typename Fn>
void ForEachLinearExtension(int p,
                            const std::vector<std::pair<int, int>>& subgoals,
                            Fn&& fn) {
  std::vector<int> unplaced_before(p, 0);
  std::vector<std::vector<int>> after(p);
  for (const auto& [a, b] : subgoals) {
    ++unplaced_before[b];
    after[a].push_back(b);
  }
  std::vector<int> order;
  std::vector<bool> placed(p, false);
  auto extend = [&](auto&& self) -> void {
    if (static_cast<int>(order.size()) == p) {
      fn(order);
      return;
    }
    for (int v = 0; v < p; ++v) {
      if (placed[v] || unplaced_before[v] > 0) continue;
      placed[v] = true;
      order.push_back(v);
      for (const int w : after[v]) --unplaced_before[w];
      self(self);
      for (const int w : after[v]) ++unplaced_before[w];
      order.pop_back();
      placed[v] = false;
    }
  };
  extend(extend);
}

}  // namespace

std::vector<RunSequenceCq> CycleCqs(int p) {
  if (p < 3) throw std::invalid_argument("cycles need p >= 3");
  std::vector<RunSequenceCq> result;
  for (int parts = 2; parts <= p; parts += 2) {
    for (const auto& runs : Compositions(p, parts)) {
      const auto orbit = RunOrbit(runs);
      if (*orbit.begin() != runs) continue;  // not the representative

      const std::string orientation = OrientationString(runs);
      bool palindrome = false;
      int periodicity = 1;

      // Self-symmetries for the paper's step (4) bookkeeping.
      {
        std::vector<int> rotated = runs;
        int fixed_rotations = 0;
        for (size_t j = 0; j + 1 < runs.size(); j += 2) {
          if (rotated == runs) ++fixed_rotations;
          rotated = RotateRunsByTwo(rotated);
        }
        if (runs.size() == 2) fixed_rotations = 1;
        periodicity = std::max(1, fixed_rotations);
        std::vector<int> flipped(runs.rbegin(), runs.rend());
        for (size_t j = 0; j + 1 < runs.size() && !palindrome; j += 2) {
          if (flipped == runs) palindrome = true;
          flipped = RotateRunsByTwo(flipped);
        }
      }

      // Subgoals from the orientation: edge {i, i+1 mod p} points along the
      // traversal for 'u', against it for 'd'.
      std::vector<std::pair<int, int>> subgoals;
      for (int i = 0; i < p; ++i) {
        const int j = (i + 1) % p;
        if (orientation[i] == 'u') {
          subgoals.emplace_back(i, j);
        } else {
          subgoals.emplace_back(j, i);
        }
      }

      // Condition: linear extensions of the orientation that are
      // lexicographically minimal under the directed automorphisms. This
      // realizes the extra inequalities of Section 5.2 exactly: with a
      // trivial automorphism group all extensions stay; a palindrome keeps
      // only X2 < Xp; periodicity keeps X1 minimal among period starts.
      const auto automorphisms = DirectedCycleAutomorphisms(p, subgoals);
      std::vector<std::vector<int>> allowed;
      ForEachLinearExtension(p, subgoals, [&](const std::vector<int>& order) {
        if (IsLeastInOrbit(order, automorphisms)) allowed.push_back(order);
      });
      result.push_back(RunSequenceCq{runs, orientation, palindrome,
                                     periodicity,
                                     ConjunctiveQuery(p, subgoals, allowed)});
    }
  }
  return result;
}

double CycleCqConditionalUpperBound(int p) {
  return (std::pow(2.0, p) - 2.0) / (2.0 * p);
}

uint64_t CycleCqExactCount(int p) {
  if (p < 2 || p > 24) throw std::invalid_argument("p out of range");
  // Orbit count of non-constant binary strings of length p under rotations
  // and complementing reflections, by explicit canonicalization.
  const uint32_t total = 1u << p;
  uint64_t classes = 0;
  for (uint32_t s = 0; s < total; ++s) {
    if (s == 0 || s == total - 1) continue;  // all-u / all-d impossible
    uint32_t best = s;
    for (int r = 0; r < p; ++r) {
      const uint32_t rotated =
          ((s >> r) | (s << (p - r))) & (total - 1);
      best = std::min(best, rotated);
      // Complementing reflection of the rotated string.
      uint32_t reflected = 0;
      for (int i = 0; i < p; ++i) {
        if (((rotated >> i) & 1u) == 0u) reflected |= 1u << (p - 1 - i);
      }
      best = std::min(best, reflected);
    }
    if (best == s) ++classes;
  }
  return classes;
}

}  // namespace smr
