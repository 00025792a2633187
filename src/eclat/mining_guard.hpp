// Cooperative checkpoint hook for the mining recursion. Execution
// substrates above the eclat layer (src/exec) need to interrupt a class
// mid-mining — the thread backend's memory budget does — but the
// layering DAG forbids eclat from seeing exec. MiningGuard is the seam:
// compute_frequent calls checkpoint(depth) at every leading-atom boundary
// of the recursion (bounded work between calls: one row of
// intersections), where arena levels 0..depth hold the class's live
// tid-sets and no scratch reference is outstanding. An implementation may
// throw to abandon the class. The throw unwinds through the recursion;
// the arena stays structurally valid (levels are reset on reuse), so the
// same arena can mine the next class.
//
// A null guard is the fast path: callers that pass nullptr pay one
// branch per leading atom and nothing else.
#pragma once

#include <cstddef>

namespace eclat {

class MiningGuard {
 public:
  virtual ~MiningGuard() = default;

  /// Called at each leading atom of the class held on arena level
  /// `depth`. Implementations may throw to abandon the class; they must
  /// not mutate the arena.
  virtual void checkpoint(std::size_t depth) = 0;
};

}  // namespace eclat
