// Cooperative checkpoint hook for the mining recursion. Execution
// substrates above the eclat layer (src/exec) need to interrupt a class
// mid-mining — the thread backend's arena memory budget does — but the
// layering DAG forbids eclat from seeing exec. MiningGuard is the seam:
// compute_frequent calls checkpoint() at class entry and at every
// leading-atom boundary of the recursion (bounded work between calls:
// one row of intersections), and an implementation may throw to abandon
// the class. The throw unwinds through the recursion; the arena stays
// structurally valid (levels are reset on reuse), so the same arena can
// mine the next class.
//
// A null guard is the fast path: callers that pass nullptr pay one
// branch per leading atom and nothing else.
#pragma once

namespace eclat {

class MiningGuard {
 public:
  virtual ~MiningGuard() = default;

  /// Called at bounded intervals during class mining. Implementations may
  /// throw to abandon the class; they must not mutate the arena except
  /// to release dead slots (TidArena::relieve_memory).
  virtual void checkpoint() = 0;
};

}  // namespace eclat
