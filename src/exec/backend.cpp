#include "exec/backend.hpp"

#include <stdexcept>
#include <string>
#include <thread>

#include "exec/mc_backend.hpp"
#include "exec/thread_backend.hpp"

namespace eclat::exec {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMc:
      return "mc";
    case BackendKind::kThreads:
      return "threads";
  }
  return "?";
}

BackendKind parse_backend(std::string_view name) {
  if (name == "mc") return BackendKind::kMc;
  if (name == "threads") return BackendKind::kThreads;
  throw std::invalid_argument(
      "unknown backend '" + std::string(name) +
      "' (expected 'mc' for the deterministic virtual-time simulator or "
      "'threads' for the native shared-memory pool)");
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      const mc::Topology& topology,
                                      const mc::CostModel& cost,
                                      const ThreadBackendOptions& options) {
  switch (kind) {
    case BackendKind::kMc:
      return std::make_unique<McBackend>(topology, cost);
    case BackendKind::kThreads:
      return std::make_unique<ThreadBackend>(options);
  }
  throw std::invalid_argument("unknown BackendKind");
}

}  // namespace eclat::exec
