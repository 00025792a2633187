#include "exec/exec_fault.hpp"

#include <algorithm>
#include <sstream>

#include "common/parse.hpp"
#include "common/rng.hpp"

namespace eclat::exec {

const char* to_string(ExecFaultKind kind) {
  switch (kind) {
    case ExecFaultKind::kNone:
      return "none";
    case ExecFaultKind::kThrow:
      return "throw";
    case ExecFaultKind::kCorrupt:
      return "corrupt";
  }
  return "?";
}

ExecFaultEvent ExecFaultPlan::throw_on(std::size_t class_id,
                                       std::uint32_t times) {
  ExecFaultEvent event;
  event.kind = ExecFaultKind::kThrow;
  event.class_id = class_id;
  event.times = times;
  return event;
}

ExecFaultEvent ExecFaultPlan::corrupt_on(std::size_t class_id,
                                         std::uint32_t times) {
  ExecFaultEvent event = throw_on(class_id, times);
  event.kind = ExecFaultKind::kCorrupt;
  return event;
}

ExecFaultEvent ExecFaultPlan::hashed(ExecFaultKind kind, std::uint64_t mod,
                                     std::uint64_t sel,
                                     std::uint32_t times) {
  ExecFaultEvent event;
  event.kind = kind;
  event.class_id = kAnyClass;
  event.mod = mod;
  event.sel = sel;
  event.times = times;
  return event;
}

void validate_exec_plan(const ExecFaultPlan& plan) {
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const ExecFaultEvent& event = plan.events[i];
    const auto reject = [&](const std::string& why) {
      throw std::invalid_argument("exec fault plan event " +
                                  std::to_string(i) + ": " + why);
    };
    if (event.kind == ExecFaultKind::kNone) {
      reject("kind 'none' injects nothing; use throw or corrupt");
    }
    if (event.times == 0) {
      reject("times must be >= 1 (the first `times` attempts fault)");
    }
    if (event.class_id == kAnyClass) {
      if (event.mod == 0) {
        reject("hash-selected event needs mod >= 1");
      }
      if (event.sel >= event.mod) {
        reject("hash selector sel=" + std::to_string(event.sel) +
               " must be < mod=" + std::to_string(event.mod));
      }
    }
  }
}

std::string exec_plan_to_text(const ExecFaultPlan& plan) {
  std::ostringstream out;
  out << "exec-seed " << plan.seed << "\n";
  for (const ExecFaultEvent& e : plan.events) {
    out << "exec-event kind=" << to_string(e.kind) << " class=";
    if (e.class_id == kAnyClass) {
      out << "any";
    } else {
      out << e.class_id;
    }
    out << " mod=" << e.mod << " sel=" << e.sel << " times=" << e.times
        << "\n";
  }
  return out.str();
}

ExecFaultPlan exec_plan_from_text(const std::string& text,
                                  std::size_t first_line) {
  ExecFaultPlan plan;
  plan.seed = read_plan_text(
      text, "exec fault plan", "exec-", [&] { plan.events.emplace_back(); },
      [&](const PlanField& field) {
        ExecFaultEvent& event = plan.events.back();
        if (field.key == "kind") {
          field.name(event.kind,
                     {ExecFaultKind::kThrow, ExecFaultKind::kCorrupt});
        } else if (field.key == "class") {
          if (field.value == "any") {
            event.class_id = kAnyClass;
          } else {
            field.number(event.class_id);
          }
        } else if (field.key == "mod") {
          field.number(event.mod);
        } else if (field.key == "sel") {
          field.number(event.sel);
        } else if (field.key == "times") {
          field.number(event.times);
        } else {
          return false;
        }
        return true;
      },
      first_line);
  return plan;
}

InjectedTaskThrow::InjectedTaskThrow(std::size_t class_id,
                                     std::uint32_t attempt)
    : std::runtime_error("exec fault: injected throw (class " +
                         std::to_string(class_id) + " attempt " +
                         std::to_string(attempt) + ")") {}

ExecClassQuarantined::ExecClassQuarantined(std::size_t class_id,
                                           std::uint32_t attempts,
                                           const std::string& last_error,
                                           std::uint64_t failures,
                                           std::uint64_t retries)
    : std::runtime_error("exec: class " + std::to_string(class_id) +
                         " quarantined after " + std::to_string(attempts) +
                         " failed attempts (" + last_error +
                         "); run aborted cleanly"),
      class_id_(class_id),
      attempts_(attempts),
      failures_(failures),
      retries_(retries) {}

ExecFaultInjector::ExecFaultInjector(const ExecFaultPlan& plan)
    : plan_(plan) {
  validate_exec_plan(plan_);
}

bool ExecFaultInjector::matches(const ExecFaultEvent& event,
                                std::size_t event_index,
                                std::size_t class_id) const {
  if (event.class_id != kAnyClass) return event.class_id == class_id;
  // Seeded hash selection: a fresh Rng stream per (class, event), so two
  // hash events in one plan select independent class subsets.
  Rng rng(plan_.seed ^ (0x9E3779B97F4A7C15ULL * (class_id + 1)) ^
          (0xBF58476D1CE4E5B9ULL * (event_index + 1)));
  return rng.below(event.mod) == event.sel;
}

ExecFaultKind ExecFaultInjector::fault_for(std::size_t class_id,
                                           std::uint32_t attempt) const {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const ExecFaultEvent& event = plan_.events[i];
    if (attempt >= event.times) continue;
    if (matches(event, i, class_id)) return event.kind;
  }
  return ExecFaultKind::kNone;
}

void ExecFaultInjector::corrupt_result(
    std::size_t class_id, std::uint32_t attempt, Count minsup,
    ItemsetStore& result) const {
  Rng rng(plan_.seed ^ (0x94D049BB133111EBULL * (class_id + 1)) ^
          (0xD6E8FEB86659FD93ULL * (attempt + 1)));
  // Every mutation mode produces a slot that validate_class_result is
  // guaranteed to reject, so detection (and therefore the retry
  // schedule) is deterministic.
  if (result.empty() || rng.below(3) == 0) {
    // Bogus extra itemset: two identical items can never be a valid
    // (strictly ascending, >= 3 items) mined itemset.
    const Item bogus[] = {0, 0};
    result.push_back(bogus, minsup);
    return;
  }
  const std::size_t victim = rng.below(result.size());
  if (minsup > 0 && rng.below(2) == 0) {
    result.set_support(victim, minsup - 1);  // below the support floor
  } else {
    const std::span<Item> items = result.items_at(victim);
    std::swap(items[0], items[1]);  // breaks ascending order
  }
}

void validate_class_result(const EquivalenceClass& eq_class, Count minsup,
                           const ItemsetStore& result) {
  if (result.empty()) return;
  // One mark per item over the members' span, so membership is one load.
  // Members arrive sorted from the frequent-pair split, but the contract
  // check must not rely on that.
  Item base = 0;
  std::vector<bool> marked;
  if (!eq_class.members.empty()) {
    const auto [low, high] = std::minmax_element(eq_class.members.begin(),
                                                 eq_class.members.end());
    base = *low;
    marked.resize(std::size_t{*high} - base + 1);
    for (Item member : eq_class.members) marked[member - base] = true;
  }
  const auto is_member = [&](Item item) {
    return item >= base && item - base < marked.size() && marked[item - base];
  };
  for (std::size_t i = 0; i < result.size(); ++i) {
    const ItemsetView found = result[i];
    const auto reject = [&](const std::string& why) {
      throw ClassResultCorrupt(
          "exec: corrupt class result (class prefix " +
          std::to_string(eq_class.prefix) + ", itemset " +
          std::to_string(i) + ": " + why + ")");
    };
    if (found.items.size() < 3) {
      reject("only " + std::to_string(found.items.size()) +
             " items; class mining emits >= 3");
    }
    if (found.items.front() != eq_class.prefix) {
      reject("first item " + std::to_string(found.items.front()) +
             " is not the class prefix");
    }
    for (std::size_t k = 1; k < found.items.size(); ++k) {
      if (found.items[k] <= found.items[k - 1]) {
        reject("items not strictly ascending at position " +
               std::to_string(k));
      }
      if (!is_member(found.items[k])) {
        reject("item " + std::to_string(found.items[k]) +
               " is not a class member");
      }
    }
    if (found.support < minsup) {
      reject("support " + std::to_string(found.support) +
             " below minsup " + std::to_string(minsup));
    }
  }
}

}  // namespace eclat::exec
