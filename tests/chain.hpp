// A self-continuing callback chain without an ownership cycle.
//
// Tests drive closed-loop traffic with chains: step k issues an operation
// whose completion runs step k + 1. Storing the step in a shared
// std::function that captures its own shared_ptr makes the function own
// itself, so it is never freed (LeakSanitizer reports every such chain).
// Here the step does not capture the chain: each call hands it `next`, a
// handle that owns the chain, and the step moves that handle into the
// pending completion. The pending completion owns the chain, as the armed
// timer owns GroupMember::leave_group's retry; once no completion is
// pending, the chain is freed.
//
//   const Chain<int> pump([&](const Chain<int>& next, int k) {
//     if (k >= 10) return;
//     h.process(1).user_send(make_pattern_buffer(16), [next, k](Status) {
//       next(k + 1);
//     });
//   });
//   pump(0);
#pragma once

#include <functional>
#include <memory>
#include <utility>

namespace amoeba {

template <typename... Args>
class Chain {
 public:
  /// One step: runs with the handle that continues the chain.
  using Step = std::function<void(const Chain& next, Args... args)>;

  explicit Chain(Step step) : step_(std::make_shared<Step>(std::move(step))) {}

  void operator()(Args... args) const {
    // A copy, so the step outlives a completion that frees the handle it
    // was called through.
    const Chain self = *this;
    (*self.step_)(self, args...);
  }

 private:
  std::shared_ptr<const Step> step_;
};

}  // namespace amoeba
