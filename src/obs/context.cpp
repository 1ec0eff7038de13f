#include "obs/context.hpp"

namespace zhuge::obs {

namespace {

// zlint-allow(shared-mutable-state): reviewed obs routing pointer; thread-local, so each worker sees only the context its pool installed, never result-affecting
thread_local Context* t_current = nullptr;

Context& default_context() {
  // zlint-allow(shared-mutable-state): reviewed obs default sink for serial callers; pooled runs record into their own contexts, never result-affecting
  static Context c;
  return c;
}

}  // namespace

void Context::merge(const Context& run) {
  metrics.merge(run.metrics);
  tracer.append(run.tracer);
  invariants.merge(run.invariants);
}

void Context::clear() {
  metrics.clear();
  tracer.clear();
  invariants.clear();
}

Context& current() {
  Context* const c = t_current;
  return c != nullptr ? *c : default_context();
}

ContextScope::ContextScope(Context& ctx) : previous_(t_current) {
  t_current = &ctx;
}

ContextScope::~ContextScope() { t_current = previous_; }

Registry& metrics() { return current().metrics; }
Tracer& tracer() { return current().tracer; }
InvariantChecker& invariants() { return current().invariants; }
void reset() { current().clear(); }

}  // namespace zhuge::obs
