// The four workloads of dnnd_suite. Each runs its set-up several times
// (reporting the median as setup_s), measures one untraced window, and in
// a traced run repeats set-up and window with spans on, then runs the
// probes and reports the per-layer metrics. `scratch` is a private
// directory for datastores and checkpoints.
#pragma once

#include <string>

#include "harness.hpp"

namespace dnnd::suite {

void run_build_deep(const Options& options, const std::string& scratch,
                    Report& report, Tracer& tracer);
void run_build_kosarak(const Options& options, const std::string& scratch,
                       Report& report, Tracer& tracer);
void run_query_serve(const Options& options, const std::string& scratch,
                     Report& report, Tracer& tracer);
void run_query_local(const Options& options, const std::string& scratch,
                     Report& report, Tracer& tracer);

}  // namespace dnnd::suite
