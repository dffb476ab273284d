// The benchmark's workloads.  Each runs its set-up, its measured rounds and
// its output checks, and adds its metrics to `report`: the end-to-end
// metrics when args.trace is false, the per-layer metrics of one extra
// traced round when it is true.
#pragma once

#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

void run_paper_tables(const Args& args, Report& report);
void run_serve_diurnal(const Args& args, Report& report);
void run_detect_flood(const Args& args, Report& report);

}  // namespace perfbench
