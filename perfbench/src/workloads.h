// The four benchmark workloads. Each runs in its own process, sets up
// several times (reporting the median set-up time), measures one window
// and checks its outputs. `--trace 0` fills the end-to-end metrics,
// `--trace 1` the per-layer ones (see BENCHMARK.json).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/src/harness.h"

namespace perfbench {

void RunSmallBankContended(const Args& args, Result* out);
void RunSmallBankReport(const Args& args, Result* out);
void RunDurablePipelined(const Args& args, Result* out);
void RunPastRam(const Args& args, Result* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
