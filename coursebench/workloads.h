#ifndef COURSEBENCH_WORKLOADS_H_
#define COURSEBENCH_WORKLOADS_H_

// The benchmark's three standalone courses. Each stresses different
// layers of the same event-driven core; BENCHMARK.json records why.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fedscope/core/fed_runner.h"

namespace coursebench {

struct Workload {
  /// Inputs generated from the seed (untimed), borrowed by every job.
  std::shared_ptr<fedscope::FedDataset> data;
  std::shared_ptr<fedscope::ClientDataProvider> provider;
  /// A fresh job over the inputs. Hooks the benchmark installs (taps,
  /// evaluator, wrapping factories) are left unset.
  std::function<fedscope::FedJob()> make_job;
  /// Attach a MetricsRegistry to every course (obs layer on).
  bool attach_metrics = false;
  /// The course must end with a non-empty quarantine drawn only from the
  /// fault plan's hostile clients.
  bool expects_quarantine = false;
  /// Lowest acceptable final global accuracy.
  double accuracy_floor = 0.0;
};

/// Builds workload `name` from `seed`. Snapshot-writing workloads write
/// under `scratch_dir`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed,
                  const std::string& scratch_dir, Workload* out);

}  // namespace coursebench

#endif  // COURSEBENCH_WORKLOADS_H_
