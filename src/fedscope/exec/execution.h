#ifndef FEDSCOPE_EXEC_EXECUTION_H_
#define FEDSCOPE_EXEC_EXECUTION_H_

namespace fedscope {

/// How the standalone runner executes the deliveries of one virtual-time
/// instant (DESIGN.md §12).
enum class ExecutionBackend {
  /// One thread pumps and handles everything, in event-queue order. The
  /// default, and the reference semantics every other backend must match
  /// bit for bit.
  kSerial,
  /// Client-targeted deliveries that share a virtual timestamp are handled
  /// concurrently on a worker pool; their effects (emitted messages,
  /// metric/trace ops, delivery taps) are committed in canonical order —
  /// the serial pop order: ascending insertion sequence within the
  /// timestamp, then each delivery's send sequence. Same-seed runs are
  /// bit-identical to kSerial, including obs exports. Server, aggregator,
  /// fault-injection, and codec work stays on the pump thread; only the
  /// server's evaluator runs with the pool published as
  /// WorkerPool::Current(), so EvaluateClassifier fans its chunks out over
  /// it, with every float unchanged.
  kThreaded,
};

/// Execution-backend selection for one FedJob.
struct ExecutionOptions {
  ExecutionBackend backend = ExecutionBackend::kSerial;
  /// Worker threads for kThreaded (ignored by kSerial);
  /// <= 0 uses std::thread::hardware_concurrency().
  int num_threads = 0;
};

}  // namespace fedscope

#endif  // FEDSCOPE_EXEC_EXECUTION_H_
