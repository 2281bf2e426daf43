#ifndef FEDSCOPE_EXEC_WORKER_POOL_H_
#define FEDSCOPE_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fedscope {

/// Fixed-size pool of persistent worker threads executing one batch of
/// tasks at a time. Determinism does not depend on which thread claims
/// which task: callers index results by task position and commit them in
/// canonical order after Run returns. Run provides the happens-before
/// edge — every effect of every task is visible to the caller once Run
/// returns, and no task runs outside a Run call.
///
/// A thread may also publish a pool as its Current() for a scope, so code
/// deep in a call chain (EvaluateClassifier under a user evaluator hook)
/// can fan out without the pool being threaded through every signature.
/// Current() is thread-local and null by default: a pool's own workers
/// never see one, so a task cannot re-enter Run.
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1).
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs every task to completion and blocks until all returned. Tasks
  /// are claimed by ascending index; `tasks` is borrowed for the duration
  /// of the call. Not reentrant (single batch in flight).
  void Run(std::vector<std::function<void()>>* tasks);

  /// The pool the calling thread may fan work out to, or null when no
  /// ScopedCurrent is open on this thread.
  static WorkerPool* Current();

  /// Makes `pool` (which may be null) the calling thread's Current() for
  /// its lifetime and restores the previous one on destruction, so scopes
  /// nest. Open it only on a thread that is not itself running a task of
  /// `pool`.
  class ScopedCurrent {
   public:
    explicit ScopedCurrent(WorkerPool* pool);
    ~ScopedCurrent();

    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;

   private:
    WorkerPool* previous_;
  };

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::function<void()>>* tasks_ = nullptr;  // guarded by mu_
  size_t next_ = 0;                                      // guarded by mu_
  size_t remaining_ = 0;                                 // guarded by mu_
  int64_t generation_ = 0;                               // guarded by mu_
  bool shutdown_ = false;                                // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace fedscope

#endif  // FEDSCOPE_EXEC_WORKER_POOL_H_
