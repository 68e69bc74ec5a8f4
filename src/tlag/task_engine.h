#ifndef GAL_TLAG_TASK_ENGINE_H_
#define GAL_TLAG_TASK_ENGINE_H_

#include <atomic>
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault.h"
#include "common/core_budget.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "tlag/work_deque.h"

namespace gal {

/// Statistics of a task-engine run, the observables behind the survey's
/// G-thinker/T-thinker discussion: how much work moved between workers
/// (steals) and how evenly the makespan spread (idle time).
struct TaskEngineStats {
  uint64_t tasks_executed = 0;
  uint64_t tasks_spawned = 0;
  uint64_t steals = 0;
  /// Full victim-scan rounds that found nothing stealable.
  uint64_t failed_steal_attempts = 0;
  /// Times a worker gave up stealing and parked on the eventcount.
  uint64_t parks = 0;
  double wall_seconds = 0.0;
  /// Per-thread seconds spent executing tasks (vs idling/stealing).
  std::vector<double> busy_seconds;
  /// Seconds from first failed local pop to a successful steal, one
  /// sample per steal (how long work takes to migrate).
  StageTimingStat steal_latency;
  /// Seconds spent blocked in the parking lot, one sample per park.
  StageTimingStat park_time;
  /// Sampled deque depths (victim depth at each steal + periodic owner
  /// samples at spawn); unit is tasks, not seconds.
  StageTimingStat queue_depth;

  double TotalBusySeconds() const {
    double s = 0.0;
    for (double b : busy_seconds) s += b;
    return s;
  }
  /// busy / (wall * threads); 1.0 = perfect balance. An empty or
  /// unmeasurably short run reports 0 (there was no parallel work to be
  /// efficient at), not a vacuous 1.0.
  double ParallelEfficiency() const {
    const double busy = TotalBusySeconds();
    if (busy == 0.0 || wall_seconds == 0.0 || busy_seconds.empty()) return 0.0;
    return busy / (wall_seconds * static_cast<double>(busy_seconds.size()));
  }
};

/// How Run() spreads the initial tasks over the worker queues.
enum class InitialDistribution : uint8_t {
  /// Interleaved: task i goes to queue i mod threads. Smooths skew when
  /// tasks are many (the default).
  kRoundRobin,
  /// Contiguous blocks: queue w gets tasks [w*n/T, (w+1)*n/T) — how real
  /// systems statically shard a vertex range, and the distribution under
  /// which heavy-task skew shows (the work-stealing ablation baseline).
  kBlock,
};

struct TaskEngineConfig {
  /// 0 = resolve from GAL_TASK_THREADS, else hardware_concurrency.
  uint32_t num_threads = 0;
  /// When false, each thread only runs the initial tasks assigned to it
  /// (the static-partition baseline for the work-stealing ablation;
  /// spawned subtasks stay with their spawner).
  bool work_stealing = true;
  InitialDistribution distribution = InitialDistribution::kRoundRobin;
  /// Optional simulated-cluster substrate. When set, tasks may attribute
  /// the partition homes of the data they read via
  /// Context::TouchPartition, charging the runtime's TrafficLedger —
  /// putting think-like-a-graph mining on the same traffic axis as the
  /// TLAV and dist-GNN engines. Non-owning; the engine never mutates the
  /// runtime beyond ledger charges.
  ClusterRuntime* cluster = nullptr;
  /// Shared fault-tolerance schedule (cluster/fault.h). The task engine
  /// itself is a single work-stealing pass with no rounds; algorithms
  /// that want checkpoint/recovery (e.g. TaskTriangleCount) slice their
  /// task list into chunk-rounds and end each on the cluster's
  /// RoundBarrier (cluster/round_barrier.h). Ignored when `cluster` is
  /// null — fault injection is a property of the simulated cluster, not
  /// of host threads.
  FaultPlan faults = FaultPlan::FromEnvOrWarn();
};

// ResolveTaskThreads — the explicit > GAL_TASK_THREADS > hardware
// resolution every engine uses for host threads — lives in
// cluster/cluster.h (included above) next to ResolveClusterWorkers.

/// A think-like-a-task scheduler in the T-thinker mold: tasks are
/// independent units of subgraph search; each worker owns a lock-free
/// Chase–Lev deque (LIFO for itself — the DFS order that keeps memory
/// bounded — FIFO for thieves, which steal the *largest/oldest*
/// subproblems). User code runs inside Process and may spawn subtasks,
/// which is exactly the "task splitting" mechanism G-thinker/STMatch use
/// for load balancing.
///
/// Idle policy: a worker whose deque is empty makes one randomized
/// victim-scan round; on failure it parks on an eventcount (epoch
/// counter + condvar) instead of sleep-scanning queues. Spawns wake one
/// parked thief; the worker that retires the last outstanding task wakes
/// everyone. The parked count doubles as the cheap StealPressure signal
/// that task-splitting call sites poll.
///
/// While running, the engine holds a CoreBudget::StageExecutorLease for
/// its workers, so tensor-kernel dispatches issued from inside tasks
/// shrink their shard fan-out instead of oversubscribing the machine.
template <typename T>
class TaskEngine {
 public:
  class Context;
  using ProcessFn = std::function<void(T&, Context&)>;

  /// A handle given to Process for spawning subtasks onto the engine.
  class Context {
   public:
    /// Queues a subtask (visible to thieves). Prefer spawning the larger
    /// half of a split so stealing moves real work.
    void Spawn(T task) { engine_->Spawn(thread_id_, std::move(task)); }
    uint32_t thread_id() const { return thread_id_; }
    /// True when at least one worker is parked hungry — the signal that
    /// splitting off a subtask will hand work to an idle core. One
    /// relaxed load; cheap enough for inner search loops.
    bool StealPressure() const {
      return engine_->parked_.load(std::memory_order_relaxed) > 0;
    }
    /// How many workers are parked right now (0..num_threads-1).
    uint32_t ParkedWorkers() const {
      return engine_->parked_.load(std::memory_order_relaxed);
    }
    /// Simulated-cluster attribution: this task read `bytes` of data
    /// whose home partition is `home_worker`. Host thread t executes on
    /// simulated worker t mod W; a read from the executing worker's own
    /// partition books as local on the runtime's ledger, a read of rows
    /// homed elsewhere is charged as cross-worker traffic — the data
    /// movement a steal (or a cross-partition probe) would really cost.
    /// No-op when the engine has no cluster configured.
    void TouchPartition(uint32_t home_worker, uint64_t bytes) {
      ClusterRuntime* cluster = engine_->config_.cluster;
      if (cluster == nullptr) return;
      cluster->ledger().Charge(home_worker,
                               thread_id_ % cluster->num_workers(), bytes);
    }
    /// The simulated worker this task executes on (thread id mod cluster
    /// width), or 0 without a cluster.
    uint32_t executing_worker() const {
      ClusterRuntime* cluster = engine_->config_.cluster;
      return cluster == nullptr ? 0 : thread_id_ % cluster->num_workers();
    }

   private:
    friend class TaskEngine;
    Context(TaskEngine* engine, uint32_t thread_id)
        : engine_(engine), thread_id_(thread_id) {}
    TaskEngine* engine_;
    uint32_t thread_id_;
  };

  explicit TaskEngine(TaskEngineConfig config) : config_(config) {
    config_.num_threads = ResolveTaskThreads(config_.num_threads);
    GAL_CHECK(config_.num_threads >= 1);
    workers_.reserve(config_.num_threads);
    for (uint32_t t = 0; t < config_.num_threads; ++t) {
      workers_.push_back(std::make_unique<Worker>(t));
    }
  }

  /// Runs all `initial_tasks` (distributed per config) plus everything
  /// they spawn; returns when no task remains anywhere.
  TaskEngineStats Run(std::vector<T> initial_tasks, const ProcessFn& process) {
    stats_ = TaskEngineStats{};
    stats_.busy_seconds.assign(config_.num_threads, 0.0);
    steal_latency_hist_.Reset();
    park_time_hist_.Reset();
    queue_depth_hist_.Reset();
    const uint32_t n = config_.num_threads;
    if (config_.distribution == InitialDistribution::kRoundRobin) {
      for (size_t i = 0; i < initial_tasks.size(); ++i) {
        workers_[i % n]->deque.Push(new T(std::move(initial_tasks[i])));
      }
    } else {
      const size_t block = (initial_tasks.size() + n - 1) / n;
      for (size_t i = 0; i < initial_tasks.size(); ++i) {
        workers_[std::min<size_t>(i / std::max<size_t>(block, 1), n - 1)]
            ->deque.Push(new T(std::move(initial_tasks[i])));
      }
    }
    outstanding_.store(initial_tasks.size(), std::memory_order_relaxed);
    parked_.store(0, std::memory_order_relaxed);
    spawned_.store(0, std::memory_order_relaxed);

    // Workers count against the core budget for the duration: kernel
    // dispatches from inside tasks see a shrunken shard cap.
    StageExecutorLease lease(n);

    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (uint32_t t = 0; t < n; ++t) {
      threads.emplace_back([this, t, &process] { WorkerLoop(t, process); });
    }
    for (std::thread& th : threads) th.join();
    stats_.wall_seconds = wall.ElapsedSeconds();
    stats_.tasks_spawned = spawned_.load(std::memory_order_relaxed);
    stats_.steal_latency =
        StageTimingStat::FromHistogram("steal_latency", steal_latency_hist_);
    stats_.park_time =
        StageTimingStat::FromHistogram("park_time", park_time_hist_);
    stats_.queue_depth =
        StageTimingStat::FromHistogram("queue_depth", queue_depth_hist_);
    return stats_;
  }

 private:
  /// Per-worker state, cache-line separated so thieves hammering one
  /// victim's top_ do not false-share with neighbours.
  struct alignas(64) Worker {
    explicit Worker(uint32_t id) : rng(0x9E3779B97F4A7C15ull ^ (id + 1)) {}
    WorkStealingDeque<T> deque;
    uint64_t rng;          // xorshift state for victim selection
    uint64_t spawns = 0;   // owner-side spawn counter (depth sampling)
  };

  void Spawn(uint32_t thread_id, T task) {
    // The spawning task is still outstanding, so the counter cannot hit
    // zero while we are here; increment before publishing regardless so
    // the count is never under the truth.
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    spawned_.fetch_add(1, std::memory_order_relaxed);
    Worker& w = *workers_[thread_id];
    w.deque.Push(new T(std::move(task)));
    if ((++w.spawns & 255) == 0) {
      queue_depth_hist_.Observe(static_cast<double>(w.deque.ApproxSize()));
    }
    WakeOneThief();
  }

  /// One randomized victim-scan round. Returns a task or nullptr.
  T* TrySteal(uint32_t thief, uint64_t& steals, uint64_t& failed_steals) {
    const uint32_t n = config_.num_threads;
    Worker& self = *workers_[thief];
    // xorshift64*: cheap, per-worker, deterministic seeding.
    self.rng ^= self.rng >> 12;
    self.rng ^= self.rng << 25;
    self.rng ^= self.rng >> 27;
    const uint32_t start = static_cast<uint32_t>(
        (self.rng * 0x2545F4914F6CDD1Dull) >> 33);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t victim = (start + i) % n;
      if (victim == thief) continue;
      T* task = workers_[victim]->deque.Steal();
      if (task != nullptr) {
        ++steals;
        queue_depth_hist_.Observe(
            static_cast<double>(workers_[victim]->deque.ApproxSize()));
        return task;
      }
    }
    ++failed_steals;
    return nullptr;
  }

  bool AnyDequeNonEmpty() const {
    for (const auto& w : workers_) {
      if (w->deque.ApproxSize() > 0) return true;
    }
    return false;
  }

  /// Eventcount park: announce hunger, re-check for work (the Dekker
  /// handshake against Spawn's parked-count probe; see work_deque.h on
  /// why the emptiness scan uses seq_cst loads), then sleep until the
  /// epoch moves. The bounded wait is a belt-and-braces backstop; with
  /// the handshake correct it essentially never expires with work ready.
  void Park(uint64_t& parks) {
    parked_.fetch_add(1, std::memory_order_seq_cst);
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (outstanding_.load(std::memory_order_acquire) != 0 &&
        !AnyDequeNonEmpty()) {
      ++parks;
      Timer park_timer;
      {
        std::unique_lock<std::mutex> lock(park_mu_);
        if (epoch_.load(std::memory_order_relaxed) == epoch &&
            outstanding_.load(std::memory_order_acquire) != 0) {
          park_cv_.wait_for(lock, std::chrono::milliseconds(1));
        }
      }
      park_time_hist_.Observe(park_timer.ElapsedSeconds());
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  void WakeOneThief() {
    if (parked_.load(std::memory_order_seq_cst) == 0) return;
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    park_cv_.notify_one();
  }

  void WakeAllDone() {
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    park_cv_.notify_all();
  }

  void WorkerLoop(uint32_t thread_id, const ProcessFn& process) {
    Worker& self = *workers_[thread_id];
    uint64_t executed = 0;
    uint64_t steals = 0;
    uint64_t failed_steals = 0;
    uint64_t parks = 0;
    double busy = 0.0;
    const bool stealing = config_.work_stealing && config_.num_threads > 1;
    Timer hunt_timer;  // time since this worker last had work
    bool hunting = false;
    for (;;) {
      T* task = self.deque.Pop();
      if (task == nullptr && stealing) {
        if (!hunting) {
          hunting = true;
          hunt_timer.Reset();
        }
        task = TrySteal(thread_id, steals, failed_steals);
        if (task != nullptr) {
          steal_latency_hist_.Observe(hunt_timer.ElapsedSeconds());
        }
      }
      if (task != nullptr) {
        hunting = false;
        Timer t;
        Context ctx(this, thread_id);
        process(*task, ctx);
        delete task;
        busy += t.ElapsedSeconds();
        ++executed;
        if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          WakeAllDone();
        }
        continue;
      }
      if (!stealing) {
        // Spawned tasks stay with their spawner, so an empty own deque
        // means this worker is finished (the static baseline; also the
        // single-thread exit path).
        break;
      }
      if (outstanding_.load(std::memory_order_acquire) == 0) break;
      Park(parks);
      if (outstanding_.load(std::memory_order_acquire) == 0) break;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.tasks_executed += executed;
    stats_.steals += steals;
    stats_.failed_steal_attempts += failed_steals;
    stats_.parks += parks;
    stats_.busy_seconds[thread_id] = busy;
  }

  TaskEngineConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> outstanding_{0};
  std::atomic<uint64_t> spawned_{0};
  /// Workers currently parked on the eventcount — the StealPressure
  /// signal.
  std::atomic<uint32_t> parked_{0};
  /// Eventcount epoch: bumped under park_mu_ by every wake so a parker
  /// that observed a stale epoch never sleeps through its wakeup.
  std::atomic<uint64_t> epoch_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  Histogram steal_latency_hist_;
  Histogram park_time_hist_;
  Histogram queue_depth_hist_;
  std::mutex stats_mu_;
  TaskEngineStats stats_;
};

}  // namespace gal

#endif  // GAL_TLAG_TASK_ENGINE_H_
