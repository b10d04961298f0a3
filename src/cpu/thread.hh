/**
 * @file
 * Simulated software threads and their programs.
 *
 * A thread program is a sequence of steps. Each step is either a
 * transaction (ordered or unordered; its body coroutine is re-created
 * from the factory when the transaction aborts — the register
 * checkpoint restore), a plain non-transactional stretch, or a
 * barrier. Lock-based synchronization is expressed inside plain steps
 * with CAS spinlocks (see locks/spinlock.hh).
 *
 * A thread holds one materialized step at a time and pulls the next
 * from its StepSource when the current one retires (commit, plain-step
 * end, barrier arrival); an abort restarts the step it holds. A
 * program built as a std::vector<Step> is moved into a source that
 * hands its steps out in order, so its host memory is what the
 * workload built; a generator source (the kv workload's) makes each
 * step on demand, so a thread's memory is one step whatever the
 * program length.
 */

#ifndef PTM_CPU_THREAD_HH
#define PTM_CPU_THREAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "cpu/coro.hh"
#include "sim/types.hh"

namespace ptm
{

class Core;

/** A transactional step. */
struct TxStep
{
    CoroFactory body;
    bool ordered = false;
    /** Ordered scope handle (from TxManager::createOrderedScope). */
    std::uint32_t scope = 0;
    /** Program-defined commit rank within the scope. */
    std::uint64_t rank = 0;
};

/** A non-transactional step. */
struct PlainStep
{
    CoroFactory body;
};

/** Wait at OS barrier @c id until all participants arrive. */
struct BarrierStep
{
    unsigned id = 0;
};

using Step = std::variant<TxStep, PlainStep, BarrierStep>;

/**
 * A thread program, one step at a time: each call writes the next step
 * into its argument and returns true, or returns false once the
 * program has ended. Called once per step, in program order, and never
 * again after it returned false.
 */
using StepSource = std::function<bool(Step &)>;

/** A source that hands out @p steps in order (moved, not copied). */
inline StepSource
stepsOf(std::vector<Step> steps)
{
    return [steps = std::move(steps),
            next = std::size_t(0)](Step &out) mutable {
        if (next == steps.size())
            return false;
        out = std::move(steps[next++]);
        return true;
    };
}

/** Scheduling state of a thread. */
enum class ThreadState
{
    Ready,       //!< runnable, waiting for a core
    Running,     //!< on a core
    WaitMem,     //!< a memory access is in flight
    WaitOrdered, //!< at tx_end, waiting for the commit token
    WaitAbort,   //!< aborted, waiting for cleanup before restart
    WaitBarrier, //!< parked at a barrier
    Done,        //!< program finished
};

/** One simulated thread. */
class ThreadCtx
{
  public:
    /** Materializes the program's first step. */
    ThreadCtx(ThreadId id, ProcId proc, StepSource program,
              std::string name = {})
        : id(id), proc(proc), name(std::move(name)),
          program_(std::move(program))
    {
        pull();
    }

    const ThreadId id;
    const ProcId proc;
    const std::string name;

    ThreadState state = ThreadState::Ready;
    /** Core currently running (or parking) the thread. */
    Core *core = nullptr;

    /** Current transaction (invalidTxId outside transactions). */
    TxId curTx = invalidTxId;
    /** Live coroutine of the current step. */
    TxCoro coro;
    bool coroLive = false;

    /** Logical abort received; stop issuing and restart. */
    bool abortPending = false;
    /** Abort cleanup finished; restart may proceed. */
    bool abortCleanupDone = false;
    /** A load/CAS result awaits delivery to the coroutine. */
    bool hasPendingResume = false;
    std::uint64_t resumeValue = 0;
    /** tx_end issued; waiting to (re)try the commit. */
    bool commitPending = false;
    /**
     * Execution-attempt epoch, bumped on every abort restart. Core
     * continuation events capture it so that callbacks belonging to an
     * aborted attempt become no-ops instead of resuming the new one.
     */
    std::uint64_t epoch = 0;

    /** @name Per-thread statistics */
    /// @{
    std::uint64_t memOps = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t restarts = 0;
    /// @}

    /** The program has no step left. */
    bool finished() const { return finished_; }

    /** The materialized step (only while !finished()). */
    const Step &currentStep() const { return step_; }

    /** Index of the current step (= steps retired so far). */
    std::uint64_t stepIndex() const { return stepIdx_; }

    /**
     * Retire the current step and materialize the next one. The
     * current step is destroyed: nothing may still refer to it (its
     * coroutine, or a BarrierStep reference).
     */
    void
    advance()
    {
        ++stepIdx_;
        pull();
    }

  private:
    void pull() { finished_ = !program_(step_); }

    StepSource program_;
    Step step_;
    std::uint64_t stepIdx_ = 0;
    bool finished_ = false;
};

} // namespace ptm

#endif // PTM_CPU_THREAD_HH
