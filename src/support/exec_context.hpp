#pragma once
// Execution-context flag shared by the kernel thread pool and the rank
// scheduler, kept in support so neither layer has to include the other.
//
// The simulator multiplexes p rank fibers over the physical cores; if a
// la:: routine invoked from inside a simulated rank also fanned out over
// the kernel pool, p ranks x T kernel threads would oversubscribe the
// machine. The scheduler therefore marks every OS thread (or fiber
// residency window) that is executing a rank body, and the kernel pool
// checks the mark and runs inline. Direct/library callers — Plan on
// p = 1, tests, benches — are unmarked and fan out.

namespace catrsm::exec {

/// True while the calling OS thread is executing a simulated rank body.
bool in_sim_rank() noexcept;

/// Set by sim::RankScheduler around each residency window of a rank fiber
/// on its worker thread. Returns the previous value so nesting restores
/// it.
bool set_in_sim_rank(bool value) noexcept;

}  // namespace catrsm::exec
