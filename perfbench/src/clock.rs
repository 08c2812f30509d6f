//! The harness's only wall-clock reads and its only thread spawns,
//! kept in one place so the workspace linter's waivers stay few.

use std::time::Instant;

/// The current host instant.
pub fn now() -> Instant {
    // lint:allow(no-wall-clock): the benchmark measures host wall-clock time
    Instant::now()
}

/// Runs `f(i)` for `i in 0..n` on `n` scoped threads and returns the
/// results in index order: the closed-loop clients, each an
/// independent caller waiting on its own reply.
pub fn on_threads<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let f = &f;
    // lint:allow(no-thread-spawn): closed-loop clients are independent callers, not serving work
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|i| s.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
