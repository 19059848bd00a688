//! The workspace-wide shared thread pool.
//!
//! Every parallel entry point (the DWG ghost kernel, the sweep engine's
//! outer configuration fan-out, GP population scoring) routes through
//! [`install`], which lazily builds **one** shared pool sized from
//! `RAYON_NUM_THREADS` (else the core count) and — crucially — *inherits*
//! any budget already in force instead of resetting it. Nested parallel
//! sections therefore subdivide a single machine-wide budget: the sweep's
//! outer config-group loop composed with the inner chunked ghost kernel
//! can never spawn pools-within-pools, and a bench or CLI override
//! (`ThreadPoolBuilder::num_threads(n).install(..)` around a whole run)
//! caps everything beneath it.

use std::sync::OnceLock;

/// The lazily-built shared pool.
fn shared() -> &'static rayon::ThreadPool {
    static POOL: OnceLock<rayon::ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .build()
            .expect("shared thread pool construction cannot fail")
    })
}

/// Run `f` under the workspace's shared thread budget.
///
/// If the calling thread is already inside a pool scope (an enclosing
/// [`install`], an explicit bench/CLI pool, or a parallel-iterator
/// worker), `f` runs directly and inherits that budget — installing the
/// shared pool here would *widen* the budget and oversubscribe the
/// machine. Only a top-level call actually enters the shared pool.
pub fn install<R>(f: impl FnOnce() -> R) -> R {
    // Pool workers could block behind a held lock, or deadlock if `f` (or
    // a sibling job) takes it.
    crate::sync::assert_no_lock_held("pic_types::pool::install");
    if rayon::in_pool_context() {
        f()
    } else {
        shared().install(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn install_runs_and_returns() {
        let out = install(|| (0..100usize).into_par_iter().map(|i| i * 2).sum::<usize>());
        assert_eq!(out, 99 * 100);
    }

    #[test]
    fn nested_install_inherits_narrow_budget() {
        // A 1-thread override around an install must not be widened back
        // to the machine budget by the shared pool.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            install(|| assert_eq!(rayon::current_num_threads(), 1));
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pic_types::pool::install while holding a lock")]
    fn install_while_holding_a_lock_panics() {
        let m = crate::sync::Mutex::new(());
        let _g = m.lock();
        install(|| ());
    }

    #[test]
    fn top_level_install_enters_shared_pool() {
        install(|| {
            assert!(rayon::in_pool_context());
            assert_eq!(rayon::current_num_threads(), shared().current_num_threads());
        });
    }
}
