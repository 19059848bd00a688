//! Lock-order witness primitives (DESIGN.md §14).
//!
//! [`TrackedMutex`] and [`TrackedCondvar`] wrap their `std::sync`
//! counterparts with two behavioral changes and one pile of debug-only
//! instrumentation:
//!
//! * **Poison recovery everywhere.** `lock()` and `wait_while()` never
//!   panic on a poisoned lock: a panic in one critical section must
//!   not cascade into killing every later thread that touches the same
//!   lock (the resident service's "one panicked handler kills every
//!   subsequent connection" failure mode). Recoveries are counted in the
//!   witness so tests can still see that a panic happened. This is sound
//!   only for critical sections that keep their data structurally valid
//!   at every await-free step — the contract every serve critical section
//!   already meets (bookkeeping only, never partial multi-step updates).
//! * **Predicate-checked waits.** [`TrackedCondvar::wait_while`] is the
//!   only way to wait: the predicate re-check on every wakeup is what
//!   makes lost and spurious wakeups harmless, and there is no raw wait
//!   that could skip it.
//! * **Debug-build lock-order witness.** Every tracked lock belongs to a
//!   *class* — a `(name, level)` pair. In debug/test builds each
//!   acquisition records, per thread, the stack of held classes and
//!   checks the declared partial order: a lock may only be acquired while
//!   every held lock has a strictly **lower** level. Violations (including
//!   same-class re-entry, which self-deadlocks a `std::sync::Mutex`) are
//!   recorded, as are the edges of the global class-level lock-order
//!   graph; inserting an edge that closes a cycle — a potential deadlock
//!   even if this particular run got away with it — is also recorded.
//!   [`assert_witness_clean`] turns any recorded violation into a test
//!   failure with the full evidence.
//!
//! In release builds the wrappers are transparent newtypes: no class
//! field, no thread-local bookkeeping, no atomic traffic — only the
//! (branch-predictable) poison-recovery branch `std` already forces on
//! every lock operation. The `serve.*` latencies of the end-to-end
//! benchmark's `serve-closed2` workload are measured on this path.
//!
//! The declared workspace hierarchy lives with the locks themselves
//! (levels are arguments to the constructors); DESIGN.md §14 tabulates
//! it. Current levels: `serve.registry` (10) < `serve.shutdown` (40) <
//! `workload.assignment_cache` (100) < `serve.plan_cache` (110).

use std::sync::{Condvar, Mutex, MutexGuard};

/// Snapshot of the witness: classes, graph edges, counters, violations.
///
/// Always constructible; in release builds every field is empty/zero
/// because nothing is recorded.
#[derive(Debug, Clone, Default)]
pub struct WitnessReport {
    /// Registered lock classes as `(name, level)`.
    pub classes: Vec<(String, u32)>,
    /// Observed held→acquired edges of the lock-order graph, by name.
    pub edges: Vec<(String, String)>,
    /// Tracked mutex acquisitions.
    pub acquisitions: u64,
    /// Poisoned-lock recoveries (a panic happened under the lock and a
    /// later acquisition recovered instead of cascading).
    pub poison_recoveries: u64,
    /// Recorded violations: declared-order breaches, lock-order-graph
    /// cycles, and parallel-pool entries made while holding a lock.
    pub violations: Vec<String>,
}

#[cfg(debug_assertions)]
mod witness {
    use super::WitnessReport;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Cap on stored violation strings; later ones only bump the count.
    const MAX_STORED: usize = 64;

    #[derive(Default)]
    pub(super) struct State {
        names: Vec<&'static str>,
        levels: Vec<u32>,
        ids: HashMap<&'static str, usize>,
        /// Adjacency of the held→acquired class graph (deduplicated).
        adj: Vec<Vec<usize>>,
        acquisitions: u64,
        poison_recoveries: u64,
        violations: Vec<String>,
        dropped_violations: u64,
    }

    fn state() -> std::sync::MutexGuard<'static, State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE
            .get_or_init(|| Mutex::new(State::default()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    thread_local! {
        /// Classes held by this thread, in acquisition order.
        static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn record_violation(st: &mut State, v: String) {
        if st.violations.len() < MAX_STORED {
            st.violations.push(v);
        } else {
            st.dropped_violations += 1;
        }
    }

    /// Register (or look up) a lock class. Re-registering a name with a
    /// different level is itself a violation — one class, one level.
    pub(super) fn register(name: &'static str, level: u32) -> usize {
        let mut st = state();
        if let Some(&id) = st.ids.get(name) {
            if st.levels[id] != level {
                let have = st.levels[id];
                record_violation(
                    &mut st,
                    format!(
                        "lock class '{name}' re-registered at level {level} \
                         (already declared at level {have})"
                    ),
                );
            }
            return id;
        }
        let id = st.names.len();
        st.names.push(name);
        st.levels.push(level);
        st.adj.push(Vec::new());
        st.ids.insert(name, id);
        id
    }

    /// Is `to` reachable from `from` in the class graph?
    fn reachable(adj: &[Vec<usize>], from: usize, to: usize) -> bool {
        let mut seen = vec![false; adj.len()];
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            stack.extend(adj[n].iter().copied());
        }
        false
    }

    /// Called immediately *before* blocking on the underlying lock, so a
    /// schedule that would deadlock still gets its violation recorded.
    pub(super) fn before_acquire(class: usize) {
        let held = HELD.with(|h| h.borrow().clone());
        let mut st = state();
        st.acquisitions += 1;
        for &h in &held {
            if st.levels[h] >= st.levels[class] {
                let v = if h == class {
                    format!(
                        "thread {:?} re-acquired lock class '{}' it already holds \
                         (self-deadlock on std::sync primitives)",
                        std::thread::current().id(),
                        st.names[class],
                    )
                } else {
                    format!(
                        "declared-order violation: thread {:?} acquired '{}' (level {}) \
                         while holding '{}' (level {}); levels must strictly increase",
                        std::thread::current().id(),
                        st.names[class],
                        st.levels[class],
                        st.names[h],
                        st.levels[h],
                    )
                };
                record_violation(&mut st, v);
            }
            if h != class && !st.adj[h].contains(&class) {
                // A new edge h→class: closing a cycle means two threads
                // can acquire the classes in opposite orders — a
                // potential deadlock even if this run survived.
                if reachable(&st.adj, class, h) {
                    let v = format!(
                        "lock-order cycle: acquiring '{}' while holding '{}' closes a cycle \
                         in the global acquisition graph (potential deadlock)",
                        st.names[class], st.names[h],
                    );
                    record_violation(&mut st, v);
                }
                st.adj[h].push(class);
            }
        }
    }

    pub(super) fn after_acquire(class: usize) {
        HELD.with(|h| h.borrow_mut().push(class));
    }

    pub(super) fn release(class: usize) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&c| c == class) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn note_poison_recovery() {
        state().poison_recoveries += 1;
    }

    pub(super) fn note_parallel_entry(context: &'static str) {
        let held = HELD.with(|h| h.borrow().clone());
        if held.is_empty() {
            return;
        }
        let mut st = state();
        let names: Vec<&str> = held.iter().map(|&c| st.names[c]).collect();
        let v = format!(
            "{context}: thread {:?} entered a parallel section while holding {names:?} \
             (workers can block behind the held lock, or deadlock trying to take it)",
            std::thread::current().id(),
        );
        record_violation(&mut st, v);
    }

    pub(super) fn report() -> WitnessReport {
        let st = state();
        let mut edges = Vec::new();
        for (from, tos) in st.adj.iter().enumerate() {
            for &to in tos {
                edges.push((st.names[from].to_string(), st.names[to].to_string()));
            }
        }
        edges.sort();
        let mut violations = st.violations.clone();
        if st.dropped_violations > 0 {
            violations.push(format!(
                "... and {} further violation(s) not stored",
                st.dropped_violations
            ));
        }
        WitnessReport {
            classes: st
                .names
                .iter()
                .zip(&st.levels)
                .map(|(n, &l)| (n.to_string(), l))
                .collect(),
            edges,
            acquisitions: st.acquisitions,
            poison_recoveries: st.poison_recoveries,
            violations,
        }
    }
}

/// Current witness snapshot. Empty in release builds.
pub fn witness_report() -> WitnessReport {
    #[cfg(debug_assertions)]
    {
        witness::report()
    }
    #[cfg(not(debug_assertions))]
    {
        WitnessReport::default()
    }
}

/// Panic with full evidence if the witness recorded any lock-discipline
/// violation. Call at the end of concurrency tests; a no-op in release
/// builds (nothing is recorded there).
pub fn assert_witness_clean() {
    let report = witness_report();
    assert!(
        report.violations.is_empty(),
        "lock-order witness recorded {} violation(s):\n  {}",
        report.violations.len(),
        report.violations.join("\n  ")
    );
}

/// Record that the calling thread is entering a parallel section (the
/// shared rayon pool). Entering one while holding a tracked lock is a
/// recorded violation: pool workers can block behind the held lock — or
/// deadlock outright if any of them takes it. Debug builds only.
#[inline]
pub fn note_parallel_entry(context: &'static str) {
    #[cfg(debug_assertions)]
    witness::note_parallel_entry(context);
    #[cfg(not(debug_assertions))]
    let _ = context;
}

// ------------------------------------------------------------- TrackedMutex

/// A [`Mutex`] with poison recovery and (in debug builds) lock-order
/// witnessing. See the module docs for the full contract.
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    #[cfg(debug_assertions)]
    class: usize,
}

/// Guard returned by [`TrackedMutex::lock`]. Transparent in release
/// builds; pops the witness held-stack on drop in debug builds.
pub struct TrackedMutexGuard<'a, T> {
    // Debug builds need `Option` so `TrackedCondvar::wait_while` can move
    // the inner guard out past this type's `Drop` impl without `unsafe`;
    // release builds have no `Drop` impl and destructure directly.
    #[cfg(debug_assertions)]
    inner: Option<MutexGuard<'a, T>>,
    #[cfg(not(debug_assertions))]
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    class: usize,
}

impl<T> TrackedMutex<T> {
    /// A tracked mutex of class `name` at `level` in the declared lock
    /// hierarchy (lower levels are acquired first / held outermost).
    pub fn new(name: &'static str, level: u32, value: T) -> TrackedMutex<T> {
        #[cfg(not(debug_assertions))]
        let _ = (name, level);
        TrackedMutex {
            inner: Mutex::new(value),
            #[cfg(debug_assertions)]
            class: witness::register(name, level),
        }
    }

    /// Acquire, recovering (and counting) a poisoned lock instead of
    /// panicking. In debug builds, checks the declared order against
    /// every lock the thread already holds.
    #[inline]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            witness::before_acquire(self.class);
            let inner = self.inner.lock().unwrap_or_else(|p| {
                witness::note_poison_recovery();
                p.into_inner()
            });
            witness::after_acquire(self.class);
            TrackedMutexGuard {
                inner: Some(inner),
                class: self.class,
            }
        }
        #[cfg(not(debug_assertions))]
        {
            TrackedMutexGuard {
                inner: self
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        #[cfg(debug_assertions)]
        {
            self.inner.as_ref().expect("guard still held")
        }
        #[cfg(not(debug_assertions))]
        {
            &self.inner
        }
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        #[cfg(debug_assertions)]
        {
            self.inner.as_mut().expect("guard still held")
        }
        #[cfg(not(debug_assertions))]
        {
            &mut self.inner
        }
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            witness::release(self.class);
        }
    }
}

// ----------------------------------------------------------- TrackedCondvar

/// A [`Condvar`] whose only waiting API re-checks a predicate on every
/// wakeup ([`TrackedCondvar::wait_while`]).
#[derive(Default)]
pub struct TrackedCondvar {
    inner: Condvar,
}

impl TrackedCondvar {
    /// A new condition variable.
    pub fn new() -> TrackedCondvar {
        TrackedCondvar::default()
    }

    /// Wake every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until `condition` returns `false` (same contract as
    /// [`Condvar::wait_while`]): the predicate is re-checked under the
    /// lock on every wakeup, so lost and spurious wakeups cannot produce
    /// a wrong resumption. Recovers poisoned locks like
    /// [`TrackedMutex::lock`].
    pub fn wait_while<'a, T, F>(
        &self,
        guard: TrackedMutexGuard<'a, T>,
        condition: F,
    ) -> TrackedMutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        #[cfg(debug_assertions)]
        {
            let mut guard = guard;
            let class = guard.class;
            let inner = guard.inner.take().expect("guard still held");
            // The mutex is released for the duration of the wait: the
            // witness held-stack must not claim it across the park.
            witness::release(class);
            let inner = self.inner.wait_while(inner, condition).unwrap_or_else(|p| {
                witness::note_poison_recovery();
                p.into_inner()
            });
            witness::after_acquire(class);
            TrackedMutexGuard {
                inner: Some(inner),
                class,
            }
        }
        #[cfg(not(debug_assertions))]
        {
            TrackedMutexGuard {
                inner: self
                    .inner
                    .wait_while(guard.inner, condition)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            }
        }
    }
}

impl std::fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TrackedCondvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // NOTE: the witness is process-global and these tests run in one
    // binary (possibly in parallel), so every intentional violation here
    // uses distinctive class names and asserts on substrings rather than
    // on the whole report being empty.

    #[test]
    fn lock_roundtrip_and_counters() {
        let m = TrackedMutex::new("test.roundtrip", 1000, 7u32);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 8);
        let r = witness_report();
        if cfg!(debug_assertions) {
            assert!(r.acquisitions >= 2);
            assert!(r
                .classes
                .iter()
                .any(|(n, l)| n == "test.roundtrip" && *l == 1000));
        } else {
            assert!(r.classes.is_empty());
        }
    }

    #[test]
    fn poison_is_recovered_not_cascaded() {
        let m = Arc::new(TrackedMutex::new("test.poison", 1001, vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let before = witness_report().poison_recoveries;
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // The next acquisition recovers instead of panicking and the data
        // is still there.
        assert_eq!(m.lock().len(), 3);
        if cfg!(debug_assertions) {
            assert!(witness_report().poison_recoveries > before);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn declared_order_violation_is_recorded() {
        let outer = TrackedMutex::new("test.order.outer", 2010, ());
        let inner = TrackedMutex::new("test.order.inner", 2005, ());
        let _a = outer.lock();
        let _b = inner.lock(); // 2005 while holding 2010: order breach
        let r = witness_report();
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("test.order.inner") && v.contains("declared-order")),
            "{:?}",
            r.violations
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_class_reentry_is_recorded() {
        let a = TrackedMutex::new("test.reentry", 2020, ());
        let b = TrackedMutex::new("test.reentry", 2020, ());
        let _a = a.lock();
        let _b = b.lock(); // same class while held: self-deadlock shape
        let r = witness_report();
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("re-acquired lock class 'test.reentry'")),
            "{:?}",
            r.violations
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn opposite_order_threads_close_a_cycle() {
        // Same level on purpose? No — distinct levels so only the *cycle*
        // detector fires on the second thread (the first edge is clean,
        // the reversed edge closes the cycle; one of the two acquisitions
        // also breaches the declared order, which is fine).
        let a = Arc::new(TrackedMutex::new("test.cycle.a", 2030, ()));
        let b = Arc::new(TrackedMutex::new("test.cycle.b", 2031, ()));
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a → b
        }
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock(); // b → a closes the cycle
        })
        .join()
        .unwrap();
        let r = witness_report();
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("cycle") && v.contains("test.cycle.a")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn wait_while_delivers_published_value() {
        let m = Arc::new(TrackedMutex::new("test.cv.slot", 3000, None::<u32>));
        let cv = Arc::new(TrackedCondvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let g = m2.lock();
            let g = cv2.wait_while(g, |slot| slot.is_none());
            g.expect("predicate guarantees Some")
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock() = Some(99);
        cv.notify_all();
        assert_eq!(waiter.join().unwrap(), 99);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn parallel_entry_while_holding_lock_is_recorded() {
        let m = TrackedMutex::new("test.pool.held", 4000, ());
        let _g = m.lock();
        note_parallel_entry("test.pool.entry");
        let r = witness_report();
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("test.pool.entry") && v.contains("test.pool.held")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn guards_release_out_of_order() {
        // Guard drop pops the *matching* class even when drops are not
        // LIFO — the held stack must stay consistent.
        let a = TrackedMutex::new("test.ooo.a", 6000, ());
        let b = TrackedMutex::new("test.ooo.b", 6001, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        drop(gb);
        // A fresh correctly-ordered acquisition must not see stale state.
        let _ga = a.lock();
        let _gb = b.lock();
    }
}
