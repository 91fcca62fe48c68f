//! Graceful-interrupt support for long sweeps.
//!
//! [`install`] registers SIGINT/SIGTERM handlers (std-only — the raw
//! `signal(2)` symbol is declared directly, no libc crate) that set a
//! process-wide [`AtomicBool`]. The sweep runtime fans that flag into
//! every [`crate::Meter`] and into the per-job watchdog, so the
//! first Ctrl-C stops dispatching new jobs and lets in-flight jobs drain
//! cooperatively; a **second** Ctrl-C hard-exits immediately (the only
//! async-signal-safe escape when a drain is itself wedged).
//!
//! Everything here is also usable without signals: tests and the
//! deterministic interrupt hooks call [`trigger`] to simulate a Ctrl-C.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Exit code used by the second-signal hard exit (`128 + SIGINT` by Unix
/// convention).
pub const HARD_EXIT_CODE: i32 = 130;

/// Signal count; the handler hard-exits once this reaches 2.
static SIGNALS_SEEN: AtomicU32 = AtomicU32::new(0);

/// The shared flag. [`install`] initializes this *before* registering the
/// signal handlers, so the handler's `get()` fast-path never allocates or
/// locks (async-signal-safety).
static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

fn cell() -> &'static Arc<AtomicBool> {
    FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)))
}

/// The process-wide interrupt flag, cloneable into stage budgets and
/// watchdog options. Reads `true` once an interrupt was requested.
pub fn flag() -> Arc<AtomicBool> {
    Arc::clone(cell())
}

/// Whether an interrupt (signal or [`trigger`]) has been requested.
pub fn interrupted() -> bool {
    cell().load(Ordering::SeqCst)
}

/// Requests a graceful interrupt exactly as the first Ctrl-C would
/// (deterministic replacement for a signal in tests and CI hooks).
pub fn trigger() {
    cell().store(true, Ordering::SeqCst);
}

/// Clears the interrupt state (test isolation only — a real process exits
/// shortly after an interrupt).
pub fn reset() {
    SIGNALS_SEEN.store(0, Ordering::SeqCst);
    cell().store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`. The return value (previous handler) is only
        /// used as an opaque word, so it is declared pointer-sized rather
        /// than as a function pointer.
        pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        /// POSIX `_exit(2)` — async-signal-safe, unlike `std::process::exit`.
        pub fn _exit(code: i32) -> !;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // async-signal-safe only: atomics and _exit. install() initializes
    // FLAG before registering this handler, so get() is always Some here
    // and never allocates.
    let seen = SIGNALS_SEEN.fetch_add(1, Ordering::SeqCst) + 1;
    if seen >= 2 {
        unsafe { sys::_exit(HARD_EXIT_CODE) };
    }
    if let Some(flag) = FLAG.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Registers the SIGINT/SIGTERM handlers (idempotent; no-op off Unix).
///
/// First signal: sets the interrupt flag so the sweep drains gracefully.
/// Second signal: `_exit(130)` immediately.
pub fn install() {
    #[cfg(unix)]
    {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = cell(); // materialize before the handler can observe FLAG
        unsafe {
            sys::signal(sys::SIGINT, on_signal);
            sys::signal(sys::SIGTERM, on_signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_sets_and_reset_clears() {
        reset();
        assert!(!interrupted());
        trigger();
        assert!(interrupted());
        assert!(flag().load(Ordering::SeqCst));
        reset();
        assert!(!interrupted());
    }

    #[test]
    fn flag_is_shared() {
        let a = flag();
        let b = flag();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
