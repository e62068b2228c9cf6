//! Zero-dependency graceful-shutdown signals.
//!
//! `std` exposes no way to install a signal handler, and the workspace
//! links no external crates, so this module declares the POSIX
//! function it needs (`signal`, part of the C standard library every
//! Rust binary already links) and keeps the handler itself down to the
//! only thing that is async-signal-safe in Rust: a relaxed atomic
//! store.
//!
//! The long-running `repro` binary calls [`install_shutdown_handlers`]
//! once at startup and polls [`shutdown_requested`] between
//! experiments. The first SIGTERM or SIGINT therefore never kills the
//! process mid-write: the binary finishes its current experiment,
//! flushes telemetry and journals, and exits 0.

use std::sync::atomic::{AtomicBool, Ordering};

/// POSIX signal number for SIGINT (Ctrl-C).
pub const SIGINT: i32 = 2;
/// POSIX signal number for SIGTERM (polite kill).
pub const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    extern "C" {
        /// C89 `signal(2)`: good enough here — the handler only stores
        /// a flag, so the BSD-vs-SysV restart semantics don't matter.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The installed handler: an atomic store is the only Rust
    /// operation that is unconditionally async-signal-safe.
    extern "C" fn flag_shutdown(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    pub fn install(signum: i32) {
        unsafe {
            signal(signum, flag_shutdown as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install(_signum: i32) {}
}

/// Installs the shutdown flag as the SIGTERM and SIGINT handler.
///
/// Idempotent. On non-Unix targets this is a no-op.
pub fn install_shutdown_handlers() {
    imp::install(SIGTERM);
    imp::install(SIGINT);
}

/// `true` once a shutdown signal arrived. The flag latches; it is never
/// cleared implicitly.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_flag(on: bool) {
        SHUTDOWN.store(on, Ordering::Relaxed);
    }

    // One test exercises the whole lifecycle: the flag is process-global
    // state, so splitting these into separate #[test]s would race under
    // the parallel test harness.
    #[test]
    fn flag_lifecycle_and_real_signal_delivery() {
        set_flag(false);
        assert!(!shutdown_requested());

        set_flag(true);
        assert!(shutdown_requested());
        // Latches.
        assert!(shutdown_requested());

        set_flag(false);
        assert!(!shutdown_requested());

        // Real delivery: install the handler, raise SIGTERM at
        // ourselves, observe the flag (and survive).
        #[cfg(unix)]
        {
            extern "C" {
                fn raise(signum: i32) -> i32;
            }
            install_shutdown_handlers();
            // SAFETY: `raise` takes no pointers, and the SIGTERM handler
            // installed above only stores an atomic flag.
            unsafe {
                raise(SIGTERM);
            }
            assert!(shutdown_requested());
        }
        set_flag(false);
    }
}
