//! Zero-dependency graceful-shutdown signals.
//!
//! `std` exposes no way to install a signal handler, and the workspace
//! links no external crates, so this module declares the two POSIX
//! functions it needs (`signal` and `raise`, both part of the C
//! standard library every Rust binary already links) and keeps the
//! handler itself down to the only thing that is async-signal-safe in
//! Rust: a relaxed atomic store.
//!
//! The long-running `repro` binary calls [`install_shutdown_handlers`]
//! once at startup and polls [`shutdown_requested`] between
//! experiments. The first SIGTERM or SIGINT therefore never kills the
//! process mid-write: the binary finishes its current experiment,
//! flushes telemetry and journals, and exits 0.
//!
//! [`request_shutdown`] sets the same flag programmatically, so drain
//! paths are testable in-process without delivering real signals.

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
        fn raise(signum: i32) -> i32;
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

    pub fn raise_self(signum: i32) {
        unsafe {
            raise(signum);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install(_signum: i32) {}
    pub fn raise_self(_signum: i32) {}
}

/// Installs the shutdown flag as the SIGTERM and SIGINT handler.
///
/// Idempotent. On non-Unix targets this is a no-op (the flag is still
/// usable via [`request_shutdown`]).
pub fn install_shutdown_handlers() {
    imp::install(SIGTERM);
    imp::install(SIGINT);
}

/// `true` once a shutdown signal arrived (or [`request_shutdown`] was
/// called). The flag latches; it is never cleared implicitly.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Sets the shutdown flag without a signal — the programmatic drain
/// trigger used by tests.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Clears the flag. Test-only in spirit: production binaries treat
/// shutdown as one-way.
pub fn reset_for_test() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

/// Delivers `signum` to the current process (`raise(3)`), for smoke
/// tests that exercise the real handler path. No-op on non-Unix.
pub fn raise_for_test(signum: i32) {
    imp::raise_self(signum);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole lifecycle: the flag is process-global
    // state, so splitting these into separate #[test]s would race under
    // the parallel test harness.
    #[test]
    fn flag_lifecycle_and_real_signal_delivery() {
        reset_for_test();
        assert!(!shutdown_requested());

        request_shutdown();
        assert!(shutdown_requested());
        // Latches.
        assert!(shutdown_requested());

        reset_for_test();
        assert!(!shutdown_requested());

        // Real delivery: install the handler, raise SIGTERM at
        // ourselves, observe the flag (and survive).
        #[cfg(unix)]
        {
            install_shutdown_handlers();
            raise_for_test(SIGTERM);
            assert!(shutdown_requested());
        }
        reset_for_test();
    }
}
