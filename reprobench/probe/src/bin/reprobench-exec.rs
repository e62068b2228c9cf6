//! `reprobench-exec` — runs one command and reports its resource usage.
//!
//! ```text
//! reprobench-exec <report> <program> [args...]
//! ```
//!
//! Starts `program` with the inherited standard streams, waits for it,
//! and writes `<wait status> <user µs> <system µs> <peak RSS KiB>` to the
//! file `report`. Exits 0 once the report is written.
//!
//! A parent's peak resident set is folded into its child's at `exec`
//! (Linux keeps the larger of the two in the child's `ru_maxrss`), so a
//! child started straight from the benchmark's Python client would
//! report at least the client's size. Started from this small process,
//! the child's figure is its own.

use std::fs;
use std::process::{Command, ExitCode};

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

fn micros(tv: [i64; 2]) -> i64 {
    tv[0] * 1_000_000 + tv[1]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: reprobench-exec <report> <program> [args...]");
        return ExitCode::from(2);
    }
    let child = match Command::new(&args[1]).args(&args[2..]).spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("reprobench-exec: cannot start {}: {e}", args[1]);
            return ExitCode::FAILURE;
        }
    };
    let mut status = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are valid for writes and `usage`
        // has the layout of the platform's `struct rusage`.
        let got = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if got == child.id() as i32 {
            break;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            eprintln!("reprobench-exec: wait4 failed: {}", std::io::Error::last_os_error());
            return ExitCode::FAILURE;
        }
    }
    let report = format!(
        "{} {} {} {}\n",
        status,
        micros(usage.utime),
        micros(usage.stime),
        usage.maxrss
    );
    match fs::write(&args[0], report) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reprobench-exec: cannot write {}: {e}", args[0]);
            ExitCode::FAILURE
        }
    }
}
