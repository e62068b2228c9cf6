//! `reprobench-calib` — a fixed reference workload that measures how
//! fast the host runs right now.
//!
//! ```text
//! reprobench-calib <refs>
//! ```
//!
//! Reads standard input line by line. For every line it runs one slice
//! of the kernel and prints `<ns> <l1 hits> <l2 hits>`: the slice's wall
//! time in nanoseconds and its hit counts, which are the same for every
//! slice of a given `refs`. It exits at the end of its input.
//!
//! A slice generates `refs` pseudo-random references (a hot set, a warm
//! set and a streaming tail) chunk by chunk and filters each chunk
//! through a 32 KiB 4-way L1 and a 16 MiB 16-way L2 tag array, both LRU:
//! the generate-then-filter loop `repro` spends its time in, over 4 MiB
//! of cache state, more than a host core's own L2. Every slice starts
//! from the same state, so every slice does the same work. The kernel
//! uses no workspace crate, so no change to the simulator changes its
//! cost.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Instant;

const LINE_BITS: u32 = 6;

/// References generated per chunk.
const CHUNK: usize = 8192;

struct Cache {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
}

impl Cache {
    fn new(bytes: usize, ways: usize) -> Cache {
        let sets = (bytes >> LINE_BITS) / ways;
        Cache {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
    }

    /// Looks up `line`, filling it over the least recently used way on a
    /// miss. Returns whether it hit.
    fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let base = (line as usize % self.sets) * self.ways;
        let mut victim = base;
        for slot in base..base + self.ways {
            if self.tags[slot] == line {
                self.stamps[slot] = self.clock;
                return true;
            }
            if self.stamps[slot] < self.stamps[victim] {
                victim = slot;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }
}

/// A deterministic reference stream.
struct Stream {
    state: u64,
    tail: u64,
}

impl Stream {
    fn new() -> Stream {
        Stream {
            state: 0x5eed_2015,
            tail: 0,
        }
    }

    /// The next referenced line.
    fn next_line(&mut self) -> u64 {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let addr = match r % 8 {
            // Hot set: 24 KiB.
            0..=4 => (r >> 8) % (24 << 10),
            // Warm set: 1 MiB.
            5 | 6 => (1 << 30) + (r >> 8) % (1 << 20),
            // Streaming tail.
            _ => {
                self.tail += 64;
                (2 << 30) + self.tail
            }
        };
        addr >> LINE_BITS
    }
}

struct Kernel {
    refs: usize,
    l1: Cache,
    l2: Cache,
    chunk: Vec<u64>,
}

impl Kernel {
    /// Runs one slice from the initial state; returns the hit counts.
    fn slice(&mut self) -> (u64, u64) {
        self.l1.reset();
        self.l2.reset();
        let mut stream = Stream::new();
        let mut hits = (0, 0);
        let mut left = self.refs;
        while left > 0 {
            let n = left.min(CHUNK);
            self.chunk.clear();
            self.chunk.extend((0..n).map(|_| stream.next_line()));
            for &line in &self.chunk {
                if self.l1.access(line) {
                    hits.0 += 1;
                } else if self.l2.access(line) {
                    hits.1 += 1;
                }
            }
            left -= n;
        }
        hits
    }
}

fn main() -> ExitCode {
    let refs: usize = match std::env::args().nth(1).and_then(|a| a.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("usage: reprobench-calib <refs>  (one slice per input line)");
            return ExitCode::from(2);
        }
    };
    let mut kernel = Kernel {
        refs,
        l1: Cache::new(32 << 10, 4),
        l2: Cache::new(16 << 20, 16),
        chunk: Vec::with_capacity(CHUNK),
    };
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        if line.is_err() {
            return ExitCode::FAILURE;
        }
        let start = Instant::now();
        let (l1_hits, l2_hits) = kernel.slice();
        let ns = start.elapsed().as_nanos();
        if writeln!(out, "{ns} {l1_hits} {l2_hits}").and_then(|_| out.flush()).is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
