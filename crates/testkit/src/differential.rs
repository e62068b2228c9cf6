//! Cross-engine differential harness: byte-level comparison of several
//! engines' outputs for one shared input.
//!
//! The workspace's strongest correctness tool is redundancy: the same
//! (app, design pool, seed) input can be replayed through the scalar
//! oracle and the lock-step kernel (serial and sharded over workers),
//! and every [`Debug`]-rendered report must match **byte for byte**. This
//! module is the comparison layer those suites share: engines are
//! represented uniformly as an [`EngineRun`] (name + rendered outputs),
//! and a divergence is reported with the item index, the first differing
//! byte offset, and an aligned context window around it — enough to see
//! *which field* of a long report rendering went wrong without manual
//! diffing.
//!
//! ```
//! use moca_testkit::differential::{engines_agree, EngineRun};
//!
//! let reference = EngineRun::render("scalar", &[1 + 1, 2 + 2]);
//! let candidate = EngineRun::render("vectorized", &[2, 4]);
//! assert!(engines_agree("demo", &[reference, candidate]).is_ok());
//! ```

use std::fmt::Debug;

/// One engine's outputs for a shared input, rendered to comparable text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRun {
    /// Engine name, used in divergence reports.
    pub engine: String,
    /// One rendered output per item, in item order.
    pub outputs: Vec<String>,
}

impl EngineRun {
    /// Wraps already-rendered outputs.
    pub fn new(engine: impl Into<String>, outputs: Vec<String>) -> Self {
        Self {
            engine: engine.into(),
            outputs,
        }
    }

    /// Renders each output through its [`Debug`] implementation.
    ///
    /// `Debug` (rather than a bespoke serialization) is deliberate: it is
    /// the same rendering the workspace's determinism suites compare, so
    /// "the harness agrees" and "the suites agree" mean the same bytes.
    pub fn render<O: Debug>(engine: impl Into<String>, outputs: &[O]) -> Self {
        Self::new(engine, outputs.iter().map(|o| format!("{o:?}")).collect())
    }
}

/// Byte offset of the first difference (the shorter length if one string
/// is a prefix of the other).
fn first_divergence(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

/// A readable window of up to `2 * RADIUS` bytes around `at`, with the
/// cut edges marked. Splits on byte boundaries only — renderings under
/// comparison are ASCII `Debug` output.
fn context_window(s: &str, at: usize) -> String {
    const RADIUS: usize = 48;
    let start = at.saturating_sub(RADIUS);
    let end = (at + RADIUS).min(s.len());
    let head = if start > 0 { "…" } else { "" };
    let tail = if end < s.len() { "…" } else { "" };
    format!("{head}{}{tail}", &s[start..end])
}

/// Compares `candidate` against `reference` item by item.
///
/// # Errors
///
/// Returns a multi-line divergence report naming both engines, the item
/// index, the first differing byte offset, and aligned context windows.
/// A length mismatch (different item counts) is reported before any
/// content comparison.
pub fn diff_runs(reference: &EngineRun, candidate: &EngineRun) -> Result<(), String> {
    if reference.outputs.len() != candidate.outputs.len() {
        return Err(format!(
            "engine {:?} produced {} output(s), reference {:?} produced {}",
            candidate.engine,
            candidate.outputs.len(),
            reference.engine,
            reference.outputs.len(),
        ));
    }
    for (i, (want, got)) in reference.outputs.iter().zip(&candidate.outputs).enumerate() {
        if want != got {
            let at = first_divergence(want, got);
            return Err(format!(
                "engine {:?} diverges from {:?} at item {i}, byte {at}:\n  {}: {}\n  {}: {}",
                candidate.engine,
                reference.engine,
                reference.engine,
                context_window(want, at),
                candidate.engine,
                context_window(got, at),
            ));
        }
    }
    Ok(())
}

/// Checks that every run agrees byte-for-byte with the first (the
/// reference engine).
///
/// # Errors
///
/// Returns the first divergence report, prefixed with `context` (the
/// shared input's identity — app, seed, job count…), so the error is
/// usable directly from a property closure.
pub fn engines_agree(context: &str, runs: &[EngineRun]) -> Result<(), String> {
    let Some((reference, candidates)) = runs.split_first() else {
        return Ok(());
    };
    for candidate in candidates {
        diff_runs(reference, candidate).map_err(|e| format!("[{context}] {e}"))?;
    }
    Ok(())
}

/// Panicking form of [`engines_agree`] for use directly in `#[test]`
/// bodies.
///
/// # Panics
///
/// Panics with the divergence report when any engine disagrees with the
/// reference.
pub fn assert_engines_agree(context: &str, runs: &[EngineRun]) {
    if let Err(report) = engines_agree(context, runs) {
        panic!("cross-engine differential failure\n{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreeing_engines_pass() {
        let runs = [
            EngineRun::render("a", &[(1, "x"), (2, "y")]),
            EngineRun::render("b", &[(1, "x"), (2, "y")]),
            EngineRun::render("c", &[(1, "x"), (2, "y")]),
        ];
        assert_engines_agree("ctx", &runs);
    }

    #[test]
    fn divergence_names_item_byte_and_engines() {
        let reference = EngineRun::new("ref", vec!["aaaa".into(), "bbbb".into()]);
        let candidate = EngineRun::new("cand", vec!["aaaa".into(), "bbXb".into()]);
        let err = engines_agree("seed=7", &[reference, candidate]).unwrap_err();
        assert!(err.contains("seed=7"), "{err}");
        assert!(err.contains("item 1, byte 2"), "{err}");
        assert!(err.contains("\"cand\"") && err.contains("\"ref\""), "{err}");
    }

    #[test]
    fn length_mismatch_is_reported_first() {
        let reference = EngineRun::new("ref", vec!["a".into()]);
        let candidate = EngineRun::new("cand", vec![]);
        let err = diff_runs(&reference, &candidate).unwrap_err();
        assert!(err.contains("0 output(s)"), "{err}");
    }

    #[test]
    fn long_renderings_get_context_windows() {
        let long = "x".repeat(500);
        let mut other = long.clone();
        other.replace_range(250..251, "Y");
        let reference = EngineRun::new("ref", vec![long]);
        let candidate = EngineRun::new("cand", vec![other]);
        let err = diff_runs(&reference, &candidate).unwrap_err();
        assert!(err.contains("byte 250"), "{err}");
        // The windows are elided on both sides, not the full 500 bytes.
        assert!(err.contains('…'), "{err}");
        assert!(err.len() < 600, "report stays compact: {} bytes", err.len());
    }

    #[test]
    fn prefix_divergence_points_at_the_shorter_length() {
        assert_eq!(first_divergence("abc", "abcdef"), 3);
        assert_eq!(first_divergence("same", "same"), 4);
    }

    #[test]
    fn empty_run_set_is_vacuously_ok() {
        assert!(engines_agree("ctx", &[]).is_ok());
    }
}
