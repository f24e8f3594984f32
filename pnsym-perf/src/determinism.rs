//! Deterministic-counter self-check.
//!
//! Every op yields a fingerprint of its work counters (kernel cache
//! traffic, iterations, peak nodes, pool outcomes). Within a run each pass
//! must reproduce the first pass's fingerprint; across runs of one build
//! (and, for seed-dependent inputs, one seed) the fingerprints are kept in
//! the work directory and must repeat exactly. A mismatch is a failure.

use crate::util::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Default)]
pub struct Fingerprints {
    first: BTreeMap<String, String>,
}

impl Fingerprints {
    /// Records `print` for `op`, failing the run when an earlier pass
    /// recorded a different one.
    pub fn check(&mut self, op: &str, print: String, out: &mut Outcome) {
        match self.first.get(op) {
            Some(first) if *first != print => {
                out.fail(format!("nondeterministic counters between passes: {op}"));
                eprintln!("{op}\n  first {first}\n  now   {print}");
            }
            Some(_) => {}
            None => {
                self.first.insert(op.to_string(), print);
            }
        }
    }

    /// Compares against the fingerprints an earlier run of this build
    /// stored under `key`, or stores them when there are none.
    pub fn check_across_runs(&self, key: &str, out: &mut Outcome) {
        let Some(path) = store_path(key) else {
            return;
        };
        let current: String = self
            .first
            .iter()
            .map(|(op, print)| format!("{op}\t{print}\n"))
            .collect();
        match std::fs::read_to_string(&path) {
            Ok(stored) => {
                let stored: BTreeMap<&str, &str> =
                    stored.lines().filter_map(|l| l.split_once('\t')).collect();
                for (op, print) in &self.first {
                    if stored.get(op.as_str()).is_some_and(|s| s != print) {
                        out.fail(format!("counters differ from an earlier run: {op}"));
                    }
                }
            }
            Err(_) => {
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let _ = std::fs::write(&path, current);
            }
        }
    }
}

/// `work/fingerprints/<key>-<build id>.txt` next to the benchmark's own
/// sources; the build id is the executable's modification time, so a
/// rebuilt program never compares against a stale file.
fn store_path(key: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let modified = exe.metadata().ok()?.modified().ok()?;
    let stamp = modified
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    Some(
        crate::work_dir()
            .join("fingerprints")
            .join(format!("{key}-{stamp}.txt")),
    )
}
