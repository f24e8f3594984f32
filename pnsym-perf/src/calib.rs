//! The host's speed, measured by a frozen reference workload.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed moves by
//! a third between stretches of seconds to minutes, and some stretches last
//! a whole run. No statistic inside a run removes a slowdown that covers the
//! run, but a workload that never changes, timed next to each op, sees the
//! same slowdown. A probe times one build of the 6-queens BDD with a small
//! BDD package of its own, written here once and not shared with the
//! crates it measures: the same kind of work as the kernel under test
//! (hash-consing, a 1 MB computed cache, recursive apply, fresh allocations
//! every time), so a host that slows the kernel slows it alike.
//!
//! Each op's time is divided by the probe times around it and multiplied
//! by [`REFERENCE_PROBE_MS`]: the result is the op's time on a host whose
//! probe takes exactly that long. A change to the measured crates moves the
//! ops and not the probe, so it moves the normalised times in full.

use std::time::Instant;

/// The probe time the normalised times are expressed against: about the
/// fastest a probe ran on the 2-vCPU x86-64 KVM guest described in
/// `README.md` (1.8-2.9 ms there, depending on the host's load).
pub const REFERENCE_PROBE_MS: f64 = 2.0;

/// Board size of the probe's n-queens BDD.
const QUEENS: u32 = 6;

const FALSE: u32 = 0;
const TRUE: u32 = 1;
const LEAF_VAR: u32 = u32::MAX;
const EMPTY: u32 = u32::MAX;

/// A reduced ordered BDD package without complement edges or garbage
/// collection: nodes live until the package is dropped.
struct MiniBdd {
    /// `(var, low, high)`; nodes 0 and 1 are the constants.
    nodes: Vec<(u32, u32, u32)>,
    /// Open addressing over node indices, `EMPTY` when free.
    unique: Vec<u32>,
    /// Direct-mapped computed cache of `(op, f, g) -> result`.
    cache: Vec<(u32, u32, u32, u32)>,
}

fn mix(a: u32, b: u32, c: u32) -> u64 {
    let x = (a as u64) << 42 ^ (b as u64) << 21 ^ c as u64;
    let x = (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

impl MiniBdd {
    fn new() -> MiniBdd {
        MiniBdd {
            nodes: vec![(LEAF_VAR, FALSE, FALSE), (LEAF_VAR, TRUE, TRUE)],
            unique: vec![EMPTY; 1 << 12],
            cache: vec![(EMPTY, 0, 0, 0); 1 << 16],
        }
    }

    fn var(&self, f: u32) -> u32 {
        self.nodes[f as usize].0
    }

    fn mk(&mut self, var: u32, low: u32, high: u32) -> u32 {
        if low == high {
            return low;
        }
        let mask = self.unique.len() - 1;
        let mut slot = mix(var, low, high) as usize & mask;
        loop {
            let at = self.unique[slot];
            if at == EMPTY {
                break;
            }
            if self.nodes[at as usize] == (var, low, high) {
                return at;
            }
            slot = (slot + 1) & mask;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push((var, low, high));
        self.unique[slot] = id;
        if self.nodes.len() * 2 > self.unique.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let size = self.unique.len() * 2;
        let mut unique = vec![EMPTY; size];
        for (id, &(var, low, high)) in self.nodes.iter().enumerate().skip(2) {
            let mut slot = mix(var, low, high) as usize & (size - 1);
            while unique[slot] != EMPTY {
                slot = (slot + 1) & (size - 1);
            }
            unique[slot] = id as u32;
        }
        self.unique = unique;
    }

    /// `f AND g` (`or == false`) or `f OR g` (`or == true`).
    fn apply(&mut self, or: bool, f: u32, g: u32) -> u32 {
        let (absorbing, neutral) = if or { (TRUE, FALSE) } else { (FALSE, TRUE) };
        if f == absorbing || g == absorbing {
            return absorbing;
        }
        if f == neutral || f == g {
            return g;
        }
        if g == neutral {
            return f;
        }
        let (f, g) = if f < g { (f, g) } else { (g, f) };
        let op = or as u32;
        let slot = mix(op, f, g) as usize & (self.cache.len() - 1);
        let entry = self.cache[slot];
        if entry.0 == op && entry.1 == f && entry.2 == g {
            return entry.3;
        }
        let var = self.var(f).min(self.var(g));
        let cofactors = |bdd: &MiniBdd, h: u32| {
            let (v, low, high) = bdd.nodes[h as usize];
            if v == var {
                (low, high)
            } else {
                (h, h)
            }
        };
        let (f0, f1) = cofactors(self, f);
        let (g0, g1) = cofactors(self, g);
        let low = self.apply(or, f0, g0);
        let high = self.apply(or, f1, g1);
        let result = self.mk(var, low, high);
        self.cache[slot] = (op, f, g, result);
        result
    }

    fn literal(&mut self, var: u32, positive: bool) -> u32 {
        if positive {
            self.mk(var, FALSE, TRUE)
        } else {
            self.mk(var, TRUE, FALSE)
        }
    }

    /// Number of satisfying assignments over `vars` variables.
    fn count(&self, f: u32, vars: u32) -> u64 {
        fn go(bdd: &MiniBdd, f: u32, memo: &mut Vec<Option<u64>>, vars: u32) -> (u64, u32) {
            let (var, low, high) = bdd.nodes[f as usize];
            if var == LEAF_VAR {
                return (f as u64, vars);
            }
            if let Some(c) = memo[f as usize] {
                return (c, var);
            }
            let (cl, vl) = go(bdd, low, memo, vars);
            let (ch, vh) = go(bdd, high, memo, vars);
            let c = (cl << (vl - var - 1)) + (ch << (vh - var - 1));
            memo[f as usize] = Some(c);
            (c, var)
        }
        let mut memo = vec![None; self.nodes.len()];
        let (c, var) = go(self, f, &mut memo, vars);
        c << var.min(vars)
    }
}

/// Builds the n-queens constraint BDD and returns its solution count.
fn queens(n: u32) -> u64 {
    let mut bdd = MiniBdd::new();
    let square = |r: u32, c: u32| r * n + c;
    let mut all = TRUE;
    for r in 0..n {
        let mut row = FALSE;
        for c in 0..n {
            let x = bdd.literal(square(r, c), true);
            row = bdd.apply(true, row, x);
        }
        all = bdd.apply(false, all, row);
    }
    for r in 0..n {
        for c in 0..n {
            for r2 in r..n {
                for c2 in 0..n {
                    let later = (r2, c2) > (r, c);
                    let attacks = r2 == r || c2 == c || r2 - r == c.abs_diff(c2);
                    if later && attacks {
                        let a = bdd.literal(square(r, c), false);
                        let b = bdd.literal(square(r2, c2), false);
                        let clause = bdd.apply(true, a, b);
                        all = bdd.apply(false, all, clause);
                    }
                }
            }
        }
    }
    bdd.count(all, n * n)
}

/// Solutions of the n-queens problem for the probe's board.
const QUEENS_SOLUTIONS: u64 = 4;

/// Probes of the host's speed, taken between the timings they scale.
#[derive(Debug)]
pub struct Calibrator {
    /// Probes per probe point; the point's time is their median.
    burst: usize,
    /// The latest probe point's time, ms.
    last_ms: f64,
    /// Every probe time of the run, in ms.
    pub probes_ms: Vec<f64>,
}

impl Calibrator {
    /// A calibrator whose probe points each take `burst` probes, after a
    /// first point that warms up the allocator.
    pub fn new(burst: usize) -> Calibrator {
        let mut calibrator = Calibrator {
            burst: burst.max(1),
            last_ms: 0.0,
            probes_ms: Vec::new(),
        };
        calibrator.mark();
        calibrator.mark();
        calibrator
    }

    fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let solutions = std::hint::black_box(queens(std::hint::black_box(QUEENS)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(solutions, QUEENS_SOLUTIONS, "calibration probe is wrong");
        self.probes_ms.push(ms);
        ms
    }

    /// Takes a probe point. One right before a timing keeps whatever ran
    /// since the previous point out of the timing's factor.
    pub fn mark(&mut self) {
        let probes: Vec<f64> = (0..self.burst).map(|_| self.probe()).collect();
        self.last_ms = crate::util::median(&probes);
    }

    /// Takes a probe point and returns the factor that takes a time
    /// measured since the previous point to the reference speed: the
    /// reference probe time over the mean of the points on either side.
    pub fn factor(&mut self) -> f64 {
        let before = self.last_ms;
        self.mark();
        2.0 * REFERENCE_PROBE_MS / (before + self.last_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queens_counts_are_known() {
        assert_eq!(queens(4), 2);
        assert_eq!(queens(5), 10);
        assert_eq!(queens(QUEENS), QUEENS_SOLUTIONS);
        assert_eq!(queens(7), 40);
    }
}
