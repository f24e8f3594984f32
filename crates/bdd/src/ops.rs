//! Boolean operations on BDDs: the Shannon-expansion `apply` family,
//! if-then-else, quantification, the relational product and variable
//! renaming — all over complement edges.
//!
//! Under complement edges negation is a bit flip (no recursion, no cache,
//! no allocation), so the derived operations collapse: `or` is De Morgan
//! over `and` (`f ∨ g = ¬(¬f ∧ ¬g)`) and *shares its cache entries with
//! `and`*, `diff` is `f ∧ ¬g` at the cost of one flip, and `forall` wraps
//! `exists`. Every cache key is complement-normalised (standard-triple
//! canonicalisation): `xor` strips the operand complement bits into an
//! output parity, `ite` rotates its triple so the predicate and the then
//! branch are regular, and `constrain` factors the complement of its first
//! operand out of the key. As a result `f ∧ g`, `¬(¬f ∨ ¬g)`,
//! `¬f ∨ ¬g` … all hit one cache line.
//!
//! Every memoised recursion exists in two forms: a fallible `try_*` entry
//! point returning `Result<Ref, Interrupt>` that checks the manager's
//! installed [`Budget`](crate::Budget) cooperatively (one amortized
//! [`BddManager::checkpoint`] per cache miss — the cache-hit fast path pays
//! nothing), and the classic infallible wrapper that panics if a governed
//! manager breaches mid-operation. An interrupted recursion unwinds with
//! `?` after completing every node it interned and every cache entry it
//! wrote, so the manager stays fully consistent: unique tables canonical,
//! cache valid, GC still legal, and the same operation can be re-run to
//! completion once the budget is removed.

use crate::budget::Interrupt;
use crate::manager::{BddManager, Op, Ref, VarId, ONE, TERMINAL_LEVEL, ZERO};
use std::collections::HashMap;

/// Panic message of the infallible wrappers; only reachable when a budget
/// is installed *and* breached, i.e. when a governed caller used the wrong
/// entry point.
const UNGOVERNED: &str =
    "budget breached inside an infallible BDD operation; governed callers must use the try_* API";

impl BddManager {
    /// Logical negation `¬f`: an O(1) complement-bit flip. Allocates
    /// nothing, touches no cache, cannot be interrupted.
    pub fn not(&mut self, f: Ref) -> Ref {
        Ref(f.0 ^ 1)
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_and(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::and`].
    pub fn try_and(&mut self, f: Ref, g: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.and_rec(f.0, g.0)?))
    }

    fn and_rec(&mut self, f: u32, g: u32) -> Result<u32, Interrupt> {
        // Terminal cases.
        if f == g {
            return Ok(f);
        }
        if f ^ g == 1 {
            // f ∧ ¬f
            return Ok(ZERO);
        }
        if f == ZERO || g == ZERO {
            return Ok(ZERO);
        }
        if f == ONE {
            return Ok(g);
        }
        if g == ONE {
            return Ok(f);
        }
        let (a, b) = if f < g { (f, g) } else { (g, f) };
        let key = (Op::And, a, b, 0);
        if let Some(r) = self.cache_get(key) {
            return Ok(r);
        }
        self.checkpoint()?;
        let (level, fl, fh, gl, gh) = self.cofactor_pair(f, g);
        let low = self.and_rec(fl, gl)?;
        let high = self.and_rec(fh, gh)?;
        let r = self.mk(level, low, high);
        self.cache_put(key, r);
        Ok(r)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_or(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::or`]: De Morgan over `and` — with complement
    /// edges the three negations are free bit flips, so the disjunction
    /// shares the conjunction's computed-cache entries instead of carrying
    /// a dedicated recursion and cache op slot.
    pub fn try_or(&mut self, f: Ref, g: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.and_rec(f.0 ^ 1, g.0 ^ 1)? ^ 1))
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_xor(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::xor`].
    pub fn try_xor(&mut self, f: Ref, g: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.xor_rec(f.0, g.0)?))
    }

    fn xor_rec(&mut self, f: u32, g: u32) -> Result<u32, Interrupt> {
        // Complement-normalise: ¬f ⊕ g = f ⊕ ¬g = ¬(f ⊕ g), so both operand
        // complement bits fold into one output parity and the cache key is
        // over regular edges only.
        let parity = (f ^ g) & 1;
        let (f, g) = (f & !1, g & !1);
        if f == g {
            return Ok(ZERO ^ parity);
        }
        if f == ONE {
            return Ok(g ^ 1 ^ parity);
        }
        if g == ONE {
            return Ok(f ^ 1 ^ parity);
        }
        let (a, b) = if f < g { (f, g) } else { (g, f) };
        let key = (Op::Xor, a, b, 0);
        if let Some(r) = self.cache_get(key) {
            return Ok(r ^ parity);
        }
        self.checkpoint()?;
        let (level, fl, fh, gl, gh) = self.cofactor_pair(f, g);
        let low = self.xor_rec(fl, gl)?;
        let high = self.xor_rec(fh, gh)?;
        let r = self.mk(level, low, high);
        self.cache_put(key, r);
        Ok(r ^ parity)
    }

    /// Equivalence `f ≡ g` (XNOR).
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_iff(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::iff`]: `¬(f ⊕ g)` with a free negation.
    pub fn try_iff(&mut self, f: Ref, g: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.xor_rec(f.0, g.0)? ^ 1))
    }

    /// Implication `f ⇒ g`, i.e. `¬(f ∧ ¬g)`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        let conj = self.and(f, Ref(g.0 ^ 1));
        Ref(conj.0 ^ 1)
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: Ref, g: Ref) -> Ref {
        self.try_diff(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::diff`]: one free flip plus a conjunction
    /// (shares the `and` cache entries).
    pub fn try_diff(&mut self, f: Ref, g: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.and_rec(f.0, g.0 ^ 1)?))
    }

    /// If-then-else `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        self.try_ite(f, g, h).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::ite`].
    pub fn try_ite(&mut self, f: Ref, g: Ref, h: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.ite_rec(f.0, g.0, h.0)?))
    }

    fn ite_rec(&mut self, mut f: u32, mut g: u32, mut h: u32) -> Result<u32, Interrupt> {
        if f == ONE {
            return Ok(g);
        }
        if f == ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g ^ h == 1 {
            // ite(f, g, ¬g) = f ≡ g
            return self.xor_rec(f, g ^ 1);
        }
        // Operand-equality collapses (f is non-constant here).
        if f == g {
            // ite(f, f, h) = f ∨ h
            return Ok(self.and_rec(f ^ 1, h ^ 1)? ^ 1);
        }
        if f ^ h == 1 {
            // ite(f, g, ¬f) = ¬f ∨ g
            return Ok(self.and_rec(f, g ^ 1)? ^ 1);
        }
        if f ^ g == 1 {
            // ite(f, ¬f, h) = ¬f ∧ h
            return self.and_rec(f ^ 1, h);
        }
        if f == h {
            // ite(f, g, f) = f ∧ g
            return self.and_rec(f, g);
        }
        // Constant-branch collapses: delegate to `and`, sharing its cache.
        if g == ONE {
            return Ok(self.and_rec(f ^ 1, h ^ 1)? ^ 1); // f + h
        }
        if g == ZERO {
            return self.and_rec(f ^ 1, h); // ¬f ∧ h
        }
        if h == ZERO {
            return self.and_rec(f, g); // f ∧ g
        }
        if h == ONE {
            return Ok(self.and_rec(f, g ^ 1)? ^ 1); // ¬f + g = f ⇒ g
        }
        // Standard-triple canonicalisation: make the predicate regular
        // (ite(¬f, g, h) = ite(f, h, g)), then make the then-branch regular
        // by factoring the complement into the output
        // (ite(f, ¬g, ¬h) = ¬ite(f, g, h)).
        if f & 1 == 1 {
            f ^= 1;
            std::mem::swap(&mut g, &mut h);
        }
        let out = g & 1;
        g ^= out;
        h ^= out;
        let key = (Op::Ite, f, g, h);
        if let Some(r) = self.cache_get(key) {
            return Ok(r ^ out);
        }
        self.checkpoint()?;
        let lf = self.level(f);
        let lg = self.level(g);
        let lh = self.level(h);
        let level = lf.min(lg).min(lh);
        let (fl, fh) = self.cofactors_at(f, level);
        let (gl, gh) = self.cofactors_at(g, level);
        let (hl, hh) = self.cofactors_at(h, level);
        let low = self.ite_rec(fl, gl, hl)?;
        let high = self.ite_rec(fh, gh, hh)?;
        let r = self.mk(level, low, high);
        self.cache_put(key, r);
        Ok(r ^ out)
    }

    /// Conjunction of many operands (`TRUE` for an empty slice).
    pub fn and_many(&mut self, fs: &[Ref]) -> Ref {
        self.try_and_many(fs).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::and_many`].
    pub fn try_and_many(&mut self, fs: &[Ref]) -> Result<Ref, Interrupt> {
        let mut acc = self.one();
        for &f in fs {
            acc = self.try_and(acc, f)?;
            if acc == self.zero() {
                break;
            }
        }
        Ok(acc)
    }

    /// Disjunction of many operands (`FALSE` for an empty slice).
    pub fn or_many(&mut self, fs: &[Ref]) -> Ref {
        self.try_or_many(fs).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::or_many`].
    pub fn try_or_many(&mut self, fs: &[Ref]) -> Result<Ref, Interrupt> {
        let mut acc = self.zero();
        for &f in fs {
            acc = self.try_or(acc, f)?;
            if acc == self.one() {
                break;
            }
        }
        Ok(acc)
    }

    /// The conjunction of literals described by `lits`
    /// (a *cube*; `TRUE` for an empty slice).
    pub fn cube(&mut self, lits: &[(VarId, bool)]) -> Ref {
        let mut acc = self.one();
        // Build bottom-up for linear-size construction: sort by level, deepest first.
        let mut sorted: Vec<(u32, bool)> = lits
            .iter()
            .map(|&(v, sign)| (self.level_of(v), sign))
            .collect();
        sorted.sort_unstable_by_key(|&(level, _)| std::cmp::Reverse(level));
        for (level, sign) in sorted {
            // mk's then-edge normalisation handles the polarity: a negative
            // literal's node is shared with the positive one.
            let idx = if sign {
                self.mk(level, ZERO, acc.0)
            } else {
                self.mk(level, acc.0, ZERO)
            };
            acc = Ref(idx);
        }
        acc
    }

    /// Positive cube over a set of variables (used as a quantification set).
    pub fn var_cube(&mut self, vars: &[VarId]) -> Ref {
        let lits: Vec<(VarId, bool)> = vars.iter().map(|&v| (v, true)).collect();
        self.cube(&lits)
    }

    /// Existential quantification `∃ vars. f`.
    pub fn exists(&mut self, f: Ref, vars: &[VarId]) -> Ref {
        self.try_exists(f, vars).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::exists`].
    pub fn try_exists(&mut self, f: Ref, vars: &[VarId]) -> Result<Ref, Interrupt> {
        if vars.is_empty() {
            return Ok(f);
        }
        let cube = self.var_cube(vars);
        self.try_exists_cube(f, cube)
    }

    /// Existential quantification where the variable set is given as a
    /// positive cube (see [`BddManager::var_cube`]).
    pub fn exists_cube(&mut self, f: Ref, cube: Ref) -> Ref {
        self.try_exists_cube(f, cube).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::exists_cube`].
    pub fn try_exists_cube(&mut self, f: Ref, cube: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.exists_rec(f.0, cube.0)?))
    }

    /// Next variable of a positive quantification cube (the cube's
    /// then-cofactor).
    #[inline]
    fn cube_next(&self, c: u32) -> u32 {
        self.nodes[(c >> 1) as usize].high ^ (c & 1)
    }

    fn exists_rec(&mut self, f: u32, cube: u32) -> Result<u32, Interrupt> {
        if f <= 1 || cube == ONE {
            return Ok(f);
        }
        // Existential quantification does NOT commute with complement
        // (∃x.¬f ≠ ¬∃x.f), so the operand keeps its complement bit in the
        // cache key.
        let key = (Op::Exists, f, cube, 0);
        if let Some(r) = self.cache_get(key) {
            return Ok(r);
        }
        self.checkpoint()?;
        let fl = self.level(f);
        // Skip cube variables above the root of f.
        let mut c = cube;
        while self.level(c) < fl {
            c = self.cube_next(c);
        }
        if c == ONE {
            self.cache_put(key, f);
            return Ok(f);
        }
        let cl = self.level(c);
        let cf = f & 1;
        let n = self.node(f);
        let r = if fl == cl {
            let next_cube = self.cube_next(c);
            let low = self.exists_rec(n.low ^ cf, next_cube)?;
            if low == ONE {
                ONE
            } else {
                let high = self.exists_rec(n.high ^ cf, next_cube)?;
                self.or_idx(low, high)?
            }
        } else {
            // fl < cl: keep the variable.
            let low = self.exists_rec(n.low ^ cf, c)?;
            let high = self.exists_rec(n.high ^ cf, c)?;
            self.mk(fl, low, high)
        };
        self.cache_put(key, r);
        Ok(r)
    }

    /// Universal quantification `∀ vars. f = ¬∃ vars. ¬f` (both negations
    /// are free bit flips).
    pub fn forall(&mut self, f: Ref, vars: &[VarId]) -> Ref {
        if vars.is_empty() {
            return f;
        }
        let e = self.exists(Ref(f.0 ^ 1), vars);
        Ref(e.0 ^ 1)
    }

    /// The relational product `∃ vars. (f ∧ g)` computed in one pass, the
    /// workhorse of symbolic image computation.
    pub fn and_exists(&mut self, f: Ref, g: Ref, vars: &[VarId]) -> Ref {
        let cube = self.var_cube(vars);
        self.and_exists_cube(f, g, cube)
    }

    /// [`BddManager::and_exists`] with the quantification set given as a cube.
    pub fn and_exists_cube(&mut self, f: Ref, g: Ref, cube: Ref) -> Ref {
        self.try_and_exists_cube(f, g, cube).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::and_exists_cube`].
    pub fn try_and_exists_cube(&mut self, f: Ref, g: Ref, cube: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.and_exists_rec(f.0, g.0, cube.0)?))
    }

    fn and_exists_rec(&mut self, f: u32, g: u32, cube: u32) -> Result<u32, Interrupt> {
        if f == ZERO || g == ZERO || f ^ g == 1 {
            return Ok(ZERO);
        }
        if cube == ONE {
            return self.and_rec(f, g);
        }
        // The conjunction collapsed to a single operand: fall through to the
        // plain quantifier, whose cache entries are shared with stand-alone
        // `exists` calls on the same operand.
        if f == g || g == ONE {
            return self.exists_rec(f, cube);
        }
        if f == ONE {
            return self.exists_rec(g, cube);
        }
        let (a, b) = if f < g { (f, g) } else { (g, f) };
        let key = (Op::AndExists, a, b, cube);
        if let Some(r) = self.cache_get(key) {
            return Ok(r);
        }
        self.checkpoint()?;
        let lf = self.level(f);
        let lg = self.level(g);
        let level = lf.min(lg);
        // Skip cube variables above the top of both operands.
        let mut c = cube;
        while self.level(c) < level {
            c = self.cube_next(c);
        }
        if c == ONE {
            let r = self.and_rec(f, g)?;
            self.cache_put(key, r);
            return Ok(r);
        }
        let cl = self.level(c);
        let (fl_, fh_) = self.cofactors_at(f, level);
        let (gl_, gh_) = self.cofactors_at(g, level);
        let r = if level == cl {
            let next_cube = self.cube_next(c);
            let low = self.and_exists_rec(fl_, gl_, next_cube)?;
            if low == ONE {
                ONE
            } else {
                let high = self.and_exists_rec(fh_, gh_, next_cube)?;
                self.or_idx(low, high)?
            }
        } else {
            let low = self.and_exists_rec(fl_, gl_, c)?;
            let high = self.and_exists_rec(fh_, gh_, c)?;
            self.mk(level, low, high)
        };
        self.cache_put(key, r);
        Ok(r)
    }

    /// Cofactor (restriction) of `f` with variable `v` fixed to `value`.
    pub fn restrict(&mut self, f: Ref, v: VarId, value: bool) -> Ref {
        let level = self.level_of(v);
        let mut memo = HashMap::new();
        Ref(self.restrict_rec(f.0, level, value, &mut memo))
    }

    fn restrict_rec(
        &mut self,
        f: u32,
        level: u32,
        value: bool,
        memo: &mut HashMap<u32, u32>,
    ) -> u32 {
        let fl = self.level(f);
        if fl > level || fl == TERMINAL_LEVEL {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let cf = f & 1;
        let n = self.node(f);
        let r = if fl == level {
            if value {
                n.high ^ cf
            } else {
                n.low ^ cf
            }
        } else {
            let low = self.restrict_rec(n.low ^ cf, level, value, memo);
            let high = self.restrict_rec(n.high ^ cf, level, value, memo);
            self.mk(fl, low, high)
        };
        memo.insert(f, r);
        r
    }

    /// Simultaneously fixes several variables to constants.
    pub fn restrict_many(&mut self, f: Ref, assignment: &[(VarId, bool)]) -> Ref {
        let mut acc = f;
        for &(v, value) in assignment {
            acc = self.restrict(acc, v, value);
        }
        acc
    }

    /// Renames variables of `f` according to `map` (pairs `(from, to)`).
    ///
    /// The mapping must be *order-compatible*: the relative order (by level)
    /// of the `to` variables must match the relative order of the `from`
    /// variables, and no `to` variable may cross an unmapped variable in the
    /// support of `f`. This holds in particular for the interleaved
    /// current/next-state orders used by symbolic reachability.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the produced diagram would violate the
    /// variable order.
    pub fn rename(&mut self, f: Ref, map: &[(VarId, VarId)]) -> Ref {
        if map.is_empty() {
            return f;
        }
        let mut level_map: HashMap<u32, u32> = HashMap::new();
        for &(from, to) in map {
            level_map.insert(self.level_of(from), self.level_of(to));
        }
        let mut memo = HashMap::new();
        Ref(self.rename_rec(f.0, &level_map, &mut memo))
    }

    fn rename_rec(
        &mut self,
        f: u32,
        level_map: &HashMap<u32, u32>,
        memo: &mut HashMap<u32, u32>,
    ) -> u32 {
        if f <= 1 {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let cf = f & 1;
        let n = self.node(f);
        let low = self.rename_rec(n.low ^ cf, level_map, memo);
        let high = self.rename_rec(n.high ^ cf, level_map, memo);
        let new_level = *level_map.get(&n.level).unwrap_or(&n.level);
        let r = self.mk(new_level, low, high);
        memo.insert(f, r);
        r
    }

    /// Composes `f` with `g` substituted for variable `v`: `f[v := g]`.
    pub fn compose(&mut self, f: Ref, v: VarId, g: Ref) -> Ref {
        let f1 = self.restrict(f, v, true);
        let f0 = self.restrict(f, v, false);
        self.ite(g, f1, f0)
    }

    /// Generalized cofactor (`constrain`): simplifies `f` assuming `c` holds.
    ///
    /// The result agrees with `f` on every assignment satisfying `c` and is
    /// typically (not always) smaller than `f`.
    pub fn constrain(&mut self, f: Ref, c: Ref) -> Ref {
        self.try_constrain(f, c).expect(UNGOVERNED)
    }

    /// Fallible [`BddManager::constrain`].
    pub fn try_constrain(&mut self, f: Ref, c: Ref) -> Result<Ref, Interrupt> {
        Ok(Ref(self.constrain_rec(f.0, c.0)?))
    }

    fn constrain_rec(&mut self, f: u32, c: u32) -> Result<u32, Interrupt> {
        if c == ONE || f <= 1 {
            return Ok(f);
        }
        if c == ZERO {
            return Ok(ZERO);
        }
        // constrain(¬f, c) = ¬constrain(f, c): normalise the first operand
        // regular and carry its complement to the output, halving the key
        // space.
        let cf = f & 1;
        let f = f ^ cf;
        if f == c & !1 {
            // f equals c up to complement: constrain(c, c) = TRUE and
            // constrain(¬c, c) = FALSE (then re-apply the output bit).
            return Ok(ONE ^ (c & 1) ^ cf);
        }
        let key = (Op::Constrain, f, c, 0);
        if let Some(r) = self.cache_get(key) {
            return Ok(r ^ cf);
        }
        self.checkpoint()?;
        let lf = self.level(f);
        let lc = self.level(c);
        let level = lf.min(lc);
        let (cl, ch) = self.cofactors_at(c, level);
        let (fl_, fh_) = self.cofactors_at(f, level);
        let r = if cl == ZERO {
            self.constrain_rec(fh_, ch)?
        } else if ch == ZERO {
            self.constrain_rec(fl_, cl)?
        } else {
            let low = self.constrain_rec(fl_, cl)?;
            let high = self.constrain_rec(fh_, ch)?;
            self.mk(level, low, high)
        };
        self.cache_put(key, r);
        Ok(r ^ cf)
    }

    /// Disjunction on raw edges through De Morgan (shared `and` cache).
    #[inline]
    pub(crate) fn or_idx(&mut self, f: u32, g: u32) -> Result<u32, Interrupt> {
        Ok(self.and_rec(f ^ 1, g ^ 1)? ^ 1)
    }

    /// Cofactors of `f` with respect to the variable at `level`
    /// (identity if `f`'s root is below `level`), complement attribute
    /// pushed through.
    #[inline]
    pub(crate) fn cofactors_at(&self, f: u32, level: u32) -> (u32, u32) {
        let n = &self.nodes[(f >> 1) as usize];
        if n.level == level {
            let c = f & 1;
            (n.low ^ c, n.high ^ c)
        } else {
            (f, f)
        }
    }

    #[inline]
    fn cofactor_pair(&self, f: u32, g: u32) -> (u32, u32, u32, u32, u32) {
        let lf = self.level(f);
        let lg = self.level(g);
        let level = lf.min(lg);
        let (fl, fh) = self.cofactors_at(f, level);
        let (gl, gh) = self.cofactors_at(g, level);
        (level, fl, fh, gl, gh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, TruncationReason};

    fn setup() -> (BddManager, Vec<VarId>) {
        let m = BddManager::with_vars(4);
        let vars = m.variables();
        (m, vars)
    }

    /// Exhaustively compares a BDD against a reference function over 4 vars.
    fn assert_equals<F: Fn(&[bool]) -> bool>(m: &BddManager, f: Ref, reference: F) {
        for bits in 0u32..16 {
            let assignment: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            let expected = reference(&assignment);
            let got = m.eval(f, |v| assignment[v.index()]);
            assert_eq!(got, expected, "mismatch on assignment {assignment:?}");
        }
    }

    #[test]
    fn basic_connectives() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let and = m.and(a, b);
        assert_equals(&m, and, |x| x[0] && x[1]);
        let or = m.or(a, c);
        assert_equals(&m, or, |x| x[0] || x[2]);
        let xor = m.xor(a, b);
        assert_equals(&m, xor, |x| x[0] ^ x[1]);
        let iff = m.iff(a, b);
        assert_equals(&m, iff, |x| x[0] == x[1]);
        let imp = m.implies(a, b);
        assert_equals(&m, imp, |x| !x[0] || x[1]);
        let diff = m.diff(a, b);
        assert_equals(&m, diff, |x| x[0] && !x[1]);
        let na = m.not(a);
        assert_equals(&m, na, |x| !x[0]);
    }

    #[test]
    fn negation_is_free() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.xor(a, b);
        let live = m.live_node_count();
        let before = m.stats();
        let nf = m.not(f);
        let after = m.stats();
        // ¬f allocated nothing and issued no cache lookups.
        assert_eq!(m.live_node_count(), live);
        assert_eq!(after.cache_hits, before.cache_hits);
        assert_eq!(after.cache_misses, before.cache_misses);
        assert_eq!(nf.0, f.0 ^ 1);
        assert_eq!(m.not(nf), f);
        assert_equals(&m, nf, |x| !(x[0] ^ x[1]));
    }

    #[test]
    fn or_shares_the_and_cache_through_de_morgan() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let f = m.xor(a, b);
        let g = m.xor(b, c);
        // Populate via `or`...
        let or = m.or(f, g);
        let mid = m.stats();
        // ...then the De-Morgan-equivalent `and` on complemented operands
        // must be answered entirely from the same cache entries.
        let nf = m.not(f);
        let ng = m.not(g);
        let nand = m.and(nf, ng);
        let after = m.stats();
        assert_eq!(nand, m.not(or));
        assert_eq!(
            after.cache_misses, mid.cache_misses,
            "¬f ∧ ¬g must reuse the cache entries of f ∨ g"
        );
        assert!(after.cache_hits > mid.cache_hits);
    }

    #[test]
    fn ite_matches_definition() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let f = m.ite(a, b, c);
        assert_equals(&m, f, |x| if x[0] { x[1] } else { x[2] });
        // Complemented-operand variants of the same triple.
        let na = m.not(a);
        let g = m.ite(na, c, b);
        assert_eq!(g, f, "ite(¬f, h, g) = ite(f, g, h)");
        let nb = m.not(b);
        let nc = m.not(c);
        let h = m.ite(a, nb, nc);
        assert_eq!(h, m.not(f), "ite(f, ¬g, ¬h) = ¬ite(f, g, h)");
        let eq = m.ite(a, b, nb);
        assert_equals(&m, eq, |x| if x[0] { x[1] } else { !x[1] });
    }

    #[test]
    fn cube_and_many() {
        let (mut m, v) = setup();
        let cube = m.cube(&[(v[0], true), (v[2], false), (v[3], true)]);
        assert_equals(&m, cube, |x| x[0] && !x[2] && x[3]);
        let lits: Vec<Ref> = vec![m.var(v[0]), m.var(v[1]), m.var(v[3])];
        let conj = m.and_many(&lits);
        assert_equals(&m, conj, |x| x[0] && x[1] && x[3]);
        let disj = m.or_many(&lits);
        assert_equals(&m, disj, |x| x[0] || x[1] || x[3]);
        assert_eq!(m.and_many(&[]), m.one());
        assert_eq!(m.or_many(&[]), m.zero());
    }

    #[test]
    fn quantification() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.and(a, b);
        // ∃ b. a ∧ b  =  a
        let e = m.exists(f, &[v[1]]);
        assert_eq!(e, a);
        // ∀ b. a ∧ b  =  false
        let u = m.forall(f, &[v[1]]);
        assert_eq!(u, m.zero());
        // ∀ b. a ∨ b  =  a
        let g = m.or(a, b);
        let u2 = m.forall(g, &[v[1]]);
        assert_eq!(u2, a);
        // quantifying a variable not in the support is the identity
        let e2 = m.exists(f, &[v[3]]);
        assert_eq!(e2, f);
        // ∃ does not commute with complement: ∃b. ¬(a ∧ b) = TRUE.
        let nf = m.not(f);
        let e3 = m.exists(nf, &[v[1]]);
        assert_eq!(e3, m.one());
    }

    #[test]
    fn and_exists_equals_two_steps() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let f = m.or(a, b);
        let g = m.iff(b, c);
        let conj = m.and(f, g);
        let expect = m.exists(conj, &[v[1]]);
        let got = m.and_exists(f, g, &[v[1]]);
        assert_eq!(got, expect);
        // Complemented operands too.
        let nf = m.not(f);
        let conj2 = m.and(nf, g);
        let expect2 = m.exists(conj2, &[v[1]]);
        let got2 = m.and_exists(nf, g, &[v[1]]);
        assert_eq!(got2, expect2);
    }

    #[test]
    fn restrict_and_compose() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let f = m.ite(a, b, c);
        let f1 = m.restrict(f, v[0], true);
        assert_eq!(f1, b);
        let f0 = m.restrict(f, v[0], false);
        assert_eq!(f0, c);
        // compose f[b := c] = ite(a, c, c) = c
        let comp = m.compose(f, v[1], c);
        assert_eq!(comp, c);
        let fixed = m.restrict_many(f, &[(v[0], true), (v[1], false)]);
        assert_eq!(fixed, m.zero());
        // Restriction of a complemented edge.
        let nf = m.not(f);
        let n1 = m.restrict(nf, v[0], true);
        assert_eq!(n1, m.not(b));
    }

    #[test]
    fn rename_shifts_variables() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.and(a, b);
        // rename {v0 -> v2, v1 -> v3} keeps relative order.
        let g = m.rename(f, &[(v[0], v[2]), (v[1], v[3])]);
        assert_equals(&m, g, |x| x[2] && x[3]);
        assert_eq!(m.rename(f, &[]), f);
        // Renaming commutes with complement.
        let nf = m.not(f);
        let ng = m.rename(nf, &[(v[0], v[2]), (v[1], v[3])]);
        assert_eq!(ng, m.not(g));
    }

    #[test]
    fn constrain_agrees_on_care_set() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let f = m.xor(a, b);
        let care = m.and(a, c);
        let g = m.constrain(f, care);
        // On assignments satisfying `care`, f and g agree.
        for bits in 0u32..16 {
            let assignment: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            if m.eval(care, |v| assignment[v.index()]) {
                assert_eq!(
                    m.eval(f, |v| assignment[v.index()]),
                    m.eval(g, |v| assignment[v.index()])
                );
            }
        }
        // constrain(¬f, c) = ¬constrain(f, c).
        let nf = m.not(f);
        let ng = m.constrain(nf, care);
        assert_eq!(ng, m.not(g));
    }

    #[test]
    fn commutative_cache_keys_are_normalized() {
        // `and(a, b)` and `and(b, a)` must share one computed-cache entry:
        // the second call is answered entirely from the cache (one hit, no
        // new misses), so operand order cannot double the cache footprint.
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let f = m.and(a, b);
        let g = m.or(b, c);
        // Non-constant, distinct operands so every op takes its cache path.
        type OpPair = Box<dyn Fn(&mut BddManager) -> (Ref, Ref)>;
        let ops: Vec<(&str, OpPair)> = vec![
            ("and", Box::new(move |m| (m.and(f, g), m.and(g, f)))),
            ("or", Box::new(move |m| (m.or(f, g), m.or(g, f)))),
            ("xor", Box::new(move |m| (m.xor(f, g), m.xor(g, f)))),
        ];
        for (name, op) in ops {
            let before = m.stats();
            let (fwd, rev) = op(&mut m);
            let after = m.stats();
            assert_eq!(fwd, rev, "{name} must be commutative");
            let new_misses = after.cache_misses - before.cache_misses;
            let new_hits = after.cache_hits - before.cache_hits;
            assert!(
                new_hits >= 1,
                "{name}: the swapped-operand call must hit the cache \
                 (hits {new_hits}, misses {new_misses})"
            );
        }
        // The relational product normalizes its two conjuncts the same way.
        let vars = [v[3]];
        let before = m.stats();
        let fwd = m.and_exists(f, g, &vars);
        let miss_fwd = m.stats().cache_misses - before.cache_misses;
        let mid = m.stats();
        let rev = m.and_exists(g, f, &vars);
        let miss_rev = m.stats().cache_misses - mid.cache_misses;
        assert_eq!(fwd, rev);
        assert!(miss_fwd >= 1, "first call populates the cache");
        assert_eq!(miss_rev, 0, "swapped operands must be answered cached");
    }

    #[test]
    fn xor_parity_shares_cache_entries() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let f = m.and(a, b);
        let g = m.or(b, c);
        let fwd = m.xor(f, g);
        let mid = m.stats();
        // All four complement variants of the operands reduce to the same
        // normalised key: no new misses.
        let nf = m.not(f);
        let ng = m.not(g);
        let r1 = m.xor(nf, g);
        let r2 = m.xor(f, ng);
        let r3 = m.xor(nf, ng);
        let after = m.stats();
        assert_eq!(r1, m.not(fwd));
        assert_eq!(r2, m.not(fwd));
        assert_eq!(r3, fwd);
        assert_eq!(
            after.cache_misses, mid.cache_misses,
            "complemented xor operands must reuse the normalised entry"
        );
    }

    #[test]
    fn results_are_canonical() {
        let (mut m, v) = setup();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.or(a, b);
        let g = m.not(f);
        let h = m.and(g, f);
        assert_eq!(h, m.zero());
        let na = m.not(a);
        let nb = m.not(b);
        let g2 = m.and(na, nb);
        assert_eq!(g, g2);
        assert!(m.check_canonical().is_ok());
    }

    /// Builds a function wide enough that operations on it take thousands
    /// of cache-miss steps: the "hidden weighted bit"-ish predicate
    /// counting set bits. Returns the manager and two such functions.
    fn wide_setup(vars: usize) -> (BddManager, Ref, Ref) {
        let mut m = BddManager::with_vars(vars);
        let ids = m.variables();
        // f = parity of all vars, g = majority-ish threshold; both have
        // many distinct subfunctions so conjunction walks a big state space.
        let mut f = m.zero();
        for &v in &ids {
            let lit = m.var(v);
            f = m.xor(f, lit);
        }
        let mut g = m.one();
        for w in ids.windows(2) {
            let x = m.var(w[0]);
            let y = m.var(w[1]);
            let or = m.or(x, y);
            g = m.and(g, or);
        }
        (m, f, g)
    }

    #[test]
    fn interrupted_operation_leaves_the_manager_consistent() {
        let (mut m, f, g) = wide_setup(24);
        m.protect(f);
        m.protect(g);
        let before_protected = m.protected_root_count();
        m.install_budget(Budget::new().with_step_ceiling(10));
        let err = m.try_and(f, g).unwrap_err();
        assert_eq!(err.reason, TruncationReason::StepBudget);
        // Sticky: the next governed call fails immediately too.
        assert_eq!(
            m.try_or(f, g).unwrap_err().reason,
            TruncationReason::StepBudget
        );
        // The manager is untouched structurally: invariants hold, no
        // protection leaked, GC is still legal...
        assert!(m.check_canonical().is_ok());
        assert_eq!(m.protected_root_count(), before_protected);
        m.collect_garbage();
        assert!(m.check_canonical().is_ok());
        // ...and after removing the budget the very same query completes
        // and matches an ungoverned reference run.
        let budget = m.take_budget().expect("budget still installed");
        assert_eq!(budget.breached(), Some(TruncationReason::StepBudget));
        let governed = m.and(f, g);
        let (mut fresh, f2, g2) = wide_setup(24);
        let reference = fresh.and(f2, g2);
        assert_eq!(m.sat_count(governed, 24), fresh.sat_count(reference, 24));
    }

    #[test]
    fn ungoverned_managers_never_interrupt() {
        let (mut m, f, g) = wide_setup(16);
        assert!(m.try_and(f, g).is_ok());
        assert!(m.budget().is_none());
    }
}
