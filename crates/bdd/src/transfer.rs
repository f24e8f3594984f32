//! Subgraph transfer between managers: a compact, manager-independent
//! serialization of a set of BDD roots, which the daemon's snapshots write
//! to disk and import back into a fresh context.
//!
//! A [`SerializedBdd`] is a bottom-up node-arena slice: children always
//! precede parents, references are packed *edges* over slice-local serial
//! numbers — `edge = serial << 1 | complement`, with serial `0` reserved
//! for the terminal — so the complement attribute survives the round-trip
//! on roots and internal edges alike, and the two constant edges (`TRUE` =
//! `0`, `FALSE` = `1`) are identical in every manager. The variable order
//! of the source manager is recorded so the importer can verify both
//! managers agree on it. Import rebuilds the nodes through the ordinary
//! reduction rules, so an imported root is canonical in the destination
//! manager (regular then-edges included) and shares structure with
//! everything already there.

use crate::manager::{BddManager, Node, Ref, VarId, TERMINAL};
use std::collections::HashMap;
use std::fmt;

/// Why a snapshot byte stream was rejected by
/// [`SerializedBdd::from_bytes`]. Every hostile input maps to one of these
/// variants — decoding never panics and never allocates proportionally to
/// unvalidated length fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream ended before the announced content.
    Truncated,
    /// The leading magic bytes are not a pnsym BDD snapshot.
    BadMagic,
    /// The format version is newer (or older) than this build understands.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the stream contents.
    ChecksumMismatch,
    /// The stream decodes structurally but violates an invariant of the
    /// postorder slice (bad level, forward edge reference, complemented
    /// then-edge, duplicate order entry).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a pnsym BDD snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Leading magic of the byte encoding ([`SerializedBdd::to_bytes`]).
const SNAPSHOT_MAGIC: &[u8; 8] = b"PNSYBDD\0";
/// Current format version written by [`SerializedBdd::to_bytes`].
const SNAPSHOT_VERSION: u32 = 1;

/// The splitmix64 finaliser, chained over the stream's 8-byte words to
/// form the trailing checksum.
fn mix(state: u64, value: u64) -> u64 {
    let mut z = state
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(value);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checksum of a byte stream: the splitmix64 finaliser chained over the
/// length and every (zero-padded) 8-byte word. This is the integrity
/// check of the [`SerializedBdd`] byte format, exposed so higher layers
/// (e.g. a daemon's snapshot store) can frame their envelopes with the
/// same primitive.
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    checksum(bytes)
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut state = mix(0x736e_6170, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            word |= (b as u64) << (8 * i);
        }
        state = mix(state, word);
    }
    state
}

/// A bounds-checked little-endian reader over a snapshot byte stream.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// A manager-independent serialization of one or more BDD roots.
///
/// Produced by [`BddManager::export_subgraph`] and consumed by
/// [`BddManager::import_subgraph`]. The encoding is a bottom-up slice of
/// `(level, low, high)` triples whose references are packed edges
/// `serial << 1 | complement`: serial `0` is the terminal node (so edge
/// `0` is `TRUE` and edge `1` is `FALSE`) and serial `i + 1` is the `i`-th
/// triple of the slice. Then-edges are regular in the slice exactly as in
/// the arena. The type is `Send + Sync`, so serialized sets can cross
/// thread boundaries (e.g. via `Arc`) without touching either manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializedBdd {
    /// The source manager's variable order, top level first
    /// (`order[level] = variable id`).
    order: Vec<u32>,
    /// The nodes as `(level, low, high)` with packed-edge children,
    /// children before parents.
    nodes: Vec<(u32, u32, u32)>,
    /// The exported roots as packed edges, in the order given to
    /// `export_subgraph`.
    roots: Vec<u32>,
}

impl SerializedBdd {
    /// Number of variables of the source manager.
    pub fn num_vars(&self) -> usize {
        self.order.len()
    }

    /// The source manager's variable order, top level first.
    pub fn order(&self) -> Vec<VarId> {
        self.order.iter().map(|&v| VarId(v)).collect()
    }

    /// Number of serialized internal nodes (the terminal excluded).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of serialized roots.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Encodes the serialized set as a versioned, checksummed byte stream
    /// suitable for durable storage: magic, format version, the caller's
    /// `tag` (typically a canonical net hash the restorer verifies), the
    /// variable order, the complement-edge-aware postorder node slice, the
    /// roots, and a trailing splitmix64 checksum over everything before it.
    /// All integers are little-endian.
    pub fn to_bytes(&self, tag: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            SNAPSHOT_MAGIC.len()
                + 24
                + 4 * self.order.len()
                + 12 * self.nodes.len()
                + 4 * self.roots.len()
                + 8,
        );
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(self.order.len() as u32).to_le_bytes());
        for &v in &self.order {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        for &(level, low, high) in &self.nodes {
            out.extend_from_slice(&level.to_le_bytes());
            out.extend_from_slice(&low.to_le_bytes());
            out.extend_from_slice(&high.to_le_bytes());
        }
        out.extend_from_slice(&(self.roots.len() as u32).to_le_bytes());
        for &r in &self.roots {
            out.extend_from_slice(&r.to_le_bytes());
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes a byte stream written by [`SerializedBdd::to_bytes`],
    /// returning the caller's tag and the serialized set.
    ///
    /// The trailing checksum is verified *first*, so a torn, truncated or
    /// bit-flipped stream is rejected before any length field is trusted;
    /// the postorder invariants (levels strictly increase towards the
    /// leaves, edges only reference earlier serials, then-edges regular)
    /// are re-validated afterwards, so a decoded value is always safe to
    /// hand to [`BddManager::import_subgraph`]. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<(u64, SerializedBdd), SnapshotError> {
        // Checksum before anything else: every length field below is
        // trusted only once the stream proves internally consistent.
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(SnapshotError::Truncated);
        }
        if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("split of 8"));
        if checksum(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut r = ByteReader {
            bytes: body,
            pos: SNAPSHOT_MAGIC.len(),
        };
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let tag = r.u64()?;

        let num_vars = r.u32()? as usize;
        if num_vars > r.remaining() / 4 {
            return Err(SnapshotError::Truncated);
        }
        let mut order = Vec::with_capacity(num_vars);
        let mut seen = vec![false; num_vars];
        for _ in 0..num_vars {
            let v = r.u32()?;
            match seen.get_mut(v as usize) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => return Err(SnapshotError::Malformed("duplicate variable in order")),
                None => return Err(SnapshotError::Malformed("variable id out of range")),
            }
            order.push(v);
        }

        let num_nodes = r.u32()? as usize;
        if num_nodes > r.remaining() / 12 {
            return Err(SnapshotError::Truncated);
        }
        let mut nodes = Vec::with_capacity(num_nodes);
        for i in 0..num_nodes {
            let level = r.u32()?;
            let low = r.u32()?;
            let high = r.u32()?;
            if level as usize >= num_vars {
                return Err(SnapshotError::Malformed("node level out of range"));
            }
            if high & 1 != 0 {
                return Err(SnapshotError::Malformed("complemented then-edge"));
            }
            // An edge may reference the terminal (serial 0) or any earlier
            // node of the slice — children strictly precede parents, and
            // sit strictly deeper in the order.
            for e in [low, high] {
                let serial = (e >> 1) as usize;
                if serial > i {
                    return Err(SnapshotError::Malformed("edge references a later node"));
                }
                if serial != 0 {
                    let (child_level, _, _): (u32, u32, u32) = nodes[serial - 1];
                    if child_level <= level {
                        return Err(SnapshotError::Malformed("child level not below parent"));
                    }
                }
            }
            nodes.push((level, low, high));
        }

        let num_roots = r.u32()? as usize;
        if num_roots > r.remaining() / 4 {
            return Err(SnapshotError::Truncated);
        }
        let mut roots = Vec::with_capacity(num_roots);
        for _ in 0..num_roots {
            let e = r.u32()?;
            if ((e >> 1) as usize) > num_nodes {
                return Err(SnapshotError::Malformed("root references a missing node"));
            }
            roots.push(e);
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes after the roots"));
        }

        Ok((
            tag,
            SerializedBdd {
                order,
                nodes,
                roots,
            },
        ))
    }
}

/// Maps a serialized edge to a destination-manager edge, re-applying the
/// serialized complement bit on top of the (always regular) local entry.
#[inline]
fn resolve(e: u32, local: &[u32]) -> u32 {
    let serial = e >> 1;
    if serial == 0 {
        e // constant edges are manager-independent
    } else {
        local[(serial - 1) as usize] ^ (e & 1)
    }
}

impl BddManager {
    /// Serializes the subgraphs rooted at `roots` into a compact,
    /// manager-independent [`SerializedBdd`].
    ///
    /// Shared structure is serialized once: a node reachable from several
    /// roots appears a single time in the slice — and since `f` and `¬f`
    /// are one subgraph under complement edges, exporting both costs one
    /// copy plus a root edge each.
    pub fn export_subgraph(&self, roots: &[Ref]) -> SerializedBdd {
        // `map`: arena node index -> slice serial (1-based; 0 = terminal).
        let mut map: HashMap<u32, u32> = HashMap::new();
        let mut nodes: Vec<(u32, u32, u32)> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let ser_edge = |e: u32, map: &HashMap<u32, u32>| -> u32 {
            if e >> 1 == TERMINAL {
                e
            } else {
                (map[&(e >> 1)] << 1) | (e & 1)
            }
        };
        for &root in roots {
            let root_idx = root.0 >> 1;
            if root_idx == TERMINAL || map.contains_key(&root_idx) {
                continue;
            }
            stack.push(root_idx);
            // Iterative postorder: a node is emitted only once both
            // children are, so the slice is bottom-up by construction.
            while let Some(&top) = stack.last() {
                if map.contains_key(&top) {
                    stack.pop();
                    continue;
                }
                let n: Node = self.nodes[top as usize];
                debug_assert!(!n.free, "exporting a freed node");
                let low_ready = n.low >> 1 == TERMINAL || map.contains_key(&(n.low >> 1));
                let high_ready = n.high >> 1 == TERMINAL || map.contains_key(&(n.high >> 1));
                if low_ready && high_ready {
                    stack.pop();
                    let low = ser_edge(n.low, &map);
                    let high = ser_edge(n.high, &map);
                    let serial = nodes.len() as u32 + 1;
                    nodes.push((n.level, low, high));
                    map.insert(top, serial);
                } else {
                    if !low_ready {
                        stack.push(n.low >> 1);
                    }
                    if !high_ready {
                        stack.push(n.high >> 1);
                    }
                }
            }
        }
        let roots = roots.iter().map(|&r| ser_edge(r.0, &map)).collect();
        SerializedBdd {
            order: self.var_at_level.clone(),
            nodes,
            roots,
        }
    }

    /// Rebuilds a serialized subgraph in this manager and returns the
    /// imported roots, in the order they were exported.
    ///
    /// The imported nodes go through the ordinary reduction rules — which
    /// re-establish the regular-then-edge canonical form — so the returned
    /// roots are canonical here and share structure with the manager's
    /// existing nodes. The imported roots are **not** protected; protect
    /// them before the next garbage collection if they must survive.
    ///
    /// # Panics
    ///
    /// Panics if this manager's variable order differs from the order the
    /// subgraph was exported under (serialization records *levels*, which
    /// are only meaningful under the same order).
    pub fn import_subgraph(&mut self, serialized: &SerializedBdd) -> Vec<Ref> {
        assert_eq!(
            self.var_at_level, serialized.order,
            "import requires the exporting manager's variable order"
        );
        let mut local: Vec<u32> = Vec::with_capacity(serialized.nodes.len());
        for &(level, low, high) in &serialized.nodes {
            let low = resolve(low, &local);
            let high = resolve(high, &local);
            // Serialized then-edges are regular and `local` entries are
            // regular by induction, so `mk` hands back a regular edge here.
            let e = self.mk(level, low, high);
            debug_assert_eq!(e & 1, 0, "import of a canonical slice stays regular");
            local.push(e);
        }
        serialized
            .roots
            .iter()
            .map(|&r| Ref(resolve(r, &local)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty manager under the serialized variable order, ready to
    /// import from the same source.
    fn replica_manager(serialized: &SerializedBdd) -> BddManager {
        let mut m = BddManager::with_vars(serialized.num_vars());
        m.reorder_to(&serialized.order());
        m
    }

    fn sample(m: &mut BddManager) -> Ref {
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[2]);
        let c = m.nvar(v[4]);
        let ab = m.and(a, b);
        m.or(ab, c)
    }

    #[test]
    fn round_trip_preserves_the_function() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let ser = src.export_subgraph(&[f]);
        assert!(ser.num_nodes() > 0);
        let mut dst = replica_manager(&ser);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots.len(), 1);
        for bits in 0u32..64 {
            let assign = |v: VarId| bits & (1 << v.index()) != 0;
            assert_eq!(src.eval(f, assign), dst.eval(roots[0], assign));
        }
        assert!(dst.check_invariants().is_ok());
    }

    #[test]
    fn complemented_roots_round_trip() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let nf = src.not(f);
        // Export both polarities: one subgraph, two root edges.
        let ser = src.export_subgraph(&[nf, f]);
        let mut dst = replica_manager(&ser);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots[0], dst.not(roots[1]));
        for bits in 0u32..64 {
            let assign = |v: VarId| bits & (1 << v.index()) != 0;
            assert_eq!(src.eval(nf, assign), dst.eval(roots[0], assign));
        }
        assert!(dst.check_canonical().is_ok());
    }

    #[test]
    fn shared_structure_is_serialized_once() {
        let mut src = BddManager::with_vars(4);
        let f = sample_pair(&mut src);
        let together = src.export_subgraph(&[f.0, f.1]);
        let alone: usize = [f.0, f.1]
            .iter()
            .map(|&r| src.export_subgraph(&[r]).num_nodes())
            .sum();
        assert!(together.num_nodes() <= alone);
        // And the combined size equals the true shared node count
        // (one extra for the terminal the slice leaves implicit).
        assert_eq!(
            together.num_nodes() + 1,
            src.shared_node_count(&[f.0, f.1]),
            "export must deduplicate shared subgraphs"
        );
    }

    fn sample_pair(m: &mut BddManager) -> (Ref, Ref) {
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let shared = m.and(b, c);
        let f = m.or(a, shared);
        let g = m.and(a, shared);
        (f, g)
    }

    #[test]
    fn constants_round_trip_without_nodes() {
        let src = BddManager::with_vars(3);
        let ser = src.export_subgraph(&[src.zero(), src.one()]);
        assert_eq!(ser.num_nodes(), 0);
        let mut dst = replica_manager(&ser);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots, vec![dst.zero(), dst.one()]);
    }

    #[test]
    fn import_into_populated_manager_shares_structure() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let ser = src.export_subgraph(&[f]);
        // The destination already holds the same function: import must
        // yield the *same* canonical handle, not a copy.
        let mut dst = replica_manager(&ser);
        let existing = sample(&mut dst);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots[0], existing);
    }

    #[test]
    fn import_survives_export_after_reordering() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        src.protect(f);
        let v = src.variables();
        src.reorder_to(&[v[5], v[3], v[1], v[0], v[2], v[4]]);
        let ser = src.export_subgraph(&[f]);
        let mut dst = replica_manager(&ser);
        assert_eq!(dst.current_order(), src.current_order());
        let roots = dst.import_subgraph(&ser);
        for bits in 0u32..64 {
            let assign = |v: VarId| bits & (1 << v.index()) != 0;
            assert_eq!(src.eval(f, assign), dst.eval(roots[0], assign));
        }
    }

    #[test]
    #[should_panic(expected = "variable order")]
    fn import_rejects_mismatched_orders() {
        let mut src = BddManager::with_vars(4);
        let f = sample4(&mut src);
        let ser = src.export_subgraph(&[f]);
        let mut dst = BddManager::with_vars(4);
        let v = dst.variables();
        dst.reorder_to(&[v[3], v[2], v[1], v[0]]);
        let _ = dst.import_subgraph(&ser);
    }

    fn sample4(m: &mut BddManager) -> Ref {
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[3]);
        m.and(a, b)
    }

    #[test]
    fn byte_encoding_round_trips_bit_identically() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let nf = src.not(f);
        let ser = src.export_subgraph(&[f, nf]);
        let bytes = ser.to_bytes(0xfeed_beef_cafe_f00d);
        let (tag, back) = SerializedBdd::from_bytes(&bytes).expect("clean decode");
        assert_eq!(tag, 0xfeed_beef_cafe_f00d);
        assert_eq!(back, ser, "decode restores the exact serialized value");
        // Re-encoding the decoded value reproduces the bytes exactly.
        assert_eq!(back.to_bytes(tag), bytes);
        // And the decoded value imports like the original.
        let mut dst = replica_manager(&back);
        let roots = dst.import_subgraph(&back);
        assert_eq!(roots[1], dst.not(roots[0]));
    }

    #[test]
    fn empty_and_constant_snapshots_round_trip() {
        let src = BddManager::with_vars(3);
        let ser = src.export_subgraph(&[src.one(), src.zero()]);
        let bytes = ser.to_bytes(7);
        let (tag, back) = SerializedBdd::from_bytes(&bytes).expect("decode");
        assert_eq!(tag, 7);
        assert_eq!(back, ser);
    }

    #[test]
    fn truncated_streams_are_rejected_at_every_length() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let bytes = src.export_subgraph(&[f]).to_bytes(1);
        for len in 0..bytes.len() {
            let err = SerializedBdd::from_bytes(&bytes[..len])
                .expect_err("every proper prefix must be rejected");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch
                ),
                "prefix of {len}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected_never_panic() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let bytes = src.export_subgraph(&[f]).to_bytes(99);
        for i in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    SerializedBdd::from_bytes(&corrupt).is_err(),
                    "flipping byte {i} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let src = BddManager::with_vars(2);
        let ser = src.export_subgraph(&[src.one()]);
        let good = ser.to_bytes(0);

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            SerializedBdd::from_bytes(&wrong_magic),
            Err(SnapshotError::BadMagic)
        );

        // A future version with a correctly recomputed checksum is still
        // refused as unsupported, not misparsed.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&2u32.to_le_bytes());
        let body_len = future.len() - 8;
        let sum = super::checksum(&future[..body_len]);
        future[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            SerializedBdd::from_bytes(&future),
            Err(SnapshotError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn structural_invariants_are_revalidated_after_the_checksum() {
        // Hand-build a stream whose checksum is valid but whose node slice
        // references a later node: decode must reject it as malformed.
        let bogus = SerializedBdd {
            order: vec![0, 1],
            nodes: vec![(0, 4, 2)], // low edge -> serial 2: nonexistent
            roots: vec![2],
        };
        let bytes = bogus.to_bytes(0);
        assert!(matches!(
            SerializedBdd::from_bytes(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
