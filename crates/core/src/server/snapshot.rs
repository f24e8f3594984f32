//! Durable snapshots of warm serving state: the daemon's crash-recovery
//! layer.
//!
//! Two kinds of files live in the `--snapshot-dir`, both wrapped in the
//! same checksummed envelope around a [`SerializedBdd`] byte blob:
//!
//! * **Warm snapshots** (`warm-<hash>.pnsnap`) — one per pooled net: the
//!   net's canonical hash, its spec string, and every *complete*
//!   per-strategy [`ReachabilityResult`] with the reached sets exported
//!   as a shared multi-rooted BDD slice. Written when a query completes
//!   and when the LRU pool evicts a warm entry (spill-instead-of-drop).
//! * **Checkpoints** (`ckpt-<hash>.pnsnap`) — the partial reached set of
//!   a long-running fixpoint, rewritten at pass boundaries. A restart
//!   resumes the traversal from the checkpointed set instead of the
//!   initial marking; the file is deleted when the fixpoint completes.
//!
//! Every write is atomic — write to a temp file, `fsync`, rename — so a
//! `kill -9` at any instant leaves either the previous file or the new
//! one, never a readable torn file. Every read validates the trailing
//! checksum *before* trusting any length field, then re-validates the
//! structural invariants of the embedded BDD slice; any mismatch is a
//! typed [`SnapshotRejection`], the offending file is deleted, and the
//! caller degrades to a cold rebuild. No input, however corrupt, panics.
//!
//! Under the `fault-inject` feature the store can be armed with a
//! `DiskFaultSchedule` (feature-gated, so no doc link here) that deterministically
//! injects short writes, failed renames and corrupt-on-read bit flips at
//! these sites, which is how the disk-fault matrix exercises the
//! degradation paths.

use super::pool::WarmContext;
use crate::context::SymbolicContext;
use crate::traverse::{FixpointStrategy, ReachabilityResult};
use pnsym_bdd::{snapshot_checksum, Ref, SerializedBdd, SnapshotError};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

#[cfg(feature = "fault-inject")]
use pnsym_bdd::{DiskFaultSchedule, DiskFaultSite};

/// Magic prefix of the store's envelope (distinct from the inner
/// [`SerializedBdd`] blob's own magic).
const STORE_MAGIC: &[u8; 8] = b"PNSYMDS\0";
/// Envelope format version.
const STORE_VERSION: u32 = 1;
const KIND_WARM: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;
/// Upper bound on per-strategy entries in one warm snapshot — far above
/// the number of distinct traversal strategies, it only bounds the
/// allocation a corrupt count field could request.
const MAX_ENTRIES: usize = 64;

/// Why a snapshot file was rejected. Every variant degrades to a cold
/// rebuild: the file is deleted and the query proceeds as a miss.
#[derive(Debug)]
pub enum SnapshotRejection {
    /// Reading the file failed at the I/O level.
    Io(io::Error),
    /// The envelope is malformed: bad magic, checksum mismatch, torn or
    /// trailing bytes, a bad length field, non-UTF-8 text.
    Envelope(&'static str),
    /// The envelope's format version is not understood.
    Version(u32),
    /// The embedded BDD blob failed its own validation.
    Bdd(SnapshotError),
    /// The snapshot does not match the live state it would restore into:
    /// wrong net hash, wrong variable count, an unknown strategy name, or
    /// a restored reached set whose marking count disagrees with the one
    /// recorded at save time.
    Mismatch(String),
}

impl std::fmt::Display for SnapshotRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotRejection::Io(err) => write!(f, "i/o error: {err}"),
            SnapshotRejection::Envelope(what) => write!(f, "malformed envelope: {what}"),
            SnapshotRejection::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotRejection::Bdd(err) => write!(f, "bad BDD blob: {err}"),
            SnapshotRejection::Mismatch(what) => write!(f, "snapshot/state mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapshotRejection {}

/// One per-strategy record of a decoded snapshot envelope.
#[derive(Debug, Clone, PartialEq)]
struct RawEntry {
    strategy: String,
    num_markings: f64,
    iterations: u64,
}

/// A fully decoded (and checksum-verified) snapshot file.
struct Payload {
    kind: u8,
    net_hash: u64,
    spec: String,
    entries: Vec<RawEntry>,
    bdd: SerializedBdd,
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotRejection> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapshotRejection::Envelope("truncated field"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, SnapshotRejection> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotRejection> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, SnapshotRejection> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotRejection::Envelope("non-UTF-8 string"))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn encode(kind: u8, net_hash: u64, spec: &str, entries: &[RawEntry], blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blob.len() + 256);
    out.extend_from_slice(STORE_MAGIC);
    push_u32(&mut out, STORE_VERSION);
    out.push(kind);
    push_u64(&mut out, net_hash);
    push_str(&mut out, spec);
    push_u32(&mut out, entries.len() as u32);
    for entry in entries {
        push_str(&mut out, &entry.strategy);
        push_u64(&mut out, entry.num_markings.to_bits());
        push_u64(&mut out, entry.iterations);
    }
    push_u32(&mut out, blob.len() as u32);
    out.extend_from_slice(blob);
    let sum = snapshot_checksum(&out);
    push_u64(&mut out, sum);
    out
}

fn decode(bytes: &[u8]) -> Result<Payload, SnapshotRejection> {
    if bytes.len() < STORE_MAGIC.len() + 8 {
        return Err(SnapshotRejection::Envelope("file too short"));
    }
    // Verify the trailing checksum over the whole body *first*: after this
    // every length field is trusted-as-written, and a torn or bit-flipped
    // file cannot steer the parse.
    let (body, stored) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(stored.try_into().unwrap());
    if snapshot_checksum(body) != stored {
        return Err(SnapshotRejection::Envelope("checksum mismatch"));
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(STORE_MAGIC.len())? != STORE_MAGIC {
        return Err(SnapshotRejection::Envelope("bad magic"));
    }
    let version = r.u32()?;
    if version != STORE_VERSION {
        return Err(SnapshotRejection::Version(version));
    }
    let kind = r.take(1)?[0];
    if kind != KIND_WARM && kind != KIND_CHECKPOINT {
        return Err(SnapshotRejection::Envelope("unknown snapshot kind"));
    }
    let net_hash = r.u64()?;
    let spec = r.str()?;
    let count = r.u32()? as usize;
    if count > MAX_ENTRIES {
        return Err(SnapshotRejection::Envelope("implausible entry count"));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let strategy = r.str()?;
        let num_markings = f64::from_bits(r.u64()?);
        let iterations = r.u64()?;
        entries.push(RawEntry {
            strategy,
            num_markings,
            iterations,
        });
    }
    let blob_len = r.u32()? as usize;
    let blob = r.take(blob_len)?;
    if r.remaining() != 0 {
        return Err(SnapshotRejection::Envelope("trailing bytes"));
    }
    let (tag, bdd) = SerializedBdd::from_bytes(blob).map_err(SnapshotRejection::Bdd)?;
    if tag != net_hash {
        return Err(SnapshotRejection::Envelope(
            "BDD blob tag disagrees with the envelope's net hash",
        ));
    }
    if bdd.num_roots() != entries.len() {
        return Err(SnapshotRejection::Envelope(
            "root count disagrees with the entry count",
        ));
    }
    Ok(Payload {
        kind,
        net_hash,
        spec,
        entries,
        bdd,
    })
}

/// Imports the decoded slice into a live context, reordering the manager
/// to the snapshot's variable order first (imports require order
/// equality). Returns the imported roots, unprotected.
fn import_into(
    ctx: &mut SymbolicContext,
    bdd: &SerializedBdd,
) -> Result<Vec<Ref>, SnapshotRejection> {
    if bdd.num_vars() != ctx.manager().num_vars() {
        return Err(SnapshotRejection::Mismatch(format!(
            "snapshot has {} variables, the live context {}",
            bdd.num_vars(),
            ctx.manager().num_vars()
        )));
    }
    if ctx.manager().current_order() != bdd.order() {
        ctx.manager_mut().reorder_to(&bdd.order());
    }
    Ok(ctx.manager_mut().import_subgraph(bdd))
}

/// The durable store under a snapshot directory. All methods degrade:
/// they log nothing themselves and report failures as typed values, so
/// the single-threaded scheduler decides what is worth a log line.
pub struct SnapshotStore {
    dir: PathBuf,
    #[cfg(feature = "fault-inject")]
    faults: DiskFaultSchedule,
}

impl SnapshotStore {
    /// Opens (creating if necessary) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapshotStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore {
            dir,
            #[cfg(feature = "fault-inject")]
            faults: DiskFaultSchedule::none(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms a deterministic disk-fault schedule; subsequent writes and
    /// reads trip the scheduled sites.
    #[cfg(feature = "fault-inject")]
    pub fn arm_faults(&mut self, faults: DiskFaultSchedule) {
        self.faults = faults;
    }

    fn warm_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("warm-{key:016x}.pnsnap"))
    }

    fn ckpt_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{key:016x}.pnsnap"))
    }

    /// Atomically replaces `path` with `bytes`: temp file, `fsync`,
    /// rename. A crash at any point leaves the old file or the new file.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("pnsnap.tmp");
        #[allow(unused_mut)]
        let mut payload: &[u8] = bytes;
        #[cfg(feature = "fault-inject")]
        if self.faults.observe(DiskFaultSite::ShortWrite) {
            // A torn write that still gets renamed into place: the
            // checksum catches it on the next read.
            payload = &bytes[..bytes.len() / 2];
        }
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(payload)?;
            file.sync_all()?;
        }
        #[cfg(feature = "fault-inject")]
        if self.faults.observe(DiskFaultSite::FailedRename) {
            let _ = fs::remove_file(&tmp);
            return Err(io::Error::other("injected rename failure"));
        }
        fs::rename(&tmp, path)
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        #[allow(unused_mut)]
        let mut bytes = fs::read(path)?;
        #[cfg(feature = "fault-inject")]
        if self.faults.observe(DiskFaultSite::CorruptRead) && !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
        }
        Ok(bytes)
    }

    /// Spills a warm pool entry: every complete per-strategy result, with
    /// the reached sets exported as one shared multi-rooted slice.
    /// Returns `Ok(false)` without writing when the entry has no complete
    /// results worth persisting.
    pub fn save_warm(&mut self, entry: &WarmContext) -> io::Result<bool> {
        let results: Vec<&(FixpointStrategy, ReachabilityResult)> = entry
            .reached_all()
            .iter()
            .filter(|(_, run)| run.truncated.is_none())
            .collect();
        if results.is_empty() {
            return Ok(false);
        }
        let roots: Vec<Ref> = results.iter().map(|(_, run)| run.reached).collect();
        let blob = entry
            .context()
            .manager()
            .export_subgraph(&roots)
            .to_bytes(entry.key());
        let entries: Vec<RawEntry> = results
            .iter()
            .map(|(strategy, run)| RawEntry {
                strategy: strategy.to_string(),
                num_markings: run.num_markings,
                iterations: run.iterations as u64,
            })
            .collect();
        let bytes = encode(KIND_WARM, entry.key(), entry.spec(), &entries, &blob);
        self.write_atomic(&self.warm_path(entry.key()), &bytes)?;
        Ok(true)
    }

    /// Rehydrates the warm snapshot for `key` into a freshly built
    /// context: imports the reached sets (reordering the manager to the
    /// snapshot's order), protects them, and re-verifies each marking
    /// count against the one recorded at save time. `None` when no
    /// snapshot exists; on `Err` the offending file has already been
    /// deleted and the caller proceeds cold.
    pub fn restore_warm(
        &mut self,
        key: u64,
        ctx: &mut SymbolicContext,
    ) -> Option<Result<Vec<(FixpointStrategy, ReachabilityResult)>, SnapshotRejection>> {
        let path = self.warm_path(key);
        if !path.exists() {
            return None;
        }
        let result = self.try_restore_warm(&path, key, ctx);
        if result.is_err() {
            let _ = fs::remove_file(&path);
        }
        Some(result)
    }

    fn try_restore_warm(
        &mut self,
        path: &Path,
        key: u64,
        ctx: &mut SymbolicContext,
    ) -> Result<Vec<(FixpointStrategy, ReachabilityResult)>, SnapshotRejection> {
        let bytes = self.read_file(path).map_err(SnapshotRejection::Io)?;
        let payload = decode(&bytes)?;
        if payload.kind != KIND_WARM {
            return Err(SnapshotRejection::Envelope("not a warm snapshot"));
        }
        if payload.net_hash != key {
            return Err(SnapshotRejection::Mismatch(format!(
                "snapshot is for net {:016x}, expected {key:016x}",
                payload.net_hash
            )));
        }
        let roots = import_into(ctx, &payload.bdd)?;
        let mut restored: Vec<(FixpointStrategy, ReachabilityResult)> =
            Vec::with_capacity(roots.len());
        for (entry, &root) in payload.entries.iter().zip(&roots) {
            let strategy: FixpointStrategy = match entry.strategy.parse() {
                Ok(strategy) => strategy,
                Err(message) => {
                    for (_, run) in &restored {
                        ctx.manager_mut().unprotect(run.reached);
                    }
                    return Err(SnapshotRejection::Mismatch(message));
                }
            };
            ctx.manager_mut().protect(root);
            let num_markings = ctx.count_markings(root);
            if num_markings != entry.num_markings {
                ctx.manager_mut().unprotect(root);
                for (_, run) in &restored {
                    ctx.manager_mut().unprotect(run.reached);
                }
                return Err(SnapshotRejection::Mismatch(format!(
                    "restored {:?} set counts {num_markings} markings, snapshot recorded {}",
                    entry.strategy, entry.num_markings
                )));
            }
            restored.push((
                strategy,
                ReachabilityResult {
                    reached: root,
                    num_markings,
                    iterations: entry.iterations as usize,
                    bdd_nodes: ctx.bdd_size(root),
                    peak_live_nodes: ctx.manager().peak_live_nodes(),
                    duration: Duration::ZERO,
                    truncated: None,
                    strategy,
                },
            ));
        }
        Ok(restored)
    }

    /// Deletes the warm snapshot for `key`, if any.
    pub fn discard_warm(&mut self, key: u64) {
        let _ = fs::remove_file(self.warm_path(key));
    }

    /// Lists `(key, spec)` of every decodable warm snapshot in the store,
    /// for startup rehydration. Undecodable files are skipped here — the
    /// lazy restore path deletes them with a typed reason on first use.
    pub fn warm_specs(&mut self) -> Vec<(u64, String)> {
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut keys: Vec<u64> = dir
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let hex = name.strip_prefix("warm-")?.strip_suffix(".pnsnap")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .filter_map(|key| {
                let path = self.warm_path(key);
                let bytes = self.read_file(&path).ok()?;
                let payload = decode(&bytes).ok()?;
                (payload.kind == KIND_WARM && payload.net_hash == key)
                    .then_some((key, payload.spec))
            })
            .collect()
    }

    /// Checkpoints the partial reached set of a running fixpoint.
    pub fn save_checkpoint(
        &mut self,
        key: u64,
        spec: &str,
        strategy: FixpointStrategy,
        ctx: &SymbolicContext,
        reached: Ref,
        iterations: usize,
    ) -> io::Result<()> {
        let blob = ctx.manager().export_subgraph(&[reached]).to_bytes(key);
        let entries = [RawEntry {
            strategy: strategy.to_string(),
            num_markings: 0.0,
            iterations: iterations as u64,
        }];
        let bytes = encode(KIND_CHECKPOINT, key, spec, &entries, &blob);
        self.write_atomic(&self.ckpt_path(key), &bytes)
    }

    /// Loads the checkpoint for `key` into a live context, returning the
    /// imported (and protected) partial reached set plus the pass count
    /// it had completed. `None` when no checkpoint exists *or* it was
    /// written under a different strategy (the file is left in place for
    /// a later query of that strategy); on `Err` the file has been
    /// deleted and the traversal restarts from the initial marking.
    pub fn load_checkpoint(
        &mut self,
        key: u64,
        strategy: FixpointStrategy,
        ctx: &mut SymbolicContext,
    ) -> Option<Result<(Ref, usize), SnapshotRejection>> {
        let path = self.ckpt_path(key);
        if !path.exists() {
            return None;
        }
        let result = (|| {
            let bytes = self.read_file(&path).map_err(SnapshotRejection::Io)?;
            let payload = decode(&bytes)?;
            if payload.kind != KIND_CHECKPOINT {
                return Err(SnapshotRejection::Envelope("not a checkpoint"));
            }
            if payload.net_hash != key {
                return Err(SnapshotRejection::Mismatch(format!(
                    "checkpoint is for net {:016x}, expected {key:016x}",
                    payload.net_hash
                )));
            }
            let [entry] = payload.entries.as_slice() else {
                return Err(SnapshotRejection::Envelope(
                    "checkpoint must carry exactly one entry",
                ));
            };
            Ok((entry.clone(), payload.bdd))
        })();
        let (entry, bdd) = match result {
            Ok(decoded) => decoded,
            Err(rejection) => {
                let _ = fs::remove_file(&path);
                return Some(Err(rejection));
            }
        };
        if entry.strategy.parse() != Ok(strategy) {
            return None;
        }
        match import_into(ctx, &bdd) {
            Ok(roots) => {
                let seed = roots[0];
                ctx.manager_mut().protect(seed);
                Some(Ok((seed, entry.iterations as usize)))
            }
            Err(rejection) => {
                let _ = fs::remove_file(&path);
                Some(Err(rejection))
            }
        }
    }

    /// Deletes the checkpoint for `key` — called when its fixpoint
    /// completes (the warm snapshot supersedes it).
    pub fn clear_checkpoint(&mut self, key: u64) {
        let _ = fs::remove_file(self.ckpt_path(key));
    }
}
