//! Durable plan-cache snapshots: the persistence tier behind warm boots.
//!
//! The whole point of the session/service stack is amortizing one
//! expensive MILP solve across structurally identical queries — but an
//! in-memory cache dies with the process, and every restart re-pays the
//! cold-solve wall. This module gives [`ShardedPlanCache`] a durable,
//! dependency-free binary snapshot format so a rebooted session or
//! service serves a previously-seen stream with zero backend solves.
//!
//! # Format (version 1)
//!
//! All integers are little-endian; sequences carry a `u64` length prefix.
//!
//! ```text
//! header   magic            [u8; 8]   "MJPLANC1"
//!          format version   u32
//!          fingerprint hash u64       FNV-1a over FingerprintOptions
//!          config hash      u64       FNV-1a over cost model + params
//!          entry count      u64
//! entry*   fingerprint      tables / predicates / groups / columns
//!          canonical plan   join order, operators, bound, certificate
//!          exact stats      unquantized statistics (certificate gate)
//!          recency rank     u64       ascending == least- to most-recent
//! trailer  checksum         u64       FNV-1a over every preceding byte
//! ```
//!
//! # Guarantees
//!
//! * **Atomic publish.** The snapshot is written to a sibling temp file,
//!   fsynced, then renamed over the target — readers observe either the
//!   old complete file or the new complete file, never a torn write.
//! * **Versioned compatibility.** A magic/version mismatch, a
//!   [`FingerprintOptions`] hash mismatch, or a cost-model/params hash
//!   mismatch rejects the snapshot (counted, never trusted): quantization
//!   or costing drift would otherwise serve plans keyed by a different
//!   equivalence relation.
//! * **Integrity.** The trailing checksum covers the whole file; a
//!   truncated or bit-flipped snapshot degrades to a clean cold boot.
//! * **No trusted plans.** Loading only re-populates the cache. Every hit
//!   on a loaded entry goes through the same instantiation path as an
//!   in-process hit: the plan is re-validated against the live query and
//!   re-costed against the live catalog, and optimality certificates
//!   carry over only when the exact (unquantized) statistics match.
//! * **LRU continuity.** Entries are written in global recency order and
//!   re-inserted in that order on load, so the eviction order a serving
//!   process had built up survives the reboot.
//!
//! Snapshot *writing* never blocks the in-flight claim protocol: the read
//! side clones `Arc` pointers one brief shard lock at a time
//! (`ShardedPlanCache::snapshot_entries`); serialization and file IO
//! run with no lock held.
//!
//! This file is the workspace's single approved filesystem choke point —
//! `milpjoin-audit`'s `no-fs-outside-persist` rule flags `std::fs` use
//! anywhere else in library code.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::{CachedPlan, ShardedPlanCache};
use crate::cost::{CostModelKind, CostParams};
use crate::fingerprint::{
    ColumnKey, ExactStats, Fingerprint, FingerprintOptions, GroupKey, PredKey, TableKey,
};
use crate::plan::JoinOp;

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MJPLANC1";

/// Current snapshot format version. Bumped on any layout change; older
/// files are rejected wholesale (a warm boot is an optimization, not
/// state — rejecting is always safe).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Fixed byte length of the header (magic + version + two hashes + count).
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// Sanity bound on the entry count field: a snapshot claiming more
/// entries than any real cache holds is corrupt, not big.
const MAX_ENTRIES: u64 = 1 << 24;

/// The serving configuration a snapshot is keyed to. Two processes may
/// exchange snapshots only when both hashes match: the fingerprint
/// options define the cache's equivalence relation (which queries share
/// an entry), and the cost model/params define what the cached costs and
/// certificates mean.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    pub fingerprint_options: FingerprintOptions,
    pub cost_model: CostModelKind,
    pub cost_params: CostParams,
}

impl SnapshotConfig {
    fn fingerprint_hash(&self) -> u64 {
        let mut buf = Vec::with_capacity(16);
        put_u64(&mut buf, self.fingerprint_options.log10_step.to_bits());
        put_u64(
            &mut buf,
            self.fingerprint_options.individualization_budget as u64,
        );
        fnv1a64(&buf)
    }

    fn config_hash(&self) -> u64 {
        let mut buf = Vec::with_capacity(25);
        put_u8(&mut buf, cost_model_tag(self.cost_model));
        put_u64(&mut buf, self.cost_params.tuple_bytes.to_bits());
        put_u64(&mut buf, self.cost_params.page_bytes.to_bits());
        put_u64(&mut buf, self.cost_params.buffer_pages.to_bits());
        fnv1a64(&buf)
    }
}

/// What a snapshot export produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotWriteStats {
    /// Entries serialized into the snapshot.
    pub entries: u64,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// What a snapshot load accepted and refused. `rejected` counts entries
/// (or, for a file unreadable past the header, the whole file as one
/// unit) that failed validation — a rejected snapshot is a cold boot,
/// never a stale plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotLoadStats {
    /// Entries re-inserted into the cache.
    pub loaded: u64,
    /// Entries (or whole-file units) refused by validation.
    pub rejected: u64,
}

/// FNV-1a 64-bit. [`std::collections::hash_map::DefaultHasher`] is not
/// stable across Rust releases, and a snapshot hash must mean the same
/// thing to the process that reads it years later — so the persistence
/// tier hand-rolls the one hash function it needs.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable on-disk discriminant of a cost model. `CostModelKind` has no
/// guaranteed layout; this mapping is part of the format.
fn cost_model_tag(model: CostModelKind) -> u8 {
    match model {
        CostModelKind::Cout => 0,
        CostModelKind::Hash => 1,
        CostModelKind::SortMerge => 2,
        CostModelKind::BlockNestedLoop => 3,
    }
}

/// Stable on-disk discriminant of a join operator (part of the format).
fn join_op_tag(op: JoinOp) -> u8 {
    match op {
        JoinOp::Hash => 0,
        JoinOp::SortMerge => 1,
        JoinOp::BlockNestedLoop => 2,
    }
}

fn join_op_from_tag(tag: u8) -> Option<JoinOp> {
    match tag {
        0 => Some(JoinOp::Hash),
        1 => Some(JoinOp::SortMerge),
        2 => Some(JoinOp::BlockNestedLoop),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u64(buf, n as u64);
}

/// Bounds-checked little-endian reader. Every accessor returns `None`
/// past the end — decoding a hostile or truncated buffer can refuse, but
/// never panic (library code; the audit no-panic rule applies here).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .and_then(|s| Some(u16::from_le_bytes(s.try_into().ok()?)))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|s| Some(u32::from_le_bytes(s.try_into().ok()?)))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|s| Some(u64::from_le_bytes(s.try_into().ok()?)))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .and_then(|s| Some(i64::from_le_bytes(s.try_into().ok()?)))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Strict bool: any byte other than 0/1 is corruption.
    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// A sequence length, bounded by the bytes actually remaining (every
    /// element costs at least one byte) — a length field can therefore
    /// never induce an allocation larger than the file itself.
    fn seq_len(&mut self) -> Option<usize> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return None;
        }
        usize::try_from(n).ok()
    }
}

// ---------------------------------------------------------------------
// Fingerprint / plan records
// ---------------------------------------------------------------------

fn put_fingerprint(buf: &mut Vec<u8>, fp: &Fingerprint) {
    put_len(buf, fp.tables.len());
    for t in &fp.tables {
        put_i64(buf, t.qlog_card);
        put_i64(buf, t.qlog_tuple_bytes);
        put_bool(buf, t.sorted);
    }
    put_len(buf, fp.predicates.len());
    for p in &fp.predicates {
        put_len(buf, p.tables.len());
        for &t in &p.tables {
            put_u16(buf, t);
        }
        put_i64(buf, p.qlog_selectivity);
        put_i64(buf, p.qlog_eval_cost);
    }
    put_len(buf, fp.groups.len());
    for g in &fp.groups {
        put_len(buf, g.members.len());
        for &m in &g.members {
            put_u32(buf, m);
        }
        put_i64(buf, g.qlog_correction);
    }
    put_len(buf, fp.columns.len());
    for c in &fp.columns {
        put_u16(buf, c.table);
        put_i64(buf, c.qlog_bytes);
        put_bool(buf, c.output);
        put_len(buf, c.predicates.len());
        for &p in &c.predicates {
            put_u32(buf, p);
        }
    }
}

fn get_fingerprint(cur: &mut Cursor<'_>) -> Option<Fingerprint> {
    let n_tables = cur.seq_len()?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push(TableKey {
            qlog_card: cur.i64()?,
            qlog_tuple_bytes: cur.i64()?,
            sorted: cur.bool()?,
        });
    }
    let n_preds = cur.seq_len()?;
    let mut predicates = Vec::with_capacity(n_preds);
    for _ in 0..n_preds {
        let n = cur.seq_len()?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(cur.u16()?);
        }
        predicates.push(PredKey {
            tables: members,
            qlog_selectivity: cur.i64()?,
            qlog_eval_cost: cur.i64()?,
        });
    }
    let n_groups = cur.seq_len()?;
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let n = cur.seq_len()?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(cur.u32()?);
        }
        groups.push(GroupKey {
            members,
            qlog_correction: cur.i64()?,
        });
    }
    let n_columns = cur.seq_len()?;
    let mut columns = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        let table = cur.u16()?;
        let qlog_bytes = cur.i64()?;
        let output = cur.bool()?;
        let n = cur.seq_len()?;
        let mut preds = Vec::with_capacity(n);
        for _ in 0..n {
            preds.push(cur.u32()?);
        }
        columns.push(ColumnKey {
            table,
            qlog_bytes,
            output,
            predicates: preds,
        });
    }
    Some(Fingerprint {
        tables,
        predicates,
        groups,
        columns,
    })
}

fn put_exact(buf: &mut Vec<u8>, exact: &ExactStats) {
    put_len(buf, exact.tables.len());
    for &(card, bytes, sorted) in &exact.tables {
        put_f64(buf, card);
        put_f64(buf, bytes);
        put_bool(buf, sorted);
    }
    put_len(buf, exact.predicates.len());
    for (tables, sel, cost) in &exact.predicates {
        put_len(buf, tables.len());
        for &t in tables {
            put_u16(buf, t);
        }
        put_f64(buf, *sel);
        put_f64(buf, *cost);
    }
    put_len(buf, exact.groups.len());
    for (members, corr) in &exact.groups {
        put_len(buf, members.len());
        for &m in members {
            put_u32(buf, m);
        }
        put_f64(buf, *corr);
    }
    put_len(buf, exact.columns.len());
    for (table, bytes, output, preds) in &exact.columns {
        put_u16(buf, *table);
        put_f64(buf, *bytes);
        put_bool(buf, *output);
        put_len(buf, preds.len());
        for &p in preds {
            put_u32(buf, p);
        }
    }
}

fn get_exact(cur: &mut Cursor<'_>) -> Option<ExactStats> {
    let n_tables = cur.seq_len()?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push((cur.f64()?, cur.f64()?, cur.bool()?));
    }
    let n_preds = cur.seq_len()?;
    let mut predicates = Vec::with_capacity(n_preds);
    for _ in 0..n_preds {
        let n = cur.seq_len()?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(cur.u16()?);
        }
        predicates.push((members, cur.f64()?, cur.f64()?));
    }
    let n_groups = cur.seq_len()?;
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let n = cur.seq_len()?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            members.push(cur.u32()?);
        }
        groups.push((members, cur.f64()?));
    }
    let n_columns = cur.seq_len()?;
    let mut columns = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        let table = cur.u16()?;
        let bytes = cur.f64()?;
        let output = cur.bool()?;
        let n = cur.seq_len()?;
        let mut preds = Vec::with_capacity(n);
        for _ in 0..n {
            preds.push(cur.u32()?);
        }
        columns.push((table, bytes, output, preds));
    }
    Some(ExactStats {
        tables,
        predicates,
        groups,
        columns,
    })
}

fn put_entry(buf: &mut Vec<u8>, fp: &Fingerprint, plan: &CachedPlan, rank: u64) {
    put_fingerprint(buf, fp);
    put_len(buf, plan.canonical_order.len());
    for &pos in &plan.canonical_order {
        put_u64(buf, pos as u64);
    }
    put_len(buf, plan.operators.len());
    for &op in &plan.operators {
        put_u8(buf, join_op_tag(op));
    }
    match plan.bound {
        Some(b) => {
            put_u8(buf, 1);
            put_f64(buf, b);
        }
        None => put_u8(buf, 0),
    }
    put_bool(buf, plan.proven_optimal);
    put_exact(buf, &plan.exact);
    put_u64(buf, rank);
}

/// One decoded (not yet validated) snapshot record.
struct Record {
    fingerprint: Fingerprint,
    plan: CachedPlan,
    rank: u64,
}

fn get_entry(cur: &mut Cursor<'_>) -> Option<Record> {
    let fingerprint = get_fingerprint(cur)?;
    let n_order = cur.seq_len()?;
    let mut canonical_order = Vec::with_capacity(n_order);
    for _ in 0..n_order {
        canonical_order.push(usize::try_from(cur.u64()?).ok()?);
    }
    let n_ops = cur.seq_len()?;
    let mut operators = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        operators.push(join_op_from_tag(cur.u8()?)?);
    }
    let bound = match cur.u8()? {
        0 => None,
        1 => Some(cur.f64()?),
        _ => return None,
    };
    let proven_optimal = cur.bool()?;
    let exact = get_exact(cur)?;
    let rank = cur.u64()?;
    Some(Record {
        fingerprint,
        plan: CachedPlan {
            canonical_order,
            operators,
            exact,
            bound,
            proven_optimal,
            // Everything re-entering the cache from disk is warm: hits on
            // it are counted so a booted service can prove the snapshot
            // absorbed its traffic.
            warm: true,
        },
        rank,
    })
}

/// Structural validation of one decoded record: internally consistent
/// dimensions and index references, and finite statistics. Anything less
/// is rejected — the serving layers assume fingerprint/plan/stat shapes
/// agree, and a snapshot is the one place that invariant crosses a trust
/// boundary. (Costs are *not* read from disk at all: hits re-cost against
/// the live catalog.)
fn validate_record(rec: &Record) -> bool {
    let fp = &rec.fingerprint;
    let plan = &rec.plan;
    let n = fp.tables.len();
    let n_preds = fp.predicates.len();
    if n == 0 {
        return false;
    }
    // Fingerprint-internal references: predicates name canonical tables,
    // groups and columns name sorted-predicate indices.
    let pred_tables_ok = |tables: &[u16]| tables.iter().all(|&t| usize::from(t) < n);
    if !fp.predicates.iter().all(|p| pred_tables_ok(&p.tables)) {
        return false;
    }
    let pred_refs_ok = |refs: &[u32]| refs.iter().all(|&p| (p as usize) < n_preds);
    if !fp.groups.iter().all(|g| pred_refs_ok(&g.members)) {
        return false;
    }
    if !fp
        .columns
        .iter()
        .all(|c| usize::from(c.table) < n && pred_refs_ok(&c.predicates))
    {
        return false;
    }
    // The join order is a permutation of the canonical tables, and the
    // operator list (when the backend recorded one) has one operator per
    // join.
    if plan.canonical_order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &pos in &plan.canonical_order {
        if pos >= n || seen[pos] {
            return false;
        }
        seen[pos] = true;
    }
    if !plan.operators.is_empty() && plan.operators.len() != n - 1 {
        return false;
    }
    if let Some(b) = plan.bound {
        if !b.is_finite() {
            return false;
        }
    }
    // Exact stats mirror the fingerprint dimension for dimension (the
    // certificate carry-over compares them element-wise), with finite
    // values and in-bounds references.
    let exact = &plan.exact;
    if exact.tables.len() != n
        || exact.predicates.len() != n_preds
        || exact.groups.len() != fp.groups.len()
        || exact.columns.len() != fp.columns.len()
    {
        return false;
    }
    if !exact
        .tables
        .iter()
        .all(|&(card, bytes, _)| card.is_finite() && bytes.is_finite())
    {
        return false;
    }
    if !exact
        .predicates
        .iter()
        .all(|(tables, sel, cost)| pred_tables_ok(tables) && sel.is_finite() && cost.is_finite())
    {
        return false;
    }
    if !exact
        .groups
        .iter()
        .all(|(members, corr)| pred_refs_ok(members) && corr.is_finite())
    {
        return false;
    }
    if !exact.columns.iter().all(|(table, bytes, _, preds)| {
        usize::from(*table) < n && bytes.is_finite() && pred_refs_ok(preds)
    }) {
        return false;
    }
    true
}

// ---------------------------------------------------------------------
// Write / load
// ---------------------------------------------------------------------

impl ShardedPlanCache {
    /// Serializes the current cache contents to `path`, atomically (temp
    /// file + rename), keyed to `config`. Returns what was written.
    /// Concurrent serving proceeds during the export: only brief per-shard
    /// `Arc`-clone passes take locks (see `snapshot_entries`).
    pub fn write_snapshot(
        &self,
        path: &Path,
        config: &SnapshotConfig,
    ) -> io::Result<SnapshotWriteStats> {
        let mut entries = self.snapshot_entries();
        // Global recency order: file position becomes the recency rank, so
        // the loader rebuilds the LRU order by inserting in file order.
        // Shard index and fingerprint break cross-shard clock collisions
        // deterministically (shard clocks are independent counters).
        entries.sort_by(|a, b| {
            (a.last_used, a.shard)
                .cmp(&(b.last_used, b.shard))
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });

        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut buf, SNAPSHOT_VERSION);
        put_u64(&mut buf, config.fingerprint_hash());
        put_u64(&mut buf, config.config_hash());
        put_u64(&mut buf, entries.len() as u64);
        for (rank, entry) in entries.iter().enumerate() {
            put_entry(&mut buf, &entry.fingerprint, &entry.plan, rank as u64);
        }
        let checksum = fnv1a64(&buf);
        put_u64(&mut buf, checksum);

        // Atomic publish: write a sibling temp file (same directory, so
        // the rename cannot cross filesystems), fsync, rename into place.
        let tmp = tmp_path(path);
        let write_tmp = || -> io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&buf)?;
            file.sync_all()
        };
        if let Err(e) = write_tmp() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(SnapshotWriteStats {
            entries: entries.len() as u64,
            bytes: buf.len() as u64,
        })
    }

    /// Loads a snapshot into the cache, validating per entry. Never
    /// panics and never errors: a missing file is a silent cold boot
    /// (`loaded == rejected == 0`), and any corruption, version skew, or
    /// config mismatch shows up in `rejected` while the cache stays
    /// exactly as it was. Entries are inserted in snapshot recency order,
    /// so LRU eviction behavior survives the boot; if the cache is
    /// smaller than the snapshot, the least-recent entries fall out
    /// first, exactly as they would have in-process.
    pub fn load_snapshot(&self, path: &Path, config: &SnapshotConfig) -> SnapshotLoadStats {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return SnapshotLoadStats::default(),
            Err(_) => {
                return SnapshotLoadStats {
                    loaded: 0,
                    rejected: 1,
                }
            }
        };
        self.load_snapshot_bytes(&bytes, config)
    }

    /// [`Self::load_snapshot`] over an in-memory buffer.
    fn load_snapshot_bytes(&self, bytes: &[u8], config: &SnapshotConfig) -> SnapshotLoadStats {
        // Until the checksum has passed, nothing in the file — not even
        // the entry count — is trustworthy; such rejections count the
        // whole file as one unit.
        let whole_file = SnapshotLoadStats {
            loaded: 0,
            rejected: 1,
        };
        if bytes.len() < HEADER_LEN + 8 {
            return whole_file;
        }
        let Some((body, trailer)) = bytes.split_at_checked(bytes.len() - 8) else {
            return whole_file;
        };
        let Ok(trailer) = <[u8; 8]>::try_from(trailer) else {
            return whole_file;
        };
        if fnv1a64(body) != u64::from_le_bytes(trailer) {
            return whole_file;
        }
        let mut cur = Cursor::new(body);
        let (Some(magic), Some(version)) = (cur.take(8), cur.u32()) else {
            return whole_file;
        };
        if magic != SNAPSHOT_MAGIC || version != SNAPSHOT_VERSION {
            return whole_file;
        }
        let (Some(fp_hash), Some(cfg_hash), Some(count)) = (cur.u64(), cur.u64(), cur.u64()) else {
            return whole_file;
        };
        if count > MAX_ENTRIES {
            return whole_file;
        }
        // The checksum passed, so the count is honest: a config mismatch
        // rejects every entry the snapshot carried.
        if fp_hash != config.fingerprint_hash() || cfg_hash != config.config_hash() {
            return SnapshotLoadStats {
                loaded: 0,
                rejected: count.max(1),
            };
        }
        let mut records = Vec::new();
        let mut rejected: u64 = 0;
        for parsed in 0..count {
            match get_entry(&mut cur) {
                Some(rec) if validate_record(&rec) => records.push(rec),
                Some(_) => rejected += 1,
                // Decode desync: nothing after this point can be framed.
                None => {
                    rejected += count - parsed;
                    break;
                }
            }
        }
        if !cur.done() {
            // Checksummed trailing garbage: a writer this code doesn't
            // understand produced the file — trust none of it.
            return SnapshotLoadStats {
                loaded: 0,
                rejected: count.max(1),
            };
        }
        // File order is recency order, but sort by the recorded ranks
        // anyway (stable, position-preserving for equal ranks): the ranks
        // are the format's statement of LRU order, the file layout merely
        // an optimization of it.
        records.sort_by_key(|r| r.rank);
        let loaded = records.len() as u64;
        for rec in records {
            self.insert(rec.fingerprint, Arc::new(rec.plan));
        }
        SnapshotLoadStats { loaded, rejected }
    }
}

/// Sibling temp-file path: `<path>.tmp` in the same directory, so the
/// final rename stays within one filesystem (atomicity).
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::{dummy_plan, fingerprinted};

    fn config() -> SnapshotConfig {
        SnapshotConfig {
            fingerprint_options: FingerprintOptions::default(),
            cost_model: CostModelKind::Cout,
            cost_params: CostParams::default(),
        }
    }

    fn tmp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "milpjoin-persist-{}-{name}.snap",
            std::process::id()
        ))
    }

    #[test]
    fn fingerprint_record_round_trips() {
        let fq = fingerprinted(10.0);
        let mut buf = Vec::new();
        put_fingerprint(&mut buf, &fq.fingerprint);
        put_exact(&mut buf, &fq.exact);
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_fingerprint(&mut cur), Some(fq.fingerprint));
        assert_eq!(get_exact(&mut cur), Some(fq.exact));
        assert!(cur.done());
    }

    #[test]
    fn snapshot_round_trip_preserves_entries_and_recency() {
        let cache = ShardedPlanCache::new(8, 2);
        for card in [10.0, 100.0, 1000.0] {
            cache.insert(fingerprinted(card).fingerprint, dummy_plan());
        }
        let path = tmp_file("round-trip");
        let written = cache.write_snapshot(&path, &config()).unwrap();
        assert_eq!(written.entries, 3);

        let boot = ShardedPlanCache::new(8, 2);
        let stats = boot.load_snapshot(&path, &config());
        assert_eq!(
            stats,
            SnapshotLoadStats {
                loaded: 3,
                rejected: 0
            }
        );
        assert_eq!(boot.len(), 3);
        // A re-export of the booted cache is byte-identical: contents and
        // recency order both survived.
        let path2 = tmp_file("round-trip-2");
        boot.write_snapshot(&path2, &config()).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn recency_order_survives_into_a_smaller_cache() {
        // Three entries, recency refreshed so the *oldest* is card=100.
        let cache = ShardedPlanCache::new(8, 1);
        let fps: Vec<_> = [10.0, 100.0, 1000.0]
            .iter()
            .map(|&card| fingerprinted(card).fingerprint)
            .collect();
        for fp in &fps {
            cache.insert(fp.clone(), dummy_plan());
        }
        assert!(cache.touch(&fps[0]));
        let path = tmp_file("recency");
        cache.write_snapshot(&path, &config()).unwrap();

        // A capacity-2 boot keeps the two most recent: 1000.0 and 10.0.
        let boot = ShardedPlanCache::new(2, 1);
        let stats = boot.load_snapshot(&path, &config());
        assert_eq!(stats.loaded, 3);
        assert_eq!(boot.len(), 2);
        assert!(boot.touch(&fps[0]));
        assert!(boot.touch(&fps[2]));
        assert!(!boot.touch(&fps[1]), "the LRU entry must have been evicted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_silent_cold_boot() {
        let cache = ShardedPlanCache::new(8, 1);
        let stats = cache.load_snapshot(&tmp_file("never-written"), &config());
        assert_eq!(stats, SnapshotLoadStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn corruption_rejects_cleanly() {
        let cache = ShardedPlanCache::new(8, 1);
        cache.insert(fingerprinted(10.0).fingerprint, dummy_plan());
        let path = tmp_file("corrupt");
        cache.write_snapshot(&path, &config()).unwrap();
        let original = std::fs::read(&path).unwrap();

        // Every truncation point and every flipped byte: loaded == 0,
        // rejected >= 1, no panic, cache untouched.
        for cut in [0, 1, HEADER_LEN, original.len() - 1] {
            let boot = ShardedPlanCache::new(8, 1);
            let stats = boot.load_snapshot_bytes(&original[..cut], &config());
            assert_eq!(stats.loaded, 0, "truncation at {cut}");
            assert!(stats.rejected >= 1, "truncation at {cut}");
            assert!(boot.is_empty());
        }
        for i in 0..original.len() {
            let mut flipped = original.clone();
            flipped[i] ^= 0x40;
            let boot = ShardedPlanCache::new(8, 1);
            let stats = boot.load_snapshot_bytes(&flipped, &config());
            assert_eq!(stats.loaded, 0, "flip at byte {i}");
            assert!(stats.rejected >= 1, "flip at byte {i}");
            assert!(boot.is_empty());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_mismatch_rejects_every_entry() {
        let cache = ShardedPlanCache::new(8, 1);
        for card in [10.0, 100.0] {
            cache.insert(fingerprinted(card).fingerprint, dummy_plan());
        }
        let path = tmp_file("config-mismatch");
        cache.write_snapshot(&path, &config()).unwrap();

        let mut coarser = config();
        coarser.fingerprint_options.log10_step = 0.5;
        let mut other_model = config();
        other_model.cost_model = CostModelKind::Hash;
        let mut other_params = config();
        other_params.cost_params.page_bytes *= 2.0;
        for wrong in [coarser, other_model, other_params] {
            let boot = ShardedPlanCache::new(8, 1);
            let stats = boot.load_snapshot(&path, &wrong);
            assert_eq!(
                stats,
                SnapshotLoadStats {
                    loaded: 0,
                    rejected: 2
                }
            );
            assert!(boot.is_empty());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_rejects_even_with_a_valid_checksum() {
        let cache = ShardedPlanCache::new(8, 1);
        cache.insert(fingerprinted(10.0).fingerprint, dummy_plan());
        let path = tmp_file("version");
        cache.write_snapshot(&path, &config()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Bump the version field and re-seal the checksum: the rejection
        // must come from versioning, not integrity.
        bytes[8] = bytes[8].wrapping_add(1);
        let body_len = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let boot = ShardedPlanCache::new(8, 1);
        let stats = boot.load_snapshot_bytes(&bytes, &config());
        assert_eq!(
            stats,
            SnapshotLoadStats {
                loaded: 0,
                rejected: 1
            }
        );
        assert!(boot.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let cache = ShardedPlanCache::new(8, 1);
        cache.insert(fingerprinted(10.0).fingerprint, dummy_plan());
        let path = tmp_file("atomic");
        cache.write_snapshot(&path, &config()).unwrap();
        assert!(path.exists());
        assert!(!tmp_path(&path).exists());
        let _ = std::fs::remove_file(&path);
    }
}
