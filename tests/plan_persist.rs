//! Acceptance tests for persistent plan-cache snapshots: a snapshot-booted
//! session or service serves a previously-seen stream with **zero** backend
//! solves and bit-identical plans/costs/certificates; corrupted or
//! config-mismatched snapshots degrade to a clean cold boot (rejection
//! counters set, nothing served stale, never a panic).

use std::path::PathBuf;
use std::time::Duration;

use milpjoin::{
    EncoderConfig, FingerprintOptions, HybridOptimizer, JoinOrderer, OrderingOptions, PlanSession,
    Precision, QueryService, SessionOutcome,
};
use milpjoin_dp::DpOptimizer;
use milpjoin_qopt::cost::plan_cost;
use milpjoin_qopt::persist::fnv1a64;
use milpjoin_qopt::{Catalog, Query};
use milpjoin_suite::mixed_stream;
use proptest::prelude::*;

fn backend() -> HybridOptimizer {
    HybridOptimizer::new(EncoderConfig::default().precision(Precision::Low))
}

fn options() -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(20))
}

/// Per-process-unique scratch path so concurrent test binaries never race
/// on one file; callers remove it at the end of the happy path (leftover
/// files from a panicking run are overwritten atomically next time).
fn tmp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "milpjoin-plan-persist-{}-{name}.snap",
        std::process::id()
    ))
}

/// Value identity: plan, exact cost, bound, certificate. `cache_hit` is
/// deliberately excluded — on a warm boot *every* query is a hit, while
/// the recording run solved each structure once.
fn assert_values_identical(label: &str, recorded: &SessionOutcome, warm: &SessionOutcome) {
    assert_eq!(recorded.outcome.plan, warm.outcome.plan, "{label}: plan");
    assert_eq!(
        recorded.outcome.cost.to_bits(),
        warm.outcome.cost.to_bits(),
        "{label}: cost {} vs {}",
        recorded.outcome.cost,
        warm.outcome.cost
    );
    assert_eq!(
        recorded.outcome.bound.map(f64::to_bits),
        warm.outcome.bound.map(f64::to_bits),
        "{label}: bound"
    );
    assert_eq!(
        recorded.outcome.proven_optimal, warm.outcome.proven_optimal,
        "{label}: proven_optimal"
    );
    assert!(warm.cache_hit, "{label}: warm boot must serve from cache");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Round trip: record a stream, snapshot, boot a fresh session from
    /// the snapshot. The warm session re-serves the whole stream with
    /// zero backend solves and value-identical outcomes, and re-exporting
    /// the untouched warm cache reproduces the snapshot byte for byte.
    #[test]
    fn snapshot_round_trip_serves_with_zero_solves(
        (seed, tables, copies) in (0u64..500, 3usize..=5, 1usize..=3)
    ) {
        let (catalog, queries) = mixed_stream(seed, tables, 2, copies);
        let path = tmp_snapshot(&format!("roundtrip-{seed}-{tables}-{copies}"));
        let reexport = tmp_snapshot(&format!("reexport-{seed}-{tables}-{copies}"));

        let mut recorder =
            PlanSession::new(catalog.clone(), Box::new(backend())).with_options(options());
        let expected = recorder.optimize_batch(&queries);
        let written = recorder.snapshot_to(&path).unwrap();
        prop_assert_eq!(written.entries, recorder.cache_len() as u64);
        prop_assert_eq!(recorder.explain().snapshot_entries_written, written.entries);

        let mut warm = PlanSession::new(catalog, Box::new(backend()))
            .with_options(options())
            .with_snapshot(&path);
        let boot = warm.explain();
        prop_assert_eq!(boot.snapshot_entries_loaded, written.entries);
        prop_assert_eq!(boot.snapshot_entries_rejected, 0);

        // Re-exporting the freshly booted cache is deterministic down to
        // the byte: recency ranks, entry order, and hashes all survive.
        warm.snapshot_to(&reexport).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&reexport).unwrap());

        let served = warm.optimize_batch(&queries);
        for (i, (e, w)) in expected.iter().zip(&served).enumerate() {
            assert_values_identical(
                &format!("seed={seed} query={i}"),
                e.as_ref().unwrap(),
                w.as_ref().unwrap(),
            );
        }
        let stats = warm.explain();
        prop_assert_eq!(stats.backend_solves, 0);
        prop_assert_eq!(stats.warm_hits, queries.len() as u64);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&reexport).ok();
    }
}

/// Shared fixture for the corruption tests: one recorded snapshot plus the
/// stream that produced it.
fn recorded_snapshot(name: &str) -> (PathBuf, Catalog, Vec<Query>, u64) {
    let (catalog, queries) = mixed_stream(42, 4, 2, 2);
    let path = tmp_snapshot(name);
    let mut recorder =
        PlanSession::new(catalog.clone(), Box::new(backend())).with_options(options());
    recorder.optimize_batch(&queries);
    let written = recorder.snapshot_to(&path).unwrap();
    (path, catalog, queries, written.entries)
}

/// Boots a session from `path` and asserts a clean cold boot: nothing
/// loaded, at least one rejection counted, and the full stream still
/// solves correctly from scratch.
fn assert_cold_boot(label: &str, path: &PathBuf, catalog: Catalog, queries: &[Query]) {
    let mut session = PlanSession::new(catalog, Box::new(backend()))
        .with_options(options())
        .with_snapshot(path);
    let boot = session.explain();
    assert_eq!(boot.snapshot_entries_loaded, 0, "{label}: nothing loads");
    assert!(
        boot.snapshot_entries_rejected >= 1,
        "{label}: rejections counted"
    );
    for result in session.optimize_batch(queries) {
        result.unwrap();
    }
    let stats = session.explain();
    assert!(stats.backend_solves > 0, "{label}: cold boot re-solves");
    assert_eq!(stats.warm_hits, 0, "{label}: no stale warm entries");
}

#[test]
fn truncated_snapshot_degrades_to_a_clean_cold_boot() {
    let (path, catalog, queries, _) = recorded_snapshot("truncated");
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert_cold_boot(&format!("cut={cut}"), &path, catalog.clone(), &queries);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_byte_degrades_to_a_clean_cold_boot() {
    let (path, catalog, queries, _) = recorded_snapshot("flipped");
    let bytes = std::fs::read(&path).unwrap();
    // A handful of positions spread across header, body, and checksum;
    // the persist unit tests flip every byte exhaustively on small caches.
    for pos in [0, 9, 20, bytes.len() / 2, bytes.len() - 3] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        assert_cold_boot(&format!("pos={pos}"), &path, catalog.clone(), &queries);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn future_version_rejects_even_with_a_valid_checksum() {
    let (path, catalog, queries, _) = recorded_snapshot("version");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_add(1); // format version lives after the magic
    let body_len = bytes.len() - 8;
    let reseal = fnv1a64(&bytes[..body_len]).to_le_bytes();
    bytes[body_len..].copy_from_slice(&reseal);
    std::fs::write(&path, &bytes).unwrap();
    assert_cold_boot("version-bump", &path, catalog, &queries);
    std::fs::remove_file(&path).ok();
}

/// Recomputes the FNV-1a trailer so the decoder gets past the checksum.
fn reseal(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let checksum = fnv1a64(&bytes[..body_len]).to_le_bytes();
    bytes[body_len..].copy_from_slice(&checksum);
}

/// A seeded sweep of 2,000 body mutations of a recorded 12-entry
/// snapshot — flipped bits, inserted and deleted bytes, and overwritten
/// words that read as small counts (length fields, join-order indices,
/// ranks) — each resealed so the records are decoded. Loading never
/// panics and never loads more entries than were written, and a service
/// booted from each file answers the recording stream with plans that
/// validate at their exact cost. Certificates are not part of the
/// property: the checksum detects corruption, it does not authenticate,
/// so a resealed bound or optimality flag is believed.
#[test]
fn resealed_mutations_never_serve_an_invalid_plan() {
    let (catalog, queries) = mixed_stream(5, 4, 4, 2);
    let path = tmp_snapshot("mutations");
    let mut recorder = PlanSession::new(catalog.clone(), Box::new(DpOptimizer::default()));
    recorder.optimize_batch(&queries);
    let written = recorder.snapshot_to(&path).unwrap();
    assert_eq!(written.entries, 12);
    let original = std::fs::read(&path).unwrap();
    // Magic, version, two hashes and the entry count; then the records,
    // then the 8-byte checksum.
    let body = 8 + 4 + 8 + 8 + 8..original.len() - 8;
    let small_words: Vec<usize> = body
        .clone()
        .filter(|&at| at + 8 <= body.end)
        .filter(|&at| u64::from_le_bytes(original[at..at + 8].try_into().unwrap()) < 256)
        .collect();
    let (model, params) = DpOptimizer::default().cost_model();
    // SplitMix64: a fixed stream of mutations.
    let mut state = 0x5eed_u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    for round in 0..2000 {
        let mut bytes = original.clone();
        let at = body.start + next(body.len());
        let kind = match round % 4 {
            0 => {
                bytes[at] ^= 1 << next(8);
                "flip"
            }
            1 => {
                bytes.insert(at, next(256) as u8);
                "insert"
            }
            2 => {
                bytes.remove(at);
                "delete"
            }
            _ => {
                let word = small_words[next(small_words.len())];
                let value = [0, 1, 2, 255, u64::MAX, next(1 << 20) as u64][next(6)];
                bytes[word..word + 8].copy_from_slice(&value.to_le_bytes());
                "overwrite"
            }
        };
        let label = format!("round {round} ({kind} at {at})");
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let service = QueryService::new(catalog.clone(), DpOptimizer::default())
            .with_workers(1)
            .with_snapshot(&path);
        let boot = service.explain();
        assert!(boot.snapshot_entries_loaded <= 12, "{label}: {boot:?}");
        let tickets = service.submit_many(queries.iter().cloned());
        for (query, ticket) in queries.iter().zip(&tickets) {
            let out = ticket.wait().unwrap_or_else(|e| panic!("{label}: {e}"));
            out.outcome.plan.validate(query).unwrap();
            let cost = plan_cost(&catalog, query, &out.outcome.plan, model, &params).total;
            assert_eq!(out.outcome.cost.to_bits(), cost.to_bits(), "{label}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn fingerprint_option_mismatch_rejects_every_entry() {
    let (path, catalog, queries, entries) = recorded_snapshot("fp-mismatch");
    let coarser = FingerprintOptions {
        log10_step: 0.5,
        ..FingerprintOptions::default()
    };
    let mut session = PlanSession::new(catalog, Box::new(backend()))
        .with_options(options())
        .with_fingerprint_options(coarser)
        .with_snapshot(&path);
    let boot = session.explain();
    assert_eq!(boot.snapshot_entries_loaded, 0);
    assert_eq!(
        boot.snapshot_entries_rejected, entries,
        "a quantization-config mismatch must reject the whole snapshot"
    );
    // Still a working cold session under the new quantization.
    for result in session.optimize_batch(&queries) {
        result.unwrap();
    }
    assert_eq!(session.explain().warm_hits, 0);
    std::fs::remove_file(&path).ok();
}

/// The service-tier loop the issue describes: boot → serve → shutdown
/// persists → boot again → the second service absorbs the entire stream
/// from the snapshot with zero backend solves.
#[test]
fn service_warm_boot_serves_with_zero_solves() {
    let (catalog, queries) = mixed_stream(7, 4, 2, 3);
    let path = tmp_snapshot("service-warmboot");
    std::fs::remove_file(&path).ok();

    let cold = QueryService::new(catalog.clone(), backend())
        .with_workers(2)
        .with_options(options())
        .with_snapshot(&path);
    let expected: Vec<SessionOutcome> = cold
        .submit_many(queries.iter().cloned())
        .iter()
        .map(|t| t.wait().unwrap())
        .collect();
    let cold_stats = cold.shutdown(); // drop path writes the snapshot
    assert!(cold_stats.backend_solves > 0);
    assert_eq!(
        cold_stats.snapshot_entries_written, 6,
        "3 topologies x 2 unique"
    );

    let warm = QueryService::new(catalog, backend())
        .with_workers(2)
        .with_options(options())
        .with_snapshot(&path);
    assert_eq!(warm.explain().snapshot_entries_loaded, 6);
    assert_eq!(warm.explain().snapshot_entries_rejected, 0);
    let tickets = warm.submit_many(queries.iter().cloned());
    for (i, (e, t)) in expected.iter().zip(&tickets).enumerate() {
        assert_values_identical(&format!("service query={i}"), e, &t.wait().unwrap());
    }
    let warm_stats = warm.shutdown();
    assert_eq!(warm_stats.backend_solves, 0, "warm boot absorbs the stream");
    assert_eq!(warm_stats.warm_hits, queries.len() as u64);
    std::fs::remove_file(&path).ok();
}

/// An explicit mid-serving `snapshot()` must not block submissions: the
/// export runs against brief per-shard locks, never the claim protocol.
#[test]
fn explicit_snapshot_while_serving_does_not_block() {
    let (catalog, queries) = mixed_stream(13, 4, 2, 2);
    let path = tmp_snapshot("live-export");
    let service = QueryService::new(catalog, backend())
        .with_workers(2)
        .with_options(options());
    let tickets = service.submit_many(queries.iter().cloned());
    let written = service.snapshot(&path).unwrap();
    for t in &tickets {
        t.wait().unwrap();
    }
    // The live export saw some prefix of the cache (possibly empty); a
    // post-drain export captures everything.
    let finished = service.snapshot(&path).unwrap();
    assert!(finished.entries >= written.entries);
    assert_eq!(finished.entries, 6);
    assert_eq!(
        service.explain().snapshot_entries_written,
        written.entries + finished.entries
    );
    service.shutdown();
    std::fs::remove_file(&path).ok();
}
