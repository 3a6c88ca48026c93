//! Kill-point atomicity matrix: for every injected crash offset during a
//! streaming pack, the on-disk state must be exactly one of
//!
//! 1. destination **absent** (it never existed and was never published),
//! 2. the **old file byte-intact** (the crash hit before the atomic
//!    rename), or
//! 3. **fully committed and scrub-clean** (the crash threshold was past
//!    the last byte).
//!
//! Never a readable-but-wrong store at the destination, and the torn
//! `.tmp` a crash strands is always an exact byte prefix of the true
//! container — re-running the pack heals it. `ENOSPC` aborts must be
//! cleaner still: typed, no temp file, destination untouched.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use zmesh::CompressionConfig;
use zmesh_amr::{datasets, AmrField, StorageMode};
use zmesh_store::faultinject::{FaultSink, FaultSpec};
use zmesh_store::{scrub, FileSink, Parity, StoreError, StoreReader, StoreWriter, StreamOptions};

const PARITIES: [Parity; 3] = [
    Parity::None,                      // v2
    Parity::Xor { width: 3 },          // v3
    Parity::Rs { data: 4, parity: 2 }, // v4 (commit record)
];

fn dataset() -> &'static datasets::Dataset {
    static DS: OnceLock<datasets::Dataset> = OnceLock::new();
    DS.get_or_init(|| datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny))
}

fn fields(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

fn writer_for(parity: Parity) -> StoreWriter {
    StoreWriter::new(CompressionConfig::zmesh_default())
        .with_chunk_target_bytes(512)
        .with_parity(parity)
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zmesh_write_crash_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn tmp_of(dest: &Path) -> PathBuf {
    let mut s = dest.as_os_str().to_os_string();
    s.push(".tmp");
    PathBuf::from(s)
}

/// Crash offsets covering every structural region of a `total`-byte store:
/// the first bytes (header), a dense stride through data and parity, and
/// the hair around the trailer/commit record where torn-write bugs live.
fn crash_offsets(total: u64) -> Vec<u64> {
    let mut offsets = vec![0, 1, 5, 13];
    let step = (total / 16).max(1);
    offsets.extend((1..16).map(|i| i * step));
    offsets.extend([
        total.saturating_sub(33),
        total.saturating_sub(17),
        total.saturating_sub(16),
        total.saturating_sub(15),
        total.saturating_sub(8),
        total.saturating_sub(1),
        total, // past the last byte: the pack completes and commits
    ]);
    offsets.sort_unstable();
    offsets.dedup();
    offsets.retain(|&o| o <= total);
    offsets
}

#[test]
fn kill_point_matrix_never_leaves_a_readable_wrong_store() {
    let old_marker = b"previous store generation - must survive byte-intact".to_vec();
    for parity in PARITIES {
        let want = writer_for(parity)
            .write(&fields(dataset()))
            .expect("in-memory reference")
            .bytes;
        let total = want.len() as u64;
        let writer = writer_for(parity); // one writer: recipe cache warm across the matrix
        let dir = workdir(&format!("matrix_v{}", parity.store_version()));
        for old in [None, Some(&old_marker)] {
            for kill in crash_offsets(total) {
                let dest = dir.join(format!("out_{kill}_{}.zms", old.is_some()));
                match old {
                    Some(bytes) => std::fs::write(&dest, bytes).expect("seed old store"),
                    None => {
                        let _ = std::fs::remove_file(&dest);
                    }
                }
                let file = FileSink::create(&dest).expect("create sink");
                let tmp = tmp_of(&dest);
                let mut sink = FaultSink::new(
                    file,
                    FaultSpec {
                        crash_at: Some(kill),
                        ..FaultSpec::default()
                    },
                );
                let result =
                    writer.write_to_sink(&fields(dataset()), &mut sink, &StreamOptions::default());
                if sink.stats().crashed {
                    // A killed process never runs its cleanup.
                    sink.inner_mut().preserve_tmp_on_drop();
                }
                let crashed = sink.stats().crashed;
                drop(sink);

                if kill >= total {
                    // Outcome 3: fully committed and scrub-clean.
                    assert!(!crashed, "kill past the end must not fire");
                    result.expect("pack must complete");
                    assert_eq!(
                        std::fs::read(&dest).expect("committed store"),
                        want,
                        "committed store must be byte-exact (parity {parity:?})"
                    );
                    assert!(
                        scrub(&std::fs::read(&dest).unwrap())
                            .expect("scrub")
                            .is_clean(),
                        "committed store must scrub clean"
                    );
                    assert!(!tmp.exists(), "commit must consume the temp file");
                } else {
                    // Outcomes 1 / 2: the publish never happened.
                    assert!(result.is_err(), "kill at {kill} must fail the pack");
                    match old {
                        None => assert!(
                            !dest.exists(),
                            "kill at {kill}: destination must stay absent (parity {parity:?})"
                        ),
                        Some(bytes) => assert_eq!(
                            &std::fs::read(&dest).expect("old store"),
                            bytes,
                            "kill at {kill}: old store must stay byte-intact (parity {parity:?})"
                        ),
                    }
                    // The stranded tmp is an exact prefix of the true
                    // container — torn, never wrong.
                    let torn = std::fs::read(&tmp).expect("crashed pack strands its tmp");
                    assert_eq!(
                        torn,
                        &want[..kill as usize],
                        "kill at {kill}: torn tmp must be an exact prefix (parity {parity:?})"
                    );
                    // And a torn prefix can never pass for a complete store.
                    assert!(
                        StoreReader::open(&torn).is_err(),
                        "kill at {kill}: torn prefix must not open (parity {parity:?})"
                    );
                    assert!(
                        scrub(&torn).is_err(),
                        "kill at {kill}: torn prefix must not scrub clean (parity {parity:?})"
                    );
                    std::fs::remove_file(&tmp).expect("clear tmp for next point");
                }
                let _ = std::fs::remove_file(&dest);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn rerunning_a_pack_heals_a_stranded_tmp() {
    for parity in PARITIES {
        let want = writer_for(parity)
            .write(&fields(dataset()))
            .expect("in-memory reference")
            .bytes;
        let writer = writer_for(parity);
        let dir = workdir(&format!("heal_v{}", parity.store_version()));
        let dest = dir.join("out.zms");
        for kill in [1u64, want.len() as u64 / 2, want.len() as u64 - 1] {
            let file = FileSink::create(&dest).expect("create sink");
            let mut sink = FaultSink::new(
                file,
                FaultSpec {
                    crash_at: Some(kill),
                    ..FaultSpec::default()
                },
            );
            let _ = writer.write_to_sink(&fields(dataset()), &mut sink, &StreamOptions::default());
            sink.inner_mut().preserve_tmp_on_drop();
            drop(sink);
            assert!(tmp_of(&dest).exists(), "precondition: stranded tmp");

            // The rerun truncates the stale tmp and publishes atomically.
            writer
                .write_streaming_to_path(&fields(dataset()), &dest, &StreamOptions::default())
                .expect("rerun pack");
            assert_eq!(std::fs::read(&dest).expect("healed store"), want);
            assert!(!tmp_of(&dest).exists(), "rerun must consume the tmp");
            let _ = std::fs::remove_file(&dest);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn enospc_aborts_typed_and_clean() {
    let old_marker = b"old bytes".to_vec();
    for parity in PARITIES {
        let want = writer_for(parity)
            .write(&fields(dataset()))
            .expect("in-memory reference")
            .bytes;
        let total = want.len() as u64;
        let writer = writer_for(parity);
        let dir = workdir(&format!("enospc_v{}", parity.store_version()));
        for wall in [0, 20, total / 2, total - 1] {
            for old in [None, Some(&old_marker)] {
                let dest = dir.join(format!("out_{wall}_{}.zms", old.is_some()));
                match old {
                    Some(bytes) => std::fs::write(&dest, bytes).expect("seed old store"),
                    None => {
                        let _ = std::fs::remove_file(&dest);
                    }
                }
                let file = FileSink::create(&dest).expect("create sink");
                let tmp = tmp_of(&dest);
                let mut sink = FaultSink::new(
                    file,
                    FaultSpec {
                        enospc_at: Some(wall),
                        ..FaultSpec::default()
                    },
                );
                let err = writer
                    .write_to_sink(&fields(dataset()), &mut sink, &StreamOptions::default())
                    .expect_err("a wall below the store size must abort");
                assert!(
                    matches!(err, StoreError::NoSpace(_)),
                    "want typed NoSpace, got {err}"
                );
                drop(sink); // the scope guard runs: ENOSPC is not a crash
                assert!(
                    !tmp.exists(),
                    "ENOSPC abort must remove the temp file (wall {wall})"
                );
                match old {
                    None => assert!(!dest.exists(), "destination must stay absent"),
                    Some(bytes) => assert_eq!(
                        &std::fs::read(&dest).expect("old store"),
                        bytes,
                        "old store must stay byte-intact"
                    ),
                }
                let _ = std::fs::remove_file(&dest);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
