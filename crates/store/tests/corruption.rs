//! Corruption and truncation tests for the paged store: damaged files must
//! fail with a typed [`StoreError`] — naming the bad page when the damage
//! is page-locatable — never with a panic or silently wrong results.

use gmark_store::{
    EdgeSink, GraphBuilder, StoreError, StoreMeta, StoreReader, StoreWriter, TypePartition,
};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

const PAGE: u32 = 64; // smallest legal page: puts regions on distinct pages

/// Builds a small two-predicate store in a fresh scratch directory and
/// returns `(dir, path, first_segment_pos)` — the byte position of the
/// first (predicate 0, forward) offsets array, which starts at the first
/// page boundary after the header region.
fn build_store(tag: &str) -> (PathBuf, PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("gstore-corrupt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.gstore");
    let names = vec!["authors".to_owned(), "cite%2Fs".to_owned()];
    let partition = TypePartition::from_counts(&[3, 2]);
    let mut b = GraphBuilder::new(partition.clone(), names.len());
    for (s, p, t) in [
        (0u32, 0usize, 3u32),
        (1, 0, 3),
        (2, 0, 4),
        (3, 1, 0),
        (4, 1, 2),
    ] {
        b.edge(s, p, t);
    }
    let g = b.build();
    let meta = StoreMeta {
        seed: 9,
        schema_hash: 0x5eed,
        page_size: PAGE,
        predicate_names: names.clone(),
        partition,
    };
    StoreWriter::write_graph(&path, &meta, &g).unwrap();
    // Header region: 48 fixed + Σ(4 + len) names + (types + 1) × 4
    // partition offsets, zero-padded to the next page boundary.
    let header = 48 + names.iter().map(|n| 4 + n.len() as u64).sum::<u64>() + (2 + 1) * 4;
    let first_seg = header.div_ceil(PAGE as u64) * PAGE as u64;
    (dir, path, first_seg)
}

fn patch(path: &Path, pos: u64, change: impl FnOnce(u8) -> u8) {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    f.seek(SeekFrom::Start(pos)).unwrap();
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte).unwrap();
    f.seek(SeekFrom::Start(pos)).unwrap();
    f.write_all(&[change(byte[0])]).unwrap();
}

#[test]
fn bit_flip_in_an_offsets_page_names_the_page() {
    let (dir, path, first_seg) = build_store("offsets");
    // offset[1] of the first segment lives at first_seg + 4; making it huge
    // breaks monotonicity against the segment's edge count.
    patch(&path, first_seg + 4, |_| 0xFF);
    let r = StoreReader::open(&path).unwrap();
    match r.verify() {
        Err(StoreError::Corrupt { page, what, .. }) => {
            assert_eq!(page, Some(first_seg / PAGE as u64), "wrong page: {what}");
            assert!(what.contains("monotonicity"), "unexpected message: {what}");
        }
        other => panic!("expected Corrupt naming a page, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_padding_fails_the_checksum_without_a_page() {
    let (dir, path, first_seg) = build_store("padding");
    // The offsets array covers the hull of sources 0..=2: 4 × 4 = 16
    // bytes; the tail of its 64-byte page is zero padding — structurally invisible, caught only by the
    // whole-file checksum, which cannot localize it.
    patch(&path, first_seg + 60, |b| b ^ 0x40);
    let r = StoreReader::open(&path).unwrap();
    match r.verify() {
        Err(StoreError::Corrupt {
            page: None, what, ..
        }) => {
            assert!(what.contains("checksum"), "unexpected message: {what}");
        }
        other => panic!("expected an unlocatable checksum failure, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_magic_is_not_a_store() {
    let (dir, path, _) = build_store("magic");
    patch(&path, 0, |b| b ^ 0x01);
    match StoreReader::open(&path) {
        Err(StoreError::NotAStore { .. }) => {}
        other => panic!("expected NotAStore, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_files_are_rejected_at_open() {
    let (dir, path, _) = build_store("truncate");
    let full = std::fs::metadata(&path).unwrap().len();
    // Chop the file mid-segments: the trailing end magic vanishes.
    let f = OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(full / 2).unwrap();
    match StoreReader::open(&path) {
        Err(StoreError::NotAStore { what, .. }) => {
            assert!(what.contains("truncated"), "unexpected message: {what}");
        }
        other => panic!("expected NotAStore for a truncated file, got {other:?}"),
    }
    // Shorter than even the fixed header + footer.
    f.set_len(10).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(StoreError::NotAStore { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_directory_count_is_caught_structurally() {
    let (dir, path, _) = build_store("directory");
    // The directory's total-edges field is the first u64 of the directory
    // page; dir_pos is recorded in the footer (file_len - 24).
    let full = std::fs::metadata(&path).unwrap().len();
    let mut f = OpenOptions::new().read(true).open(&path).unwrap();
    f.seek(SeekFrom::Start(full - 24)).unwrap();
    let mut dir_pos = [0u8; 8];
    f.read_exact(&mut dir_pos).unwrap();
    let dir_pos = u64::from_le_bytes(dir_pos);
    drop(f);
    patch(&path, dir_pos, |b| b.wrapping_add(1));
    // open() cross-checks the directory total against the segment sums.
    match StoreReader::open(&path) {
        Err(StoreError::Corrupt { page, .. }) => {
            assert_eq!(page, Some(dir_pos / PAGE as u64));
        }
        other => panic!("expected Corrupt at the directory page, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A store of 80 nodes whose four segments each span several 64-byte
/// pages, the graph it was written from, and the byte ranges of its
/// sections, named, in file order.
fn multi_page_store(dir: &Path) -> (PathBuf, gmark_store::Graph, Vec<(String, Range<u64>)>) {
    let path = dir.join("g.gstore");
    let names = vec!["knows".to_owned(), "likes".to_owned()];
    let partition = TypePartition::from_counts(&[40, 40]);
    let mut b = GraphBuilder::new(partition.clone(), names.len());
    for i in 0..60u32 {
        b.edge(5 + i % 35, 0, 40 + (i * 7) % 33);
        b.edge(41 + i % 36, 1, (i * 11) % 37);
    }
    let g = b.build();
    let meta = StoreMeta {
        seed: 3,
        schema_hash: 0xfeed,
        page_size: PAGE,
        predicate_names: names.clone(),
        partition,
    };
    let len = StoreWriter::write_graph(&path, &meta, &g).unwrap().bytes;

    // The layout, written out from the format's definition.
    let page = |pos: u64| pos.div_ceil(PAGE as u64) * PAGE as u64;
    let names_end = 48 + names.iter().map(|n| 4 + n.len() as u64).sum::<u64>();
    let partition_end = names_end + 3 * 4;
    let mut sections = vec![
        ("header".to_owned(), 0..48),
        ("name table".to_owned(), 48..names_end),
        ("partition".to_owned(), names_end..partition_end),
    ];
    let mut pos = page(partition_end);
    for pred in 0..2 {
        for (csr, dir) in [(g.forward(pred), "forward"), (g.backward(pred), "backward")] {
            let offsets_end = pos + csr.offsets().len() as u64 * 4;
            sections.push((format!("{pred} {dir} offsets"), pos..offsets_end));
            let targets = page(offsets_end);
            let targets_end = targets + csr.edge_count() as u64 * 4;
            sections.push((format!("{pred} {dir} targets"), targets..targets_end));
            pos = page(targets_end);
        }
    }
    sections.push(("directory".to_owned(), pos..len - 24));
    sections.push(("footer".to_owned(), len - 24..len));
    (path, g, sections)
}

/// Opens and verifies the store: the `StoreError`, if any.
fn open_and_verify(path: &Path) -> Result<StoreReader, StoreError> {
    let r = StoreReader::open(path)?;
    r.verify()?;
    Ok(r)
}

#[test]
fn hostile_bytes_in_every_section_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("gstore-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (path, g, sections) = multi_page_store(&dir);
    let written = std::fs::read(&path).unwrap();
    let wanted = |pred: usize, inverse: bool| {
        if inverse {
            g.backward(pred)
        } else {
            g.forward(pred)
        }
    };
    let r = open_and_verify(&path).unwrap();
    for pred in 0..2 {
        for inverse in [false, true] {
            let csr = wanted(pred, inverse);
            assert!(
                csr.offsets().len() * 4 > 2 * PAGE as usize,
                "{pred} {inverse}"
            );
            assert!(csr.edge_count() * 4 > 2 * PAGE as usize, "{pred} {inverse}");
            assert_eq!(&r.csr(pred, inverse).unwrap(), csr);
        }
    }
    drop(r);
    let damaged = dir.join("damaged.gstore");

    // Truncated at the start and the end of every section.
    for (name, range) in &sections {
        for cut in [range.start, range.end] {
            if cut == written.len() as u64 {
                continue;
            }
            std::fs::write(&damaged, &written[..cut as usize]).unwrap();
            let outcome = std::panic::catch_unwind(|| open_and_verify(&damaged).map(drop));
            assert!(
                matches!(outcome, Ok(Err(_))),
                "cut at {cut} ({name}): {outcome:?}"
            );
        }
    }

    // Every byte of every section flipped to its complement, and each of
    // its bits alone. Nothing panics, and `open` or `verify` refuses every
    // flip. Nodes and edge counts stay below 128 here, so a complement
    // moves a count, an offset, a target, a base or a span out of its
    // range: `csr` finds it on the page of the flipped byte, or `open`
    // refuses the file, and the remaining bytes (seed, schema hash,
    // checksum) leave every CSR as it was written. A single bit can leave
    // a word in range and in order; only the checksum sees that.
    for (name, range) in &sections {
        let in_segment = name.ends_with("offsets") || name.ends_with("targets");
        for pos in range.clone() {
            for mask in [0xFF, 1, 2, 4, 8, 16, 32, 64, 128] {
                let mut bytes = written.clone();
                bytes[pos as usize] ^= mask;
                std::fs::write(&damaged, &bytes).unwrap();
                let outcome = std::panic::catch_unwind(|| {
                    StoreReader::open(&damaged).map(|r| {
                        let csrs: Vec<_> = (0..4).map(|i| r.csr(i / 2, i % 2 == 1)).collect();
                        (csrs, r.verify())
                    })
                });
                let Ok(loaded) = outcome else {
                    panic!("flip {mask:#x} at {pos} ({name}) panicked");
                };
                let Ok((csrs, verified)) = loaded else {
                    continue;
                };
                assert!(
                    verified.is_err(),
                    "flip {mask:#x} at {pos} ({name}) verified"
                );
                if mask != 0xFF {
                    continue;
                }
                for (i, csr) in csrs.into_iter().enumerate() {
                    match csr {
                        Ok(csr) => assert_eq!(&csr, wanted(i / 2, i % 2 == 1), "{pos} ({name})"),
                        Err(StoreError::Corrupt {
                            page: Some(page), ..
                        }) if in_segment => {
                            assert_eq!(page, pos / PAGE as u64, "{pos} ({name})")
                        }
                        other => panic!("flip at {pos} ({name}): segment {i} gave {other:?}"),
                    }
                }
            }
        }
    }

    // A file whose header says version 1 (offsets for every node) or 2
    // (`u64` offsets over the hull) is refused by name.
    for old in [1u32, 2] {
        let mut bytes = written.clone();
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&damaged, &bytes).unwrap();
        match StoreReader::open(&damaged) {
            Err(e @ StoreError::Version { found, .. }) if found == old => {
                let shown = e.to_string();
                assert!(shown.contains(&format!("version {old}")), "{shown}");
                assert!(shown.contains("reads only version 3"), "{shown}");
            }
            other => panic!("expected a version-{old} refusal, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
