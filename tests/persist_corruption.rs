//! Corruption suite for the persisted image decoders (`SEOR` oracle
//! images and `SEAT` atlas images): **every** single-byte flip and
//! **every** truncation of a valid image must yield a typed `Err` — never
//! a panic, and never an allocation larger than (a small multiple of) the
//! input itself.
//!
//! The allocation bound is enforced for real: a tracking global allocator
//! records the largest single allocation requested on the loading thread,
//! which is exactly the regression the hardened decoder fixed — a corrupt
//! length field used to drive `vec![0u8; len]` before any byte of the
//! declared payload was checked against reality.
//!
//! Level-4 images are covered exhaustively (every offset × several flip
//! masks; every truncation point). Level-5 images are larger, so they get
//! exhaustive coverage of the header and trailer plus a prime-strided
//! sweep of the interior — same property, sampled.
//!
//! Compact images (`SEOR` v3, `SEAT` v2, as this build writes them) run
//! the same exhaustive batteries — every byte flip (including flips inside quantization headers: the qtable
//! mode/scale/offset fields live in the payload, so the sweep crosses
//! them) and every truncation, under the same strict allocation bound,
//! because the frame checksum rejects any payload damage before the
//! parser runs. A second battery *repairs* the checksum after each flip
//! so the corrupt bytes actually reach the compact varint/qtable parsers;
//! there the outcome may legitimately be `Ok` (a flipped distance is
//! still a distance) — the contract is no panic and a bounded decode
//! (compact varint counts can amplify transiently: a node record decodes to
//! ~56 resident bytes from a few varint bytes, so this battery gets a
//! correspondingly wider 32×input+64 KiB bound). Every tampered image
//! that does load is then queried over every site pair through its
//! checked kernel, which must answer or return a typed error — never
//! panic.
//!
//! The v1 and v2 images are checked-in fixtures (`tests/fixtures/v1/`,
//! `tests/fixtures/v2/`), written by the encoders of earlier builds: this
//! build reads them but writes only `SEOR` v3 and `SEAT` v2 with v3 tiles.
//! Each fixture is checked to carry its version word before use, and one
//! test per version pins that each decodes to what its constructor builds.
//! Both legacy versions store every node pair twice, once per orientation,
//! so these tests also pin the loader's canonicalisation.
//!
//! Atlas damage also goes through the out-of-core open: the image is
//! written to a file and opened with `Atlas::open_out_of_core`, the loader
//! a serving process uses. A strided sweep of flips and truncations must
//! be rejected there with a typed error under the same allocation bound,
//! and after a checksum fix-up it must accept exactly the images the
//! resident loader accepts.

mod common;

use common::{build_p2p, mesh_with_pois, refine_sites, tmp_dir};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use terrain_oracle::oracle::atlas::{Atlas, AtlasConfig};
use terrain_oracle::oracle::persist::PersistError;
use terrain_oracle::oracle::{ProbeStats, QueryError, SeOracle};
use terrain_oracle::prelude::*;
use terrain_oracle::terrain::tile::TileGridConfig;

// ---------------------------------------------------------------------------
// Per-thread peak-allocation tracking.
//
// Integration tests run on many threads at once, so a process-global
// high-water mark would blame this suite for a neighbour's allocations;
// tracking per thread keeps every measurement honest. `try_with` guards
// the TLS-teardown window.
// ---------------------------------------------------------------------------

thread_local! {
    static PEAK_ALLOC: Cell<usize> = const { Cell::new(0) };
}

struct PeakTracking;

fn note(size: usize) {
    let _ = PEAK_ALLOC.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(p, l, new_size)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: PeakTracking = PeakTracking;

fn reset_peak() {
    let _ = PEAK_ALLOC.try_with(|c| c.set(0));
}

fn peak() -> usize {
    PEAK_ALLOC.try_with(|c| c.get()).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Fixtures: valid images — checked-in v1 and v2 files, and current images
// built once per kind.
// ---------------------------------------------------------------------------

/// A checked-in image, after checking that it carries version word
/// `version`.
fn fixture(image: &'static [u8], version: u32) -> &'static [u8] {
    assert_eq!(image[4..8], version.to_le_bytes(), "fixture is not a v{version} image");
    image
}

/// `build_p2p(101, 16, 0.25, EngineKind::EdgeGraph)`, v1.
fn seor_level4() -> &'static [u8] {
    fixture(include_bytes!("fixtures/v1/oracle-l4.seor"), 1)
}

/// [`oracle_level5`], v1.
fn seor_level5() -> &'static [u8] {
    fixture(include_bytes!("fixtures/v1/oracle-l5.seor"), 1)
}

/// `build_atlas(4, 409, 24)`, v1.
fn seat_level4() -> &'static [u8] {
    fixture(include_bytes!("fixtures/v1/atlas-l4.seat"), 1)
}

/// `build_atlas(5, 410, 28)`, v1.
fn seat_level5() -> &'static [u8] {
    fixture(include_bytes!("fixtures/v1/atlas-l5.seat"), 1)
}

/// [`oracle_level5`] as a raw `SEOR` v2 image.
fn seor_level5_fixture_v2() -> &'static [u8] {
    fixture(include_bytes!("fixtures/v2/oracle-l5.seor"), 2)
}

/// [`oracle_level5`] as a compressed `SEOR` v2 image.
fn seor_level5_fixture_v2_compressed() -> &'static [u8] {
    fixture(include_bytes!("fixtures/v2/oracle-l5-c.seor"), 2)
}

/// `build_atlas(4, 409, 24)` as a raw `SEAT` v2 image with v2 tiles.
fn seat_level4_fixture_v2() -> &'static [u8] {
    fixture(include_bytes!("fixtures/v2/atlas-l4.seat"), 2)
}

/// A P2P oracle over `mesh_with_pois(5, 0.6, 102, 24)`, ε 0.25, edge
/// engine.
fn oracle_level5() -> SeOracle {
    let (mesh, pois) = mesh_with_pois(5, 0.6, 102, 24);
    P2POracle::build(&mesh, &pois, 0.25, EngineKind::EdgeGraph, &BuildConfig::default())
        .unwrap()
        .into_oracle()
}

fn build_atlas(level: u32, seed: u64, n: usize) -> Atlas {
    let (mesh, pois) = mesh_with_pois(level, 0.6, seed, n);
    let (refined, sites) = refine_sites(&mesh, &pois);
    let cfg = AtlasConfig {
        grid: TileGridConfig { portal_spacing: 2, ..Default::default() },
        ..Default::default()
    };
    Atlas::build_over_vertices(Arc::new(refined.mesh), sites, 0.25, EngineKind::EdgeGraph, &cfg)
        .unwrap()
}

/// Compact, compressed variants of the level-4 fixtures, in the current
/// formats (`SEOR` v3, `SEAT` v2 with v3 tiles).
fn seor_level4_v2() -> &'static [u8] {
    static B: OnceLock<Vec<u8>> = OnceLock::new();
    B.get_or_init(|| {
        build_p2p(101, 16, 0.25, EngineKind::EdgeGraph).into_oracle().save_bytes_compact(true)
    })
}

fn seat_level4_v2() -> &'static [u8] {
    static B: OnceLock<Vec<u8>> = OnceLock::new();
    B.get_or_init(|| build_atlas(4, 409, 24).save_bytes_compact(true))
}

/// The level-4 atlas as a raw (uncompressed) current image.
fn seat_level4_v2_raw() -> &'static [u8] {
    static B: OnceLock<Vec<u8>> = OnceLock::new();
    B.get_or_init(|| build_atlas(4, 409, 24).save_bytes_compact(false))
}

// ---------------------------------------------------------------------------
// The property itself.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Kind {
    Oracle,
    Atlas,
    /// An atlas image written to a file and opened out of core.
    OutOfCore,
}

/// A successfully loaded image of either kind.
enum Loaded {
    Oracle(SeOracle),
    Atlas(Atlas),
}

/// Writes `bytes` to the calling thread's scratch file (tests run on
/// parallel threads) and returns its path.
fn scratch_image(bytes: &[u8]) -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id()).replace(['(', ')'], "");
    let path = tmp_dir("persist-corruption").join(format!("{thread}.seat"));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Loads `bytes` as `kind` and returns the result together with the
/// largest single allocation the load made on this thread. An
/// out-of-core open (unbounded resident budget) first writes the bytes to
/// a file, outside the measurement.
fn load_measured(kind: Kind, bytes: &[u8]) -> (Result<Loaded, PersistError>, usize) {
    reset_peak();
    let loaded = match kind {
        Kind::Oracle => SeOracle::load_bytes(bytes).map(Loaded::Oracle),
        Kind::Atlas => Atlas::load_bytes(bytes).map(Loaded::Atlas),
        Kind::OutOfCore => {
            let path = scratch_image(bytes);
            reset_peak();
            Atlas::open_out_of_core(&path, usize::MAX).map(Loaded::Atlas)
        }
    };
    (loaded, peak())
}

/// Loads a (presumed corrupt) image and asserts the hardening contract:
/// a typed error — no panic — and no single allocation beyond a small
/// multiple of the input (geometric `read_to_end` growth can reach ~2×;
/// 4 KiB of slack covers fixed-size scratch).
fn assert_rejected_bounded(kind: Kind, bytes: &[u8], what: &str) {
    let bound = 2 * bytes.len() + 4096;
    let (loaded, observed) = load_measured(kind, bytes);
    assert!(loaded.is_err(), "{what}: corrupt image loaded successfully");
    assert!(
        observed <= bound,
        "{what}: allocation of {observed} bytes while rejecting a {}-byte input",
        bytes.len()
    );
}

fn exhaustive_flips(kind: Kind, image: &[u8], tag: &str) {
    let mut work = image.to_vec();
    for at in 0..image.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            work[at] ^= mask;
            assert_rejected_bounded(kind, &work, &format!("{tag}: flip {mask:#04x} at {at}"));
            work[at] ^= mask; // restore
        }
    }
    // The suite must not have corrupted its own fixture.
    assert_eq!(work, image);
}

fn exhaustive_truncations(kind: Kind, image: &[u8], tag: &str) {
    for cut in 0..image.len() {
        assert_rejected_bounded(kind, &image[..cut], &format!("{tag}: truncated to {cut}"));
    }
}

/// FNV-1a, as the frame trailer computes it — lets the fixup battery
/// repair the checksum after corrupting payload bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Loads an image whose checksum is *valid* but whose payload was
/// tampered with, asserting containment: no panic, and no allocation
/// beyond 32×input+64 KiB (wider than the reject bound because a flip
/// can legitimately parse — varint node records decode ~19× larger than
/// their wire form, so a successful or nearly-successful decode costs
/// real memory). The result itself may be `Ok` or any typed error; an
/// image that loads must then answer queries (see [`query_every_pair`]).
/// An out-of-core open must accept exactly the images
/// `Atlas::load_bytes` accepts.
fn assert_parse_contained(kind: Kind, bytes: &[u8], what: &str) {
    let bound = 32 * bytes.len() + 65536;
    let (loaded, observed) = load_measured(kind, bytes);
    assert!(
        observed <= bound,
        "{what}: allocation of {observed} bytes parsing a {}-byte tampered input",
        bytes.len()
    );
    if let Kind::OutOfCore = kind {
        assert_eq!(
            loaded.is_ok(),
            Atlas::load_bytes(bytes).is_ok(),
            "{what}: the out-of-core open and the resident load disagree"
        );
    }
    match loaded {
        Ok(Loaded::Oracle(o)) => {
            query_every_pair(o.n_sites(), |p| o.distance_many_checked_with_stats(p), what)
        }
        Ok(Loaded::Atlas(a)) => {
            query_every_pair(a.n_sites(), |p| a.distance_many_checked_with_stats(p), what)
        }
        Err(_) => {}
    }
}

/// Queries every site pair of a loaded tampered image through its checked
/// kernel, in one batch and one pair at a time. Each call must return —
/// answers finite and non-negative, or a typed [`QueryError`]; a panic
/// fails the test.
fn query_every_pair(
    n: usize,
    kernel: impl Fn(&[(u32, u32)]) -> Result<(Vec<f64>, ProbeStats), QueryError>,
    what: &str,
) {
    let pairs: Vec<(u32, u32)> =
        (0..n as u32).flat_map(|s| (0..n as u32).map(move |t| (s, t))).collect();
    let check = |answers: Result<(Vec<f64>, ProbeStats), QueryError>| {
        if let Ok((d, _)) = answers {
            assert!(d.iter().all(|&x| x.is_finite() && x >= 0.0), "{what}: answers {d:?}");
        }
    };
    check(kernel(&pairs));
    for pair in &pairs {
        check(kernel(std::slice::from_ref(pair)));
    }
}

/// Flips payload bytes and repairs the frame checksum so the corruption
/// reaches the kind-specific parser (quantization headers included —
/// qtable mode/scale/offset fields all live in the payload). Exhaustive
/// over the first `edge` payload bytes (the structural header region),
/// prime-strided through the rest.
fn checksum_fixed_flips(kind: Kind, image: &[u8], tag: &str) {
    let payload_end = image.len() - 8;
    let edge = 96.min(payload_end - 16);
    let mut offsets: Vec<usize> = (16..16 + edge).collect();
    offsets.extend((16 + edge..payload_end).step_by(31));
    let mut work = image.to_vec();
    for &at in &offsets {
        for mask in [0x01u8, 0xFF] {
            work[at] ^= mask;
            let sum = fnv1a(&work[16..payload_end]);
            work[payload_end..].copy_from_slice(&sum.to_le_bytes());
            assert_parse_contained(
                kind,
                &work,
                &format!("{tag}: fixed-up flip {mask:#04x} at {at}"),
            );
            work[at] ^= mask;
        }
    }
    work[payload_end..].copy_from_slice(&image[payload_end..]);
    assert_eq!(work, image);
}

/// Strided variant for the larger level-5 images: full coverage of the
/// 64-byte header and trailer regions (where every structural field
/// lives), a prime stride through the interior.
fn strided_flips_and_truncations(kind: Kind, image: &[u8], tag: &str) {
    let len = image.len();
    let edge = 64.min(len);
    let mut offsets: Vec<usize> = (0..edge).chain(len.saturating_sub(edge)..len).collect();
    offsets.extend((edge..len.saturating_sub(edge)).step_by(97));
    let mut work = image.to_vec();
    for &at in &offsets {
        work[at] ^= 0xFF;
        assert_rejected_bounded(kind, &work, &format!("{tag}: flip at {at}"));
        work[at] ^= 0xFF;
    }
    let mut cuts: Vec<usize> = (0..edge).collect();
    cuts.extend((edge..len).step_by(53));
    for &cut in &cuts {
        assert_rejected_bounded(kind, &image[..cut], &format!("{tag}: truncated to {cut}"));
    }
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn seor_level4_loads_clean() {
    // Sanity: the fixture itself must round-trip (otherwise every
    // "rejected" assertion below would be vacuous).
    let o = SeOracle::load_bytes(seor_level4()).unwrap();
    assert!(o.n_sites() > 1);
}

#[test]
fn seat_level4_loads_clean() {
    let a = Atlas::load_bytes(seat_level4()).unwrap();
    assert!(a.n_sites() > 1);
}

#[test]
fn v1_fixtures_decode_to_their_constructors() {
    // Each v1 fixture must decode to exactly what its constructor builds.
    // A raw re-encode is lossless and canonical, so equal raw re-encodes
    // mean every decoded table matches the build; the answers must match
    // too.
    let oracles = [
        ("oracle-l4", seor_level4(), build_p2p(101, 16, 0.25, EngineKind::EdgeGraph).into_oracle()),
        ("oracle-l5", seor_level5(), oracle_level5()),
    ];
    for (name, fixture, built) in oracles {
        let loaded = SeOracle::load_bytes(fixture).unwrap();
        assert!(
            loaded.save_bytes_compact(false) == built.save_bytes_compact(false),
            "{name}: the fixture does not decode to its constructor"
        );
        for s in 0..built.n_sites() {
            for t in 0..built.n_sites() {
                let (got, want) = (loaded.distance(s, t), built.distance(s, t));
                assert_eq!(got.to_bits(), want.to_bits(), "{name}: d({s},{t})");
            }
        }
    }
    let atlases = [
        ("atlas-l4", seat_level4(), build_atlas(4, 409, 24)),
        ("atlas-l5", seat_level5(), build_atlas(5, 410, 28)),
    ];
    for (name, fixture, built) in atlases {
        let loaded = Atlas::load_bytes(fixture).unwrap();
        assert!(
            loaded.save_bytes_compact(false) == built.save_bytes_compact(false),
            "{name}: the fixture does not decode to its constructor"
        );
        for s in 0..built.n_sites() {
            for t in 0..built.n_sites() {
                let (got, want) = (loaded.distance(s, t), built.distance(s, t));
                assert_eq!(got.to_bits(), want.to_bits(), "{name}: d({s},{t})");
            }
        }
    }
}

#[test]
fn v2_fixtures_decode_to_their_constructors() {
    // Each v2 fixture, written by the last build that stored every node
    // pair in both orientations, must load canonicalised to exactly what
    // its constructor builds now: re-encoded here, it is byte-identical to
    // the build re-encoded the same way (compressed for the compressed
    // fixture), and it answers every ordered pair bit-identically to that
    // re-encode. The parent's answers are this revision's answers.
    let built = oracle_level5();
    let oracles = [
        ("oracle-l5", seor_level5_fixture_v2(), false),
        ("oracle-l5-c", seor_level5_fixture_v2_compressed(), true),
    ];
    for (name, fixture, compress) in oracles {
        let loaded = SeOracle::load_bytes(fixture).unwrap();
        let image = built.save_bytes_compact(compress);
        assert!(
            loaded.save_bytes_compact(compress) == image,
            "{name}: the fixture does not decode to its constructor"
        );
        let want = SeOracle::load_bytes(&image).unwrap();
        assert_eq!(loaded.n_pairs(), built.n_pairs(), "{name}: mirrors not merged");
        for s in 0..built.n_sites() {
            for t in 0..built.n_sites() {
                let (got, want) = (loaded.distance(s, t), want.distance(s, t));
                assert_eq!(got.to_bits(), want.to_bits(), "{name}: d({s},{t})");
            }
        }
    }
    let built = build_atlas(4, 409, 24);
    let loaded = Atlas::load_bytes(seat_level4_fixture_v2()).unwrap();
    assert!(
        loaded.save_bytes_compact(false) == built.save_bytes_compact(false),
        "atlas-l4: the fixture does not decode to its constructor"
    );
    for s in 0..built.n_sites() {
        for t in 0..built.n_sites() {
            let (got, want) = (loaded.distance(s, t), built.distance(s, t));
            assert_eq!(got.to_bits(), want.to_bits(), "atlas-l4: d({s},{t})");
        }
    }
}

/// FNV-1a over the little-endian bytes of every ordered pair's answer,
/// row by row (`s` ascending, one `distance_many_checked_with_stats` of
/// `(s, 0..n)` per row), and the rows' summed probe count.
fn answer_digest(o: &SeOracle) -> (u64, u64) {
    let n = o.n_sites() as u32;
    let (mut bytes, mut probes) = (Vec::new(), 0);
    for s in 0..n {
        let row: Vec<(u32, u32)> = (0..n).map(|t| (s, t)).collect();
        let (answers, stats) = o.distance_many_checked_with_stats(&row).unwrap();
        bytes.extend(answers.into_iter().flat_map(f64::to_le_bytes));
        probes += stats.probes;
    }
    (fnv1a(&bytes), probes)
}

/// Answers and probe counts pinned across revisions: every ordered pair
/// of each checked-in `SEOR` fixture hashes to the digest recorded when
/// they were first pinned, answered in rows and as single `distance`
/// calls in the same order. Fixture answers are stored distances, so the
/// digests hold on every platform; a kernel change that moves one bit of
/// one answer, or one probe, fails here.
#[test]
fn seor_fixture_answers_hold_their_recorded_digests() {
    let fixtures: [(&str, &[u8], u64, u64); 4] = [
        ("v1/oracle-l4", seor_level4(), 0xb6bd_be55_220c_6799, 256),
        ("v1/oracle-l5", seor_level5(), 0x31ce_6491_0277_bd89, 644),
        ("v2/oracle-l5", seor_level5_fixture_v2(), 0x31ce_6491_0277_bd89, 644),
        ("v2/oracle-l5-c", seor_level5_fixture_v2_compressed(), 0xe646_50e3_c21f_3e79, 644),
    ];
    for (name, image, want, want_probes) in fixtures {
        let o = SeOracle::load_bytes(image).unwrap();
        let (got, probes) = answer_digest(&o);
        assert_eq!(got, want, "{name}: digest {got:#018x}, recorded {want:#018x}");
        assert_eq!(probes, want_probes, "{name}: probes");
        let n = o.n_sites();
        let singles: Vec<u8> = (0..n)
            .flat_map(|s| (0..n).map(move |t| (s, t)))
            .flat_map(|(s, t)| o.distance(s, t).to_le_bytes())
            .collect();
        assert_eq!(fnv1a(&singles), want, "{name}: single calls");
    }
}

#[test]
fn seor_level4_every_byte_flip_rejected() {
    exhaustive_flips(Kind::Oracle, seor_level4(), "seor-l4");
}

#[test]
fn seor_level4_every_truncation_rejected() {
    exhaustive_truncations(Kind::Oracle, seor_level4(), "seor-l4");
}

#[test]
fn seat_level4_every_byte_flip_rejected() {
    exhaustive_flips(Kind::Atlas, seat_level4(), "seat-l4");
}

#[test]
fn seat_level4_every_truncation_rejected() {
    exhaustive_truncations(Kind::Atlas, seat_level4(), "seat-l4");
}

#[test]
fn seor_v2_level4_loads_clean() {
    let o = SeOracle::load_bytes(seor_level4_v2()).unwrap();
    assert!(o.n_sites() > 1);
}

#[test]
fn seat_v2_level4_loads_clean() {
    let a = Atlas::load_bytes(seat_level4_v2()).unwrap();
    assert!(a.n_sites() > 1);
}

#[test]
fn seor_v2_level4_every_byte_flip_rejected() {
    exhaustive_flips(Kind::Oracle, seor_level4_v2(), "seor-v2-l4");
}

#[test]
fn seor_v2_level4_every_truncation_rejected() {
    exhaustive_truncations(Kind::Oracle, seor_level4_v2(), "seor-v2-l4");
}

#[test]
fn seat_v2_level4_every_byte_flip_rejected() {
    exhaustive_flips(Kind::Atlas, seat_level4_v2(), "seat-v2-l4");
}

#[test]
fn seat_v2_level4_every_truncation_rejected() {
    exhaustive_truncations(Kind::Atlas, seat_level4_v2(), "seat-v2-l4");
}

#[test]
fn seor_v2_checksum_fixed_flips_are_contained() {
    checksum_fixed_flips(Kind::Oracle, seor_level4_v2(), "seor-v2-l4");
}

#[test]
fn seat_v2_checksum_fixed_flips_are_contained() {
    checksum_fixed_flips(Kind::Atlas, seat_level4_v2(), "seat-v2-l4");
}

#[test]
fn seat_level4_out_of_core_strided_corruption_rejected() {
    strided_flips_and_truncations(Kind::OutOfCore, seat_level4(), "seat-l4-ooc");
}

#[test]
fn seat_v2_level4_out_of_core_strided_corruption_rejected() {
    strided_flips_and_truncations(Kind::OutOfCore, seat_level4_v2(), "seat-v2-l4-ooc");
}

#[test]
fn seat_v2_checksum_fixed_flips_open_out_of_core_as_they_load() {
    checksum_fixed_flips(Kind::OutOfCore, seat_level4_v2(), "seat-v2-l4-ooc");
}

#[test]
fn seat_raw_v2_checksum_fixed_flips_open_out_of_core_as_they_load() {
    checksum_fixed_flips(Kind::OutOfCore, seat_level4_v2_raw(), "seat-raw-v2-l4-ooc");
}

#[test]
fn seat_v2_fixture_strided_corruption_rejected() {
    for kind in [Kind::Atlas, Kind::OutOfCore] {
        strided_flips_and_truncations(kind, seat_level4_fixture_v2(), "seat-v2-fixture-l4");
    }
}

#[test]
fn seor_level5_strided_corruption_rejected() {
    strided_flips_and_truncations(Kind::Oracle, seor_level5(), "seor-l5");
}

#[test]
fn seat_level5_strided_corruption_rejected() {
    strided_flips_and_truncations(Kind::Atlas, seat_level5(), "seat-l5");
}

#[test]
fn inflated_length_field_is_cheap_to_reject() {
    // The original bug, replayed directly: a corrupt declared length must
    // not drive an allocation. Just under the image cap reports
    // Truncated; over it reports FrameTooLarge — both after allocating no
    // more than the real input.
    let image = seor_level4();
    for declared in [1u64 << 32, (1 << 40) - 1, 1 << 40, u64::MAX] {
        let mut bad = image.to_vec();
        bad[8..16].copy_from_slice(&declared.to_le_bytes());
        reset_peak();
        let err = SeOracle::load_bytes(&bad).expect_err("inflated length accepted");
        assert!(
            matches!(err, PersistError::Truncated { .. } | PersistError::FrameTooLarge { .. }),
            "unexpected error class for declared={declared}: {err:?}"
        );
        assert!(peak() <= 2 * image.len() + 4096, "declared={declared} allocated {} bytes", peak());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, rng_seed: 0x0C0_44A7, ..ProptestConfig::default() })]

    /// Randomized multi-byte corruption on top of the exhaustive
    /// single-byte sweeps: scribble 1–8 random bytes over a valid image
    /// (or truncate and scribble), which must still be rejected within
    /// the allocation bound.
    #[test]
    fn random_scribbles_rejected(
        seed in 0u64..u64::MAX,
        n_writes in 1usize..8,
        cut_ppm in 0u32..1_000_000,
    ) {
        for (kind, image) in [
            (Kind::Oracle, seor_level4()),
            (Kind::Atlas, seat_level4()),
            (Kind::Oracle, seor_level4_v2()),
            (Kind::Atlas, seat_level4_v2()),
        ] {
            let mut bad = image.to_vec();
            // Truncate to a pseudo-random prefix (sometimes full length).
            let keep = if cut_ppm < 500_000 {
                bad.len()
            } else {
                (bad.len() as u64 * (cut_ppm as u64) / 1_000_000) as usize
            };
            bad.truncate(keep.max(1));
            let mut x = seed | 1;
            let mut changed = keep < image.len();
            for _ in 0..n_writes {
                // splitmix-ish scramble for position and value.
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xB5);
                let at = (x >> 16) as usize % bad.len();
                let val = (x >> 8) as u8;
                changed |= bad[at] != val;
                bad[at] = val;
            }
            if changed {
                assert_rejected_bounded(kind, &bad, "random scribble");
            }
        }
    }
}
