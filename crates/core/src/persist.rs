//! Oracle persistence: versioned, checksummed binary images of a built
//! [`SeOracle`] and of a whole [`Atlas`].
//!
//! The paper's "oracle size" measurement is exactly what a deployment would
//! write to disk: the compressed partition tree plus the node-pair set.
//! This module serializes those two components (everything a query needs)
//! in a flat little-endian format. The pair set is stored as its keys and
//! values only; a load fills the in-memory [`phash::PairTable`] from them
//! (in one pass for a v3 image, whose keys arrive in ascending order), so
//! the on-disk layout is independent of the in-memory index. Nor is the
//! oracle's layer table stored: a load fills it from the tree.
//!
//! Both image kinds share one **frame**: a 4-byte magic, an explicit
//! format-version word, the payload length, the payload, and an FNV-1a
//! checksum over the payload. `framed` is the one frame writer and
//! `read_framed` the one frame reader (the wire protocol and the
//! out-of-core `TileStore` use them too), so a magic or version mismatch
//! fails identically (and actionably — the error names the found and the
//! supported version) everywhere, and future format revisions bump one
//! constant per kind.
//!
//! This build writes only `SEOR` version 3 and `SEAT` version 2 (see
//! *Compact images* below). The two version-1 layouts that follow, and
//! `SEOR` version 2, are **read, no longer written**: every v1 and v2 image
//! on disk keeps loading.
//!
//! Monolithic v1 layout (all integers little-endian):
//!
//! ```text
//! magic  "SEOR"          4 bytes
//! version u32            ORACLE_VERSION = 1
//! payload length u64
//! payload:
//!   eps f64
//!   r0 f64, h u32, root u32
//!   node count u32, then per node: center u32, layer u32, parent u32,
//!                                  radius f64
//!   site count u32, then leaf_of_site u32 each
//!   pair count u64, then per pair: key u64, dist f64
//! checksum u64           FNV-1a over the payload bytes
//! ```
//!
//! Atlas v1 layout:
//!
//! ```text
//! magic  "SEAT"          4 bytes
//! version u32            ATLAS_VERSION = 1
//! payload length u64
//! payload:
//!   eps f64
//!   site count u32, portal count u32, tile count u32
//!   per site:  home tile u32, membership count u32,
//!              then per membership: tile u32, local site u32
//!   per tile:  oracle image length u64, then a complete nested SEOR image
//!              portal count u32, then per portal: global id u32, local u32
//!              table count u64, then f64 each (portal count², row-major)
//! checksum u64           FNV-1a over the payload bytes
//! ```
//!
//! The portal graph is *rebuilt* on load from the per-tile tables, so it,
//! too, is an in-memory index the format does not fix. Loading validates
//! every structural invariant (nested images, membership tables, portal
//! ids, routability) before returning.
//!
//! # Compact images: `SEOR` v3, `SEAT` v2
//!
//! [`SeOracle::save_to_compact`] writes `SEOR` **version 3** and
//! [`Atlas::save_to_compact`] writes `SEAT` **version 2**, the only
//! formats this build writes. They replace the fixed-width arrays with
//! LEB128 varints and route every `f64` table (node radii, pair distances,
//! portal tables) through the bounded-error quantizer of [`crate::quant`]
//! (lossless raw mode when `compress` is off, so uncompressed images answer
//! bit-identically to the oracle that wrote them; quantized mode bounds
//! every value's relative decode error by [`crate::quant::EPS_QUANT`]).
//! Both loaders accept every earlier version via the version word in the
//! frame — `SEOR` 1..=3, `SEAT` 1..=2 — and a loaded current image
//! re-serializes byte-identically under the same `compress` setting.
//!
//! Monolithic v3 payload (struct-of-arrays; `qtable` is the mode-tagged
//! table of `crate::quant`, `varint` is LEB128):
//!
//! ```text
//!   eps f64, r0 f64, h u32, root u32
//!   node count u32, then centers (varint each), layers (varint each),
//!                        parents (varint each), radii qtable
//!   site count u32, then leaf_of_site varint each
//!   pair count u64, then keys as ascending deltas (varint each; first is
//!                   absolute), then distances qtable in the same order
//! ```
//!
//! Each key is `phash::pair_key(a, b)`: node ids `a ≤ b`, `a` in the high
//! half, one key per unordered node pair. A v3 load rejects any key with
//! `a > b` as corrupt. Every load, of any version, rejects a key naming a
//! node id at or past the node count.
//!
//! `SEOR` v2 is the same layout, but its keys are ordered and every pair
//! `⟨a, b⟩` is also stored as its mirror `⟨b, a⟩`, as in v1. A v1 or v2
//! load canonicalises the entries: a key and its mirror merge into
//! `(min, max)` with the value stored under `(min, max)`, a lone mirror is
//! re-keyed, and two equal stored keys are corrupt. So are keys that pair
//! distinct nodes without a single mirror: no v1 or v2 writer produced
//! them, and they are what a v3 image looks like under a damaged version
//! word. Re-encoded, a legacy image is a v3 image with about half the
//! pairs.
//!
//! Atlas v2 payload (its tiles are nested `SEOR` v3 images, so a reader
//! that predates v3 refuses the atlas at its first tile rather than
//! missing every mirrored probe):
//!
//! ```text
//!   eps f64
//!   site count u32, portal count u32, tile count u32
//!   per site:  home varint, membership count varint,
//!              then per membership: tile varint, local varint
//!   tile directory: per tile, its segment length (varint) — the segments
//!              follow concatenated, so any tile can be located and decoded
//!              without touching the others (the out-of-core `TileStore`
//!              reads exactly one segment per miss)
//!   per tile segment: oracle image length u64, a complete nested SEOR
//!              image (independently framed and checksummed), portal count
//!              u32, per portal: global id varint, local varint, then the
//!              portal table qtable (portal count², row-major)
//! ```

use crate::atlas::{Atlas, AtlasTile};
use crate::ctree::{CNode, CompressedTree};
use crate::oracle::{QueryError, SeOracle};
use crate::quant::{read_qtable, read_varint, write_qtable, write_varint};
use crate::tree::NO_NODE;
use phash::{pair_key, unpair_key};
use std::io::{self, Read, Write};
use std::ops::RangeInclusive;

/// Magic of monolithic (`SEOR`) oracle images — public so deployment
/// front ends (e.g. `oracled`) can sniff an image's kind from its first
/// four bytes before choosing a loader.
pub const ORACLE_MAGIC: [u8; 4] = *b"SEOR";
const MAGIC: [u8; 4] = ORACLE_MAGIC;
/// Format version of classic (fixed-width, lossless) monolithic `SEOR`
/// oracle images: read, no longer written.
pub const ORACLE_VERSION: u32 = 1;
/// Format version of compact monolithic `SEOR` images — what
/// [`SeOracle::save_to_compact`] writes: the v2 varint + qtable layout with
/// each unordered node pair stored once under its canonical key (see the
/// module docs). Loaders accept versions 1 through this one; version 2, the
/// same layout with every pair also stored mirrored, is read, no longer
/// written.
pub const ORACLE_VERSION_COMPACT: u32 = 3;
/// Magic of atlas (`SEAT`) images (see [`ORACLE_MAGIC`]).
pub const ATLAS_MAGIC: [u8; 4] = *b"SEAT";
/// Format version of classic atlas (`SEAT`) images: read, no longer
/// written.
pub const ATLAS_VERSION: u32 = 1;
/// Format version of compact atlas images with a tile directory (the
/// out-of-core–servable layout) — what [`Atlas::save_to_compact`] writes.
/// Loaders accept both versions.
pub const ATLAS_VERSION_COMPACT: u32 = 2;
/// Hard cap on the stored tree height `h`. The paper reports `h < 30` on
/// every dataset; `h + 1` is the row length of the oracle's layer table,
/// so an image-supplied height must not be an allocation amplifier (the
/// table as a whole is bounded by [`exceeds_load_budget`]).
const MAX_TREE_HEIGHT: u32 = 4096;

/// Whether a table of `bytes` that a load allocates from image-supplied
/// counts is implausible for a payload of `payload_len` bytes: past
/// `32 × payload + 64 KiB`, the per-allocation bound a tampered image's
/// load must meet. It holds the tables whose size is a product of counts
/// that each count's own bound leaves quadratic in the payload: an
/// atlas's portal-label reach rows and an oracle's layer table.
fn exceeds_load_budget(bytes: u64, payload_len: usize) -> bool {
    bytes > 32 * payload_len as u64 + 65536
}

/// Deserialization failures.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// Not an image of the expected kind (wrong magic — e.g. an atlas
    /// image fed to the monolithic loader, or not an oracle image at all).
    BadMagic([u8; 4]),
    /// Image written by a format version this build does not read.
    BadVersion {
        /// Version stamped in the image.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// The frame header declared more payload bytes than the input holds —
    /// a truncated file or a connection cut mid-frame. Reported before any
    /// allocation proportional to the declared length.
    Truncated {
        /// Payload length the header declared.
        declared: u64,
        /// Bytes actually available after the header.
        available: u64,
    },
    /// The declared payload length exceeds the hard cap for this frame
    /// kind (a corrupt length field, or a hostile peer requesting a
    /// multi-GB allocation). Nothing was allocated.
    FrameTooLarge {
        /// Payload length the header declared.
        declared: u64,
        /// Hard cap for this frame kind.
        cap: u64,
    },
    /// Structurally invalid image (message names the first violation).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            PersistError::BadVersion { found, supported } => write!(
                f,
                "image format version {found} not readable by this build \
                 (supported version: {supported})"
            ),
            PersistError::Truncated { declared, available } => write!(
                f,
                "truncated frame: header declares {declared} payload bytes \
                 but only {available} are available"
            ),
            PersistError::FrameTooLarge { declared, cap } => write!(
                f,
                "frame too large: header declares {declared} payload bytes, \
                 hard cap is {cap}"
            ),
            PersistError::Corrupt(msg) => write!(f, "corrupt oracle image: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Hard cap on a stored image's payload (1 TiB — far above any oracle an
/// in-memory load could serve, far below what a corrupt length field can
/// declare). The network protocol passes its own, much smaller cap.
pub(crate) const IMAGE_FRAME_CAP: u64 = 1 << 40;

/// Wraps `payload` in the shared image frame: magic, explicit format
/// version, payload length, payload, FNV-1a checksum. Every image kind
/// serializes through this one helper (the network protocol reuses it for
/// wire frames). The frame is built in the payload's own buffer, so framing
/// holds no second copy of the image.
pub(crate) fn framed(magic: [u8; 4], version: u32, mut payload: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&payload);
    let mut header = [0u8; 16];
    header[..4].copy_from_slice(&magic);
    header[4..8].copy_from_slice(&version.to_le_bytes());
    header[8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    payload.reserve(24);
    payload.splice(0..0, header);
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// Reads and validates the frame written by [`framed`] — magic,
/// version-against-`supported`, length-against-`cap`, checksum — returning
/// the stamped version and the payload for the kind-specific parser.
/// `supported` is an inclusive version range: image loaders pass
/// `1..=VERSION_COMPACT` so every shipped revision stays readable, while
/// the wire protocol passes a single-version range (peers negotiate, files
/// don't).
///
/// The declared length is **untrusted**: it is checked against `cap`
/// before anything is allocated, and the payload buffer grows with the
/// bytes actually read (never pre-sized to the declared length), so a
/// truncated or hostile input can never cost more memory than it supplies.
/// Fewer bytes than declared yield [`PersistError::Truncated`].
pub(crate) fn read_framed<R: Read>(
    r: &mut R,
    magic: [u8; 4],
    supported: RangeInclusive<u32>,
    cap: u64,
) -> Result<(u32, Vec<u8>), PersistError> {
    let mut head = [0u8; 16];
    r.read_exact(&mut head)?;
    let (version, len) = parse_frame_header(&head, magic, supported, cap)?;
    // Grow-as-read: `take(len)` bounds the read, `read_to_end` grows the
    // buffer geometrically with the bytes that actually arrive (no
    // pre-reservation from the untrusted length at all), so a declared
    // length beyond the real input is reported as Truncated after costing
    // at most ~2× the bytes that exist.
    let mut payload = Vec::new();
    r.take(len).read_to_end(&mut payload)?;
    if (payload.len() as u64) < len {
        return Err(PersistError::Truncated { declared: len, available: payload.len() as u64 });
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if u64::from_le_bytes(sum) != fnv1a(&payload) {
        return Err(PersistError::Corrupt("checksum mismatch"));
    }
    Ok((version, payload))
}

/// Validates the 16-byte frame header (magic, version against the
/// `supported` range, declared length against `cap`) and returns the
/// stamped version plus the declared payload length. Shared by
/// [`read_framed`] and the network protocol's incremental frame reader, so
/// the wire format and the image format enforce one hardened contract.
pub(crate) fn parse_frame_header(
    head: &[u8; 16],
    magic: [u8; 4],
    supported: RangeInclusive<u32>,
    cap: u64,
) -> Result<(u32, u64), PersistError> {
    let found_magic: [u8; 4] = arr(&head[0..4]);
    if found_magic != magic {
        return Err(PersistError::BadMagic(found_magic));
    }
    let found = u32::from_le_bytes(arr(&head[4..8]));
    if !supported.contains(&found) {
        return Err(PersistError::BadVersion { found, supported: *supported.end() });
    }
    let len = u64::from_le_bytes(arr(&head[8..16]));
    if len > cap {
        return Err(PersistError::FrameTooLarge { declared: len, cap });
    }
    Ok((found, len))
}

/// Infallible slice→array copy for reads whose length is fixed by
/// construction (`copy_from_slice` is length-checked at the call site by
/// `take(N)`/slicing, so no panic path survives into release builds).
fn arr<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(s);
    out
}

/// Bounds-checked reader over an untrusted payload — the one decode
/// primitive every image kind **and** the network protocol parse through.
/// Every read is validated against the remaining input, and count fields
/// must be pre-validated against [`Cursor::remaining`] before anything is
/// allocated in proportion to them.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Cursor<'a> {
    /// Bytes not yet consumed — the bound any image-supplied count must be
    /// validated against before driving an allocation.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        // `n` can be a hostile u64 from the payload (e.g. a nested-image
        // length), so the comparison must not compute `self.at + n`.
        if n > self.buf.len() - self.at {
            return Err(PersistError::Corrupt("truncated payload"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(arr(self.take(4)?)))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(arr(self.take(8)?)))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(arr(self.take(8)?)))
    }
}

impl SeOracle {
    /// Serializes the oracle in the compact v3 format (varints + qtables,
    /// one canonical key per unordered node pair; see the module docs).
    /// With `compress` off every table is written in lossless raw mode —
    /// the loaded oracle answers bit-identically to this one. With
    /// `compress` on, tables are quantized with a per-table
    /// scale bounding every value's relative decode error by
    /// [`crate::quant::EPS_QUANT`], so answers stay within
    /// `(1+ε)(1+EPS_QUANT)` of the exact metric.
    pub fn save_to_compact<W: Write>(&self, w: &mut W, compress: bool) -> io::Result<()> {
        w.write_all(&self.save_bytes_compact(compress))
    }

    /// [`Self::save_to_compact`] into an in-memory buffer.
    pub fn save_bytes_compact(&self, compress: bool) -> Vec<u8> {
        framed(MAGIC, ORACLE_VERSION_COMPACT, self.payload_compact(compress))
    }

    /// The v3 payload: struct-of-arrays varint streams plus qtables, with
    /// pair keys ascending (the pair table's iteration order) and
    /// delta-encoded, so a decode/re-encode round trip is byte-identical.
    fn payload_compact(&self, compress: bool) -> Vec<u8> {
        let t = self.tree();
        let mut p: Vec<u8> = Vec::with_capacity(64 + 8 * t.n_nodes() + 6 * self.n_pairs());
        p.extend_from_slice(&self.epsilon().to_le_bytes());
        p.extend_from_slice(&t.r0.to_le_bytes());
        p.extend_from_slice(&t.h.to_le_bytes());
        p.extend_from_slice(&t.root.to_le_bytes());
        p.extend_from_slice(&(t.n_nodes() as u32).to_le_bytes());
        for n in &t.nodes {
            write_varint(&mut p, n.center as u64);
        }
        for n in &t.nodes {
            write_varint(&mut p, n.layer as u64);
        }
        for n in &t.nodes {
            write_varint(&mut p, n.parent as u64);
        }
        let radii: Vec<f64> = t.nodes.iter().map(|n| n.radius).collect();
        write_qtable(&mut p, &radii, compress);
        p.extend_from_slice(&(t.leaf_of_site.len() as u32).to_le_bytes());
        for &leaf in &t.leaf_of_site {
            write_varint(&mut p, leaf as u64);
        }
        p.extend_from_slice(&(self.n_pairs() as u64).to_le_bytes());
        let mut prev = 0u64;
        for (k, _) in self.pair_entries() {
            write_varint(&mut p, k - prev);
            prev = k;
        }
        let dists: Vec<f64> = self.pair_entries().map(|(_, d)| d).collect();
        write_qtable(&mut p, &dists, compress);
        p
    }

    /// Deserializes a v3 oracle image written by [`Self::save_to_compact`]
    /// or a v1 or v2 image from an earlier build, validating the checksum and
    /// every structural invariant (tree shape, layer monotonicity, leaf
    /// mapping, canonical pair keys) before returning. A v1 or v2 image's
    /// mirrored pairs are canonicalised as the module docs state.
    ///
    /// The load fills the oracle's layer table, `n_sites × (h + 1) × 4`
    /// bytes; an image whose table would exceed `32 × payload + 64 KiB`
    /// is `Corrupt("implausible tree height")`. An image that does not
    /// store every site's leaf self pair `⟨leaf, leaf⟩`, which every built
    /// oracle stores, is `Corrupt("leaf self pair missing")`. Other missing
    /// covering pairs are not searched for at load: the query that meets
    /// one returns [`QueryError::NoCoveringPair`].
    pub fn load_from<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let (version, payload) =
            read_framed(r, MAGIC, ORACLE_VERSION..=ORACLE_VERSION_COMPACT, IMAGE_FRAME_CAP)?;
        if version == ORACLE_VERSION {
            Self::parse_payload_v1(&payload)
        } else {
            Self::parse_payload_compact(&payload, version == ORACLE_VERSION_COMPACT)
        }
    }

    fn parse_payload_v1(payload: &[u8]) -> Result<Self, PersistError> {
        let mut c = Cursor { buf: payload, at: 0 };
        let eps = c.f64()?;
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(PersistError::Corrupt("invalid ε"));
        }
        let r0 = c.f64()?;
        if !(r0.is_finite() && r0 >= 0.0) {
            return Err(PersistError::Corrupt("root radius not a finite length"));
        }
        let h = c.u32()?;
        // `h + 1` is the row length of the layer table, so a hostile
        // height is an allocation amplifier. The paper reports h < 30 on
        // every dataset; 4096 is far beyond any real terrain while keeping
        // one row at 16 KiB.
        if h > MAX_TREE_HEIGHT {
            return Err(PersistError::Corrupt("implausible tree height"));
        }
        let root = c.u32()?;
        // Counts are image-supplied and drive allocations; bound each by
        // what the remaining payload could possibly encode (a node costs
        // 20 bytes, a leaf entry 4, a pair entry 16) before reserving.
        let n_nodes = c.u32()? as usize;
        if n_nodes > c.remaining() / 20 {
            return Err(PersistError::Corrupt("implausible node count"));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let node = CNode {
                center: c.u32()?,
                layer: c.u32()?,
                parent: c.u32()?,
                children: Vec::new(),
                radius: c.f64()?,
            };
            if node.layer > h {
                return Err(PersistError::Corrupt("node layer exceeds tree height"));
            }
            if !(node.radius.is_finite() && node.radius >= 0.0) {
                return Err(PersistError::Corrupt("node radius not a finite length"));
            }
            nodes.push(node);
        }
        let n_sites = c.u32()? as usize;
        if n_sites > c.remaining() / 4 {
            return Err(PersistError::Corrupt("implausible site count"));
        }
        let mut leaf_of_site = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            leaf_of_site.push(c.u32()?);
        }
        let n_pairs = c.u64()? as usize;
        if n_pairs > c.remaining() / 16 {
            return Err(PersistError::Corrupt("implausible pair count"));
        }
        let mut entries = Vec::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            let k = c.u64()?;
            let d = c.f64()?;
            if !(d.is_finite() && d >= 0.0) {
                return Err(PersistError::Corrupt("pair distance not a finite length"));
            }
            entries.push((k, d));
        }
        if c.at != payload.len() {
            return Err(PersistError::Corrupt("trailing bytes in payload"));
        }

        assemble_oracle(
            OracleParts { eps, r0, h, root, nodes, leaf_of_site, entries, ordered_keys: true },
            payload.len(),
        )
    }

    /// Parses the v2 or v3 payload (see the module docs). Varint-decoded
    /// indices are range-checked as they stream in; the two qtables carry
    /// their own mode/scale validation; pair keys arrive as ascending
    /// deltas, so distinctness is established during decoding (a zero
    /// delta is the corrupt-duplicate case) instead of by a sort afterwards.
    /// A `canonical` (v3) payload must key every pair as `(a, b)` with
    /// `a ≤ b`; a v2 payload's ordered keys are canonicalised afterwards.
    fn parse_payload_compact(payload: &[u8], canonical: bool) -> Result<Self, PersistError> {
        let mut c = Cursor { buf: payload, at: 0 };
        let eps = c.f64()?;
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(PersistError::Corrupt("invalid ε"));
        }
        let r0 = c.f64()?;
        if !(r0.is_finite() && r0 >= 0.0) {
            return Err(PersistError::Corrupt("root radius not a finite length"));
        }
        let h = c.u32()?;
        if h > MAX_TREE_HEIGHT {
            return Err(PersistError::Corrupt("implausible tree height"));
        }
        let root = c.u32()?;
        // A compact node costs at least 4 payload bytes (three 1-byte varints
        // plus ≥ 1 radii-table byte); bound the count before reserving.
        let n_nodes = c.u32()? as usize;
        if n_nodes > c.remaining() / 4 {
            return Err(PersistError::Corrupt("implausible node count"));
        }
        let mut centers = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let v = read_varint(&mut c)?;
            if v > u32::MAX as u64 {
                return Err(PersistError::Corrupt("node center out of range"));
            }
            centers.push(v as u32);
        }
        let mut layers = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let v = read_varint(&mut c)?;
            if v > h as u64 {
                return Err(PersistError::Corrupt("node layer exceeds tree height"));
            }
            layers.push(v as u32);
        }
        let mut parents = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let v = read_varint(&mut c)?;
            // NO_NODE (u32::MAX) is the root's valid sentinel.
            if v > u32::MAX as u64 {
                return Err(PersistError::Corrupt("node parent out of range"));
            }
            parents.push(v as u32);
        }
        let radii = read_qtable(&mut c, n_nodes)?;
        let nodes: Vec<CNode> = (0..n_nodes)
            .map(|i| CNode {
                center: centers[i],
                layer: layers[i],
                parent: parents[i],
                children: Vec::new(),
                radius: radii[i],
            })
            .collect();
        let n_sites = c.u32()? as usize;
        if n_sites > c.remaining() {
            return Err(PersistError::Corrupt("implausible site count"));
        }
        let mut leaf_of_site = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            let v = read_varint(&mut c)?;
            if v > u32::MAX as u64 {
                return Err(PersistError::Corrupt("leaf_of_site mapping broken"));
            }
            leaf_of_site.push(v as u32);
        }
        // A compact pair costs at least 2 bytes (1-byte key delta + ≥ 1
        // distance-table byte).
        let n_pairs = c.u64()? as usize;
        if n_pairs > c.remaining() / 2 {
            return Err(PersistError::Corrupt("implausible pair count"));
        }
        let mut keys = Vec::with_capacity(n_pairs);
        let mut prev = 0u64;
        for i in 0..n_pairs {
            let d = read_varint(&mut c)?;
            let k = if i == 0 {
                d
            } else {
                if d == 0 {
                    return Err(PersistError::Corrupt("duplicate node-pair key"));
                }
                prev.checked_add(d).ok_or(PersistError::Corrupt("pair key overflow"))?
            };
            if canonical {
                let (a, b) = unpair_key(k);
                if a > b {
                    return Err(PersistError::Corrupt("node-pair key not canonical"));
                }
            }
            keys.push(k);
            prev = k;
        }
        let dists = read_qtable(&mut c, n_pairs)?;
        if c.at != payload.len() {
            return Err(PersistError::Corrupt("trailing bytes in payload"));
        }
        let entries: Vec<(u64, f64)> = keys.into_iter().zip(dists).collect();

        assemble_oracle(
            OracleParts {
                eps,
                r0,
                h,
                root,
                nodes,
                leaf_of_site,
                entries,
                ordered_keys: !canonical,
            },
            payload.len(),
        )
    }

    /// Deserializes from an in-memory buffer.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = bytes;
        Self::load_from(&mut r)
    }
}

/// The decoded-but-unvalidated pieces of an oracle image, shared by the v1
/// and v2 parsers so both formats pass one structural gauntlet.
struct OracleParts {
    eps: f64,
    r0: f64,
    h: u32,
    root: u32,
    nodes: Vec<CNode>,
    leaf_of_site: Vec<u32>,
    entries: Vec<(u64, f64)>,
    /// v1 and v2 images key pairs in order, each stored with its mirror, so
    /// their entries are canonicalised ([`canonicalise_ordered`]). A v3
    /// payload's keys were already checked canonical and strictly
    /// ascending while decoding.
    ordered_keys: bool,
}

/// Rebuilds children lists, validates every tree invariant (root, parent
/// layering, leaf mapping), every pair key (both node ids in range,
/// distinct keys) and the size of the layer table against the
/// `payload_len` bytes the parts came from, constructs the oracle, and
/// checks that it stores every leaf self pair.
fn assemble_oracle(parts: OracleParts, payload_len: usize) -> Result<SeOracle, PersistError> {
    let OracleParts { eps, r0, h, root, mut nodes, leaf_of_site, mut entries, ordered_keys } =
        parts;
    // The oracle keeps `n_sites × (h + 1)` `u32` layer-array entries. Each
    // count is bounded alone, but their product can still amplify a small
    // payload, as a tall tree over many sites does.
    let table_bytes = leaf_of_site.len() as u64 * (u64::from(h) + 1) * 4;
    if exceeds_load_budget(table_bytes, payload_len) {
        return Err(PersistError::Corrupt("implausible tree height"));
    }
    let n_nodes = nodes.len();
    if root as usize >= n_nodes {
        return Err(PersistError::Corrupt("root out of range"));
    }
    let parents: Vec<u32> = nodes.iter().map(|n| n.parent).collect();
    for (id, &p) in parents.iter().enumerate() {
        if id as u32 == root {
            if p != NO_NODE {
                return Err(PersistError::Corrupt("root has a parent"));
            }
            continue;
        }
        if p == NO_NODE || p as usize >= n_nodes {
            return Err(PersistError::Corrupt("non-root node without valid parent"));
        }
        if nodes[p as usize].layer >= nodes[id].layer {
            return Err(PersistError::Corrupt("parent layer not higher than child"));
        }
        nodes[p as usize].children.push(id as u32);
    }
    for (site, &leaf) in leaf_of_site.iter().enumerate() {
        let ok = (leaf as usize) < n_nodes
            && nodes[leaf as usize].children.is_empty()
            && nodes[leaf as usize].center as usize == site;
        if !ok {
            return Err(PersistError::Corrupt("leaf_of_site mapping broken"));
        }
    }
    // Before the pair table is built: its rows are indexed by node id, and
    // a key past them is a construction-time panic.
    let names_missing_node = |k: u64| {
        let (a, b) = unpair_key(k);
        a.max(b) as usize >= n_nodes
    };
    if entries.iter().any(|&(k, _)| names_missing_node(k)) {
        return Err(PersistError::Corrupt("node-pair key names a missing node"));
    }
    if ordered_keys {
        canonicalise_ordered(&mut entries)?;
    }

    let ctree = CompressedTree { nodes, root, r0, h, leaf_of_site };
    let oracle = SeOracle::from_parts(eps, ctree, entries);
    if !oracle.stores_leaf_self_pairs() {
        return Err(PersistError::Corrupt("leaf self pair missing"));
    }
    Ok(oracle)
}

/// Re-keys a v1 or v2 image's ordered entries canonically, in place, with
/// one sort:
///
/// - a key `(b, a)` and its mirror `(a, b)`, `a < b`, merge into
///   `(a, b)` with the value stored under `(a, b)` (a Naive-method build
///   could store mirrors that differ in the last bits);
/// - a lone `(b, a)` is re-keyed to `(a, b)`;
/// - two equal stored keys are `Corrupt`, as the pair table needs
///   distinct keys (duplicates are a construction-time panic, which bytes
///   from disk must never reach);
/// - keys that pair distinct nodes but are all canonical already are
///   `Corrupt`: every v1 and v2 writer stored such pairs in both
///   orientations, so this is a v3 payload under a damaged version word
///   (`3 ^ 1 == 2`), which the frame checksum does not cover.
fn canonicalise_ordered(entries: &mut Vec<(u64, f64)>) -> Result<(), PersistError> {
    let canonical = |k: u64| {
        let (a, b) = unpair_key(k);
        (pair_key(a, b), a > b)
    };
    // Equal stored keys sort adjacent, and each key sorts before its
    // mirror.
    entries.sort_unstable_by_key(|&(k, _)| canonical(k));
    if entries.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(PersistError::Corrupt("duplicate node-pair key"));
    }
    let (mut distinct, mut mirrored) = (false, false);
    for e in entries.iter_mut() {
        let (a, b) = unpair_key(e.0);
        distinct |= a != b;
        mirrored |= a > b;
        e.0 = pair_key(a, b);
    }
    if distinct && !mirrored {
        return Err(PersistError::Corrupt("ordered node-pair keys without mirrors"));
    }
    entries.dedup_by_key(|e| e.0);
    Ok(())
}

impl Atlas {
    /// Serializes the atlas in the compact v2 format: varint membership
    /// records, a tile directory (so the out-of-core [`crate::tilestore`]
    /// can seek straight to one tile's segment), nested compact oracle
    /// images, and qtable portal tables. `compress` selects quantized
    /// (bounded-error) vs raw (lossless) tables, exactly as in
    /// [`SeOracle::save_to_compact`]. An out-of-core atlas whose backing
    /// file no longer reads fails as an `io::Error`.
    pub fn save_to_compact<W: Write>(&self, w: &mut W, compress: bool) -> io::Result<()> {
        w.write_all(&self.image_compact(compress).map_err(io::Error::other)?)
    }

    /// [`Self::save_to_compact`] into an in-memory buffer.
    ///
    /// Panics only for an out-of-core atlas whose backing file no longer
    /// reads; [`Self::save_to_compact`] reports that as an `io::Error`.
    pub fn save_bytes_compact(&self, compress: bool) -> Vec<u8> {
        // lint: allow(panic, "an out-of-core tile read failure is the documented panic; save_to_compact returns it as an io::Error")
        self.image_compact(compress).expect("atlas tiles must be readable")
    }

    /// The framed v2 image; fails only when a tile is unavailable.
    fn image_compact(&self, compress: bool) -> Result<Vec<u8>, QueryError> {
        let mut p: Vec<u8> = Vec::new();
        p.extend_from_slice(&self.epsilon().to_le_bytes());
        p.extend_from_slice(&(self.n_sites() as u32).to_le_bytes());
        p.extend_from_slice(&(self.n_portals() as u32).to_le_bytes());
        p.extend_from_slice(&(self.n_tiles() as u32).to_le_bytes());
        for (s, members) in self.site_members().iter().enumerate() {
            write_varint(&mut p, self.site_homes()[s] as u64);
            write_varint(&mut p, members.len() as u64);
            for &(tile, local) in members {
                write_varint(&mut p, tile as u64);
                write_varint(&mut p, local as u64);
            }
        }
        let mut segments: Vec<Vec<u8>> = Vec::with_capacity(self.n_tiles());
        for t in 0..self.n_tiles() {
            let tile = self.tile(t)?;
            let blob = tile.oracle.save_bytes_compact(compress);
            let mut s = Vec::with_capacity(blob.len() + 64);
            s.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            s.extend_from_slice(&blob);
            s.extend_from_slice(&(tile.portals.len() as u32).to_le_bytes());
            for &(gid, local) in &tile.portals {
                write_varint(&mut s, gid as u64);
                write_varint(&mut s, local as u64);
            }
            write_qtable(&mut s, &tile.portal_table, compress);
            segments.push(s);
        }
        // Room for the directory (≤ 10 varint bytes per tile), the segments
        // and the frame, so the payload never reallocates while segments
        // move into it.
        let body: usize = segments.iter().map(Vec::len).sum();
        p.reserve(10 * segments.len() + body + 24);
        for s in &segments {
            write_varint(&mut p, s.len() as u64);
        }
        for s in segments {
            p.extend_from_slice(&s);
        }
        Ok(framed(ATLAS_MAGIC, ATLAS_VERSION_COMPACT, p))
    }

    /// Deserializes a v2 atlas image written by [`Self::save_to_compact`]
    /// or a v1 image from an earlier build, validating the checksum, every
    /// nested oracle image, the membership and portal tables, and tile
    /// routability, and building the portal labels (a tile oracle that
    /// fails an exit leg is [`PersistError::Corrupt`]) before returning.
    /// Both versions flow through `parse_seat_layout` +
    /// `decode_tile_segment` — the same pair the out-of-core `TileStore`
    /// uses, so a fully-resident load and a lazy one decode identical
    /// bytes identically.
    pub fn load_from<R: Read>(r: &mut R) -> Result<Self, PersistError> {
        let (version, payload) =
            read_framed(r, ATLAS_MAGIC, ATLAS_VERSION..=ATLAS_VERSION_COMPACT, IMAGE_FRAME_CAP)?;
        let layout = parse_seat_layout(&payload, version)?;
        let mut tiles = Vec::with_capacity(layout.segments.len());
        for &(off, len) in &layout.segments {
            tiles.push(decode_tile_segment(&payload[off..off + len], version, layout.n_portals)?);
        }
        for members in &layout.site_members {
            let ok =
                members.iter().all(|&(t, l)| (l as usize) < tiles[t as usize].oracle.n_sites());
            if !ok {
                return Err(PersistError::Corrupt("site membership local id out of range"));
            }
        }
        Atlas::from_parts(
            layout.eps,
            tiles,
            layout.site_home,
            layout.site_members,
            layout.n_portals,
        )
        .map_err(PersistError::Corrupt)
    }

    /// Deserializes from an in-memory buffer.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = bytes;
        Self::load_from(&mut r)
    }
}

/// The structural skeleton of a `SEAT` payload: everything *except* the
/// decoded tiles — shared metadata plus the byte span of every tile
/// segment (relative to the payload). [`Atlas::load_from`] decodes all
/// segments eagerly; the out-of-core `TileStore` keeps the spans and
/// decodes per miss.
pub(crate) struct SeatLayout {
    pub(crate) eps: f64,
    pub(crate) n_portals: usize,
    pub(crate) site_home: Vec<u32>,
    pub(crate) site_members: Vec<Vec<(u32, u32)>>,
    /// Per tile: `(offset, len)` of its segment within the payload.
    pub(crate) segments: Vec<(usize, usize)>,
}

/// Parses the shared head of a `SEAT` payload (ε, counts, site membership
/// records) and locates every tile segment — by structural walk for v1
/// (each record's lengths are read and skipped), by the tile directory for
/// v2. Validates every plausibility bound and membership invariant; tile
/// *contents* are validated by [`decode_tile_segment`].
pub(crate) fn parse_seat_layout(payload: &[u8], version: u32) -> Result<SeatLayout, PersistError> {
    let compact = version == ATLAS_VERSION_COMPACT;
    let mut c = Cursor { buf: payload, at: 0 };
    let eps = c.f64()?;
    if !(eps > 0.0 && eps.is_finite()) {
        return Err(PersistError::Corrupt("invalid ε"));
    }
    let n_sites = c.u32()? as usize;
    let n_portals = c.u32()? as usize;
    let n_tiles = c.u32()? as usize;
    if n_tiles == 0 || n_sites == 0 {
        return Err(PersistError::Corrupt("atlas without tiles or sites"));
    }
    // Counts are image-supplied and drive allocations (membership vectors
    // here, the portal graph and the portal labels at load), so bound them
    // by what the payload could possibly hold before allocating anything
    // proportional to them. v1 records cost at least 8 bytes per
    // site/tile/portal; v2 varint records can be as small as 4 bytes per
    // site (home + count + one 2-byte membership), 2 per portal
    // occurrence, and 8+ per tile (its directory entry plus the nested
    // image's frame). The labels' reach rows hold `n_sites × n_portals`
    // f64s, a product each count's own bound leaves quadratic in the
    // payload, so it is held to `exceeds_load_budget`.
    let rem = payload.len() - c.at;
    let plausible = if compact {
        n_sites <= rem / 4 && n_tiles <= rem / 8 && n_portals <= rem / 2
    } else {
        n_sites <= rem / 8 && n_tiles <= rem / 8 && n_portals <= rem / 8
    };
    let reach_bytes = (n_sites as u64).saturating_mul(n_portals as u64).saturating_mul(8);
    if !plausible || exceeds_load_budget(reach_bytes, payload.len()) {
        return Err(PersistError::Corrupt("implausible atlas counts"));
    }

    let mut site_home = Vec::with_capacity(n_sites);
    let mut site_members: Vec<Vec<(u32, u32)>> = Vec::with_capacity(n_sites);
    for _ in 0..n_sites {
        let (home, m) = if compact {
            let home = read_varint(&mut c)?;
            let m = read_varint(&mut c)?;
            if home >= n_tiles as u64 {
                return Err(PersistError::Corrupt("site home tile out of range"));
            }
            if m == 0 || m > n_tiles as u64 {
                return Err(PersistError::Corrupt("implausible site membership count"));
            }
            (home as u32, m as usize)
        } else {
            let home = c.u32()?;
            let m = c.u32()? as usize;
            if home as usize >= n_tiles {
                return Err(PersistError::Corrupt("site home tile out of range"));
            }
            if m == 0 || m > n_tiles {
                return Err(PersistError::Corrupt("implausible site membership count"));
            }
            (home, m)
        };
        let mut members = Vec::with_capacity(m);
        for _ in 0..m {
            if compact {
                let t = read_varint(&mut c)?;
                let l = read_varint(&mut c)?;
                if t >= n_tiles as u64 {
                    return Err(PersistError::Corrupt("site membership tiles not ascending"));
                }
                if l > u32::MAX as u64 {
                    return Err(PersistError::Corrupt("site membership local id out of range"));
                }
                members.push((t as u32, l as u32));
            } else {
                members.push((c.u32()?, c.u32()?));
            }
        }
        let ascending = members.windows(2).all(|w| w[0].0 < w[1].0);
        if !ascending || members.iter().any(|&(t, _)| t as usize >= n_tiles) {
            return Err(PersistError::Corrupt("site membership tiles not ascending"));
        }
        if !members.iter().any(|&(t, _)| t == home) {
            return Err(PersistError::Corrupt("site home missing from its memberships"));
        }
        site_home.push(home);
        site_members.push(members);
    }

    let mut segments = Vec::with_capacity(n_tiles);
    if compact {
        // v2: the directory names each segment's length; they must tile
        // the rest of the payload exactly.
        let mut lens = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            lens.push(read_varint(&mut c)?);
        }
        let mut total = 0u64;
        for &l in &lens {
            total = total.checked_add(l).ok_or(PersistError::Corrupt("tile directory overflow"))?;
        }
        if total != c.remaining() as u64 {
            return Err(PersistError::Corrupt("tile directory does not span payload"));
        }
        let mut at = c.at;
        for &l in &lens {
            segments.push((at, l as usize));
            at += l as usize;
        }
    } else {
        // v1: walk each tile record, validating the length fields exactly
        // as the eager loader always has, and record its span.
        for _ in 0..n_tiles {
            let start = c.at;
            let blob_len = c.u64()? as usize;
            c.take(blob_len)?;
            let np = c.u32()? as usize;
            if np > n_portals {
                return Err(PersistError::Corrupt("tile portal count exceeds total"));
            }
            c.take(np * 8)?;
            let tl = c.u64()? as usize;
            if tl != np * np {
                return Err(PersistError::Corrupt("portal table is not |portals|²"));
            }
            // `np ≤ n_portals` bounds `tl` only quadratically; check it
            // against the bytes actually left (8 per entry) before
            // consuming, like every other image-supplied count.
            if tl > c.remaining() / 8 {
                return Err(PersistError::Corrupt("truncated portal table"));
            }
            c.take(tl * 8)?;
            segments.push((start, c.at - start));
        }
        if c.at != payload.len() {
            return Err(PersistError::Corrupt("trailing bytes in payload"));
        }
    }

    Ok(SeatLayout { eps, n_portals, site_home, site_members, segments })
}

/// Decodes one tile segment located by [`parse_seat_layout`]: the nested
/// oracle image (independently framed and checksummed — an out-of-core
/// reload re-verifies the tile's integrity), the portal list, and the
/// portal table. Validates portal ids against `n_portals` and the decoded
/// oracle's site count.
pub(crate) fn decode_tile_segment(
    seg: &[u8],
    version: u32,
    n_portals: usize,
) -> Result<AtlasTile, PersistError> {
    let compact = version == ATLAS_VERSION_COMPACT;
    let mut c = Cursor { buf: seg, at: 0 };
    let blob_len = c.u64()? as usize;
    let oracle = SeOracle::load_bytes(c.take(blob_len)?)?;
    let np = c.u32()? as usize;
    if np > n_portals {
        return Err(PersistError::Corrupt("tile portal count exceeds total"));
    }
    let mut portals = Vec::with_capacity(np);
    for _ in 0..np {
        if compact {
            let g = read_varint(&mut c)?;
            let l = read_varint(&mut c)?;
            if g > u32::MAX as u64 || l > u32::MAX as u64 {
                return Err(PersistError::Corrupt("tile portal table ids invalid"));
            }
            portals.push((g as u32, l as u32));
        } else {
            portals.push((c.u32()?, c.u32()?));
        }
    }
    let ascending = portals.windows(2).all(|w| w[0].0 < w[1].0);
    if !ascending
        || portals.iter().any(|&(g, l)| g as usize >= n_portals || l as usize >= oracle.n_sites())
    {
        return Err(PersistError::Corrupt("tile portal table ids invalid"));
    }
    let portal_table = if compact {
        read_qtable(&mut c, np * np)?
    } else {
        let tl = c.u64()? as usize;
        if tl != np * np {
            return Err(PersistError::Corrupt("portal table is not |portals|²"));
        }
        if tl > c.remaining() / 8 {
            return Err(PersistError::Corrupt("truncated portal table"));
        }
        let mut table = Vec::with_capacity(tl);
        for _ in 0..tl {
            let d = c.f64()?;
            if !(d.is_finite() && d >= 0.0) {
                return Err(PersistError::Corrupt("portal distance not a finite length"));
            }
            table.push(d);
        }
        table
    };
    if c.at != seg.len() {
        return Err(PersistError::Corrupt("trailing bytes in tile segment"));
    }
    Ok(AtlasTile { oracle, portals, portal_table })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BuildConfig;
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::VertexSiteSpace;
    use std::sync::Arc;
    use terrain::gen::diamond_square;
    use terrain::poi::sample_uniform;
    use terrain::refine::insert_surface_points;

    /// A v1 atlas image written by an earlier build (see
    /// `tests/fixtures/v1/README.md`): this build reads v1 but writes only
    /// `SEAT` v2.
    const V1_ATLAS: &[u8] = include_bytes!("../../../tests/fixtures/v1/atlas-l4.seat");

    fn version_word(image: &[u8]) -> u32 {
        u32::from_le_bytes(image[4..8].try_into().unwrap())
    }

    /// Overwrites `patch.len()` payload bytes at payload offset `at` and
    /// recomputes the frame checksum, so the damage reaches the parser.
    fn patch_payload(image: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
        let mut bytes = image.to_vec();
        bytes[16 + at..16 + at + patch.len()].copy_from_slice(patch);
        let tail = bytes.len() - 8;
        let sum = fnv1a(&bytes[16..tail]);
        bytes[tail..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    fn oracle(n: usize, seed: u64, eps: f64) -> SeOracle {
        let mesh = diamond_square(4, 0.6, seed).to_mesh();
        let pois = sample_uniform(&mesh, n, seed ^ 0x9E);
        let refined = insert_surface_points(&mesh, &pois, None).unwrap();
        let mut sites = refined.poi_vertices.clone();
        sites.sort_unstable();
        sites.dedup();
        let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites);
        SeOracle::build(&sp, eps, &BuildConfig::default()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_every_answer() {
        let o = oracle(25, 21, 0.15);
        let bytes = o.save_bytes_compact(false);
        let loaded = SeOracle::load_bytes(&bytes).unwrap();
        assert_eq!(loaded.epsilon(), o.epsilon());
        assert_eq!(loaded.n_sites(), o.n_sites());
        assert_eq!(loaded.n_pairs(), o.n_pairs());
        assert_eq!(loaded.height(), o.height());
        for s in 0..o.n_sites() {
            for t in 0..o.n_sites() {
                assert_eq!(loaded.distance(s, t), o.distance(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn roundtrip_is_stable() {
        // save(load(save(x))) == save(load(x)) — the image is canonical
        // after one round trip.
        let o = oracle(12, 23, 0.25);
        let b1 = o.save_bytes_compact(false);
        let l1 = SeOracle::load_bytes(&b1).unwrap();
        let b2 = l1.save_bytes_compact(false);
        let l2 = SeOracle::load_bytes(&b2).unwrap();
        assert_eq!(b2, l2.save_bytes_compact(false));
    }

    #[test]
    fn bad_magic_rejected() {
        let o = oracle(8, 25, 0.3);
        let mut bytes = o.save_bytes_compact(false);
        bytes[0] = b'X';
        assert!(matches!(SeOracle::load_bytes(&bytes), Err(PersistError::BadMagic(_))));
    }

    #[test]
    fn bad_version_rejected_with_actionable_message() {
        let o = oracle(8, 27, 0.3);
        let mut bytes = o.save_bytes_compact(false);
        bytes[4] = 99;
        let err = SeOracle::load_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            PersistError::BadVersion { found: 99, supported: ORACLE_VERSION_COMPACT }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("99") && msg.contains(&ORACLE_VERSION_COMPACT.to_string()),
            "version error must name found and supported versions: {msg}"
        );
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let o = oracle(10, 29, 0.2);
        let mut bytes = o.save_bytes_compact(false);
        let mid = 16 + (bytes.len() - 24) / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            SeOracle::load_bytes(&bytes),
            Err(PersistError::Corrupt("checksum mismatch"))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let o = oracle(10, 31, 0.2);
        let bytes = o.save_bytes_compact(false);
        for cut in [3usize, 15, 20, bytes.len() - 4] {
            assert!(SeOracle::load_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(SeOracle::load_bytes(&[]).is_err());
    }

    // ------------------------------------------------------------------
    // Atlas (`SEAT`) images
    // ------------------------------------------------------------------

    fn small_atlas(n: usize, seed: u64, eps: f64) -> Atlas {
        use crate::atlas::AtlasConfig;
        use crate::p2p::EngineKind;
        let mesh = diamond_square(4, 0.6, seed).to_mesh();
        let pois = sample_uniform(&mesh, n, seed ^ 0x47A5);
        Atlas::build(&mesh, &pois, eps, EngineKind::EdgeGraph, &AtlasConfig::default()).unwrap()
    }

    #[test]
    fn atlas_roundtrip_is_byte_identical_and_answer_preserving() {
        let a = small_atlas(20, 41, 0.2);
        let bytes = a.save_bytes_compact(false);
        let loaded = Atlas::load_bytes(&bytes).unwrap();
        assert_eq!(
            loaded.save_bytes_compact(false),
            bytes,
            "an atlas image must re-serialize byte-identically after a reload"
        );
        assert_eq!(loaded.epsilon(), a.epsilon());
        assert_eq!(loaded.n_sites(), a.n_sites());
        assert_eq!(loaded.n_tiles(), a.n_tiles());
        assert_eq!(loaded.n_portals(), a.n_portals());
        for s in 0..a.n_sites() {
            for t in 0..a.n_sites() {
                assert_eq!(loaded.distance(s, t).to_bits(), a.distance(s, t).to_bits());
            }
        }
    }

    #[test]
    fn atlas_rejects_wrong_magic_and_version() {
        let a = small_atlas(10, 43, 0.25);
        let mut bytes = a.save_bytes_compact(false);
        // A monolithic image is not an atlas image (and vice versa).
        let o = oracle(8, 43, 0.25);
        assert!(matches!(
            Atlas::load_bytes(&o.save_bytes_compact(false)),
            Err(PersistError::BadMagic(_))
        ));
        assert!(matches!(SeOracle::load_bytes(&bytes), Err(PersistError::BadMagic(_))));
        bytes[4] = 7;
        assert!(matches!(
            Atlas::load_bytes(&bytes),
            Err(PersistError::BadVersion { found: 7, supported: ATLAS_VERSION_COMPACT })
        ));
    }

    // ------------------------------------------------------------------
    // Compact images (`SEOR` v3, `SEAT` v2)
    // ------------------------------------------------------------------

    #[test]
    fn compact_uncompressed_oracle_is_lossless_and_canonical() {
        let o = oracle(20, 51, 0.2);
        let bytes = o.save_bytes_compact(false);
        assert_eq!(version_word(&bytes), ORACLE_VERSION_COMPACT);
        let loaded = SeOracle::load_bytes(&bytes).unwrap();
        for s in 0..o.n_sites() {
            for t in 0..o.n_sites() {
                assert_eq!(
                    loaded.distance(s, t).to_bits(),
                    o.distance(s, t).to_bits(),
                    "an uncompressed image must answer bit-identically ({s},{t})"
                );
            }
        }
        // Canonical: a decode → re-encode round trip is byte-identical.
        assert_eq!(loaded.save_bytes_compact(false), bytes);
    }

    #[test]
    fn compact_compressed_oracle_stays_within_eps_quant() {
        use crate::quant::EPS_QUANT;
        let o = oracle(20, 53, 0.2);
        let bytes = o.save_bytes_compact(true);
        let raw = o.save_bytes_compact(false);
        assert!(bytes.len() < raw.len(), "compression must shrink the image");
        let loaded = SeOracle::load_bytes(&bytes).unwrap();
        for s in 0..o.n_sites() {
            for t in 0..o.n_sites() {
                let (a, b) = (o.distance(s, t), loaded.distance(s, t));
                assert!((a - b).abs() <= EPS_QUANT * a, "({s},{t}): {a} vs {b}");
            }
        }
        assert_eq!(loaded.save_bytes_compact(true), bytes, "compressed encoding is canonical");
    }

    #[test]
    fn compact_atlas_roundtrips_and_v1_keeps_loading() {
        let a = small_atlas(20, 55, 0.2);
        let raw = a.save_bytes_compact(false);
        let packed = a.save_bytes_compact(true);
        assert_eq!(version_word(&raw), ATLAS_VERSION_COMPACT);
        let from_raw = Atlas::load_bytes(&raw).unwrap();
        let from_packed = Atlas::load_bytes(&packed).unwrap();
        for s in 0..a.n_sites() {
            for t in 0..a.n_sites() {
                let d = a.distance(s, t);
                assert_eq!(from_raw.distance(s, t).to_bits(), d.to_bits());
                let dq = from_packed.distance(s, t);
                // Each routed answer sums ≤ 3 quantized legs and takes a
                // min over candidates; relative error per value is
                // ≤ EPS_QUANT and both operations preserve it.
                assert!((d - dq).abs() <= crate::quant::EPS_QUANT * d + 1e-12, "({s},{t})");
            }
        }
        assert_eq!(from_raw.save_bytes_compact(false), raw);
        assert_eq!(from_packed.save_bytes_compact(true), packed);

        // A v1 image keeps loading, and its lossless v2 re-encode answers
        // bit-identically to it. (`tests/persist_corruption.rs` checks each
        // v1 fixture against the build that wrote it.)
        assert_eq!(version_word(V1_ATLAS), ATLAS_VERSION);
        let from_v1 = Atlas::load_bytes(V1_ATLAS).unwrap();
        let reencoded = Atlas::load_bytes(&from_v1.save_bytes_compact(false)).unwrap();
        for s in 0..from_v1.n_sites() {
            for t in 0..from_v1.n_sites() {
                assert_eq!(from_v1.distance(s, t).to_bits(), reencoded.distance(s, t).to_bits());
            }
        }
    }

    #[test]
    fn compact_truncations_and_version_skew_are_typed_errors() {
        let a = small_atlas(10, 57, 0.25);
        let bytes = a.save_bytes_compact(true);
        for cut in [0usize, 3, 15, 40, bytes.len() / 2, bytes.len() - 4] {
            assert!(Atlas::load_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        let o = oracle(8, 57, 0.25);
        let ob = o.save_bytes_compact(true);
        for cut in [0usize, 3, 15, 40, ob.len() / 2, ob.len() - 4] {
            assert!(SeOracle::load_bytes(&ob[..cut]).is_err(), "cut at {cut} accepted");
        }
        // A v3 stamp is rejected with the newest supported version named.
        let mut skew = bytes.clone();
        skew[4] = 3;
        assert!(matches!(
            Atlas::load_bytes(&skew),
            Err(PersistError::BadVersion { found: 3, supported: ATLAS_VERSION_COMPACT })
        ));
    }

    #[test]
    fn hostile_nested_length_is_corrupt_not_a_panic() {
        // A SEAT image whose first tile's nested-oracle length field is
        // u64::MAX (checksum recomputed so the frame accepts it) must
        // come back as Corrupt, not overflow/panic inside the cursor — in
        // the v1 layout and in the v2 layout.
        let v2 = small_atlas(8, 47, 0.25).save_bytes_compact(false);
        for image in [V1_ATLAS, &v2[..]] {
            let (version, payload) = (version_word(image), &image[16..image.len() - 8]);
            // Every tile segment opens with its nested image's length.
            let (first, _) = parse_seat_layout(payload, version).unwrap().segments[0];
            let bytes = patch_payload(image, first, &u64::MAX.to_le_bytes());
            assert!(
                matches!(
                    Atlas::load_bytes(&bytes),
                    Err(PersistError::Corrupt("truncated payload"))
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn hostile_header_counts_are_corrupt_not_an_allocation() {
        // Patching n_portals (or n_sites/n_tiles) to u32::MAX with a
        // recomputed checksum must fail the plausibility bound, not reach
        // the portal-graph/membership allocations. Both layouts open with
        // eps (8) then n_sites/n_portals/n_tiles at payload offsets 8/12/16.
        let v2 = small_atlas(8, 49, 0.25).save_bytes_compact(false);
        for image in [V1_ATLAS, &v2[..]] {
            for count_off in [8usize, 12, 16] {
                let bytes = patch_payload(image, count_off, &u32::MAX.to_le_bytes());
                assert!(
                    matches!(
                        Atlas::load_bytes(&bytes),
                        Err(PersistError::Corrupt("implausible atlas counts"))
                    ),
                    "count at payload offset {count_off} accepted (version {})",
                    version_word(image)
                );
            }
            // n_sites and n_portals each at their own bound, so only their
            // product — the size of the labels' reach rows — is too large.
            // The frame wraps the payload in 24 bytes, and the counts are
            // bounded by what follows the 20-byte head.
            let version = version_word(image);
            let rem = image.len() - 24 - 20;
            let (sites, portals) = if version == ATLAS_VERSION_COMPACT {
                (rem / 4, rem / 2)
            } else {
                (rem / 8, rem / 8)
            };
            assert!(sites * portals * 8 > 32 * (image.len() - 24) + 65536);
            let mut counts = (sites as u32).to_le_bytes().to_vec();
            counts.extend_from_slice(&(portals as u32).to_le_bytes());
            assert!(
                matches!(
                    Atlas::load_bytes(&patch_payload(image, 8, &counts)),
                    Err(PersistError::Corrupt("implausible atlas counts"))
                ),
                "an n_sites × n_portals product beyond the image accepted (version {version})"
            );
        }
    }

    #[test]
    fn atlas_detects_corruption_and_truncation() {
        let a = small_atlas(12, 45, 0.25);
        let bytes = a.save_bytes_compact(false);
        // Flip one payload byte: the frame checksum catches it.
        let mut flipped = bytes.clone();
        let mid = 16 + (flipped.len() - 24) / 2;
        flipped[mid] ^= 0x20;
        assert!(matches!(
            Atlas::load_bytes(&flipped),
            Err(PersistError::Corrupt("checksum mismatch"))
        ));
        for cut in [0usize, 3, 15, 40, bytes.len() / 2, bytes.len() - 4] {
            assert!(Atlas::load_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    // ------------------------------------------------------------------
    // Canonical node-pair keys
    // ------------------------------------------------------------------

    /// A raw ordered key `(a, b)` as v1 and v2 images store it
    /// (`pair_key` itself is canonical).
    fn ordered_key(a: u32, b: u32) -> u64 {
        (u64::from(a) << 32) | u64::from(b)
    }

    #[test]
    fn legacy_keys_merge_with_their_mirrors_and_lone_mirrors_are_rekeyed() {
        // (1, 2) keeps its own value over its mirror's; the lone (3, 1)
        // becomes (1, 3).
        let mut e = vec![
            (ordered_key(3, 1), 7.0),
            (ordered_key(2, 1), 6.0),
            (ordered_key(3, 3), 0.0),
            (ordered_key(1, 2), 5.0),
        ];
        canonicalise_ordered(&mut e).unwrap();
        assert_eq!(e, [(pair_key(1, 2), 5.0), (pair_key(1, 3), 7.0), (pair_key(3, 3), 0.0)]);
    }

    #[test]
    fn legacy_equal_keys_stay_corrupt() {
        let stored = [(ordered_key(1, 2), 5.0), (ordered_key(2, 1), 5.0), (ordered_key(4, 4), 0.0)];
        for (twice, _) in stored {
            let mut e = stored.to_vec();
            e.push((twice, 1.0));
            assert!(matches!(
                canonicalise_ordered(&mut e),
                Err(PersistError::Corrupt("duplicate node-pair key"))
            ));
        }
    }

    #[test]
    fn legacy_keys_without_a_mirror_are_corrupt_unless_all_diagonal() {
        let mut e = vec![(ordered_key(1, 2), 5.0), (ordered_key(1, 1), 0.0)];
        assert!(matches!(
            canonicalise_ordered(&mut e),
            Err(PersistError::Corrupt("ordered node-pair keys without mirrors"))
        ));
        // A single-site oracle stores only its leaf pair, in both layouts.
        let mut e = vec![(ordered_key(1, 1), 0.0)];
        canonicalise_ordered(&mut e).unwrap();
        assert_eq!(e, [(pair_key(1, 1), 0.0)]);
    }

    #[test]
    fn v3_rejects_a_key_with_a_above_b() {
        let o = oracle(10, 59, 0.25);
        let mut entries: Vec<(u64, f64)> = o.pair_entries().collect();
        let at = entries.iter().position(|&(k, _)| unpair_key(k).0 != unpair_key(k).1).unwrap();
        let (a, b) = unpair_key(entries[at].0);
        entries[at].0 = ordered_key(b, a);
        let hostile = SeOracle::from_parts(o.epsilon(), o.tree().clone(), entries);
        let bytes = hostile.save_bytes_compact(false);
        assert_eq!(version_word(&bytes), ORACLE_VERSION_COMPACT);
        assert!(matches!(
            SeOracle::load_bytes(&bytes),
            Err(PersistError::Corrupt("node-pair key not canonical"))
        ));
        // A v3 image stamped v2 has no mirrors, which no v2 writer wrote.
        let mut relabelled = o.save_bytes_compact(false);
        relabelled[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            SeOracle::load_bytes(&relabelled),
            Err(PersistError::Corrupt("ordered node-pair keys without mirrors"))
        ));
    }

    /// A checksum-valid v3 image of a tree of height `h` with `nodes` as
    /// `(center, layer, parent)`, radii 0, `leaves` as `leaf_of_site`,
    /// and `pairs` as `(key, distance)` in ascending key order.
    fn v3_image(
        h: u32,
        nodes: &[(u32, u32, u32)],
        leaves: &[u32],
        pairs: &[(u64, f64)],
    ) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&0.5f64.to_le_bytes()); // ε
        p.extend_from_slice(&0.0f64.to_le_bytes()); // r0
        p.extend_from_slice(&h.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes()); // root
        p.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
        for field in 0..3 {
            for &(center, layer, parent) in nodes {
                write_varint(&mut p, u64::from([center, layer, parent][field]));
            }
        }
        write_qtable(&mut p, &vec![0.0; nodes.len()], false); // radii
        p.extend_from_slice(&(leaves.len() as u32).to_le_bytes());
        for &leaf in leaves {
            write_varint(&mut p, u64::from(leaf));
        }
        p.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
        let mut prev = 0;
        for &(k, _) in pairs {
            write_varint(&mut p, k - prev);
            prev = k;
        }
        let dists: Vec<f64> = pairs.iter().map(|&(_, d)| d).collect();
        write_qtable(&mut p, &dists, false);
        framed(MAGIC, ORACLE_VERSION_COMPACT, p)
    }

    /// A checksum-valid v3 image of a one-node, one-site oracle whose only
    /// pair key is `key`.
    fn one_node_image(key: u64) -> Vec<u8> {
        v3_image(0, &[(0, 0, NO_NODE)], &[0], &[(key, 1.0)])
    }

    #[test]
    fn v3_rejects_a_key_naming_a_missing_node() {
        let loaded = SeOracle::load_bytes(&one_node_image(pair_key(0, 0))).unwrap();
        assert_eq!((loaded.n_pairs(), loaded.distance(0, 0)), (1, 1.0));
        for key in [pair_key(0, 1), pair_key(1, 1)] {
            assert!(
                matches!(
                    SeOracle::load_bytes(&one_node_image(key)),
                    Err(PersistError::Corrupt("node-pair key names a missing node"))
                ),
                "key {key:#x}"
            );
        }
    }

    #[test]
    fn hostile_tree_height_is_corrupt_not_an_allocation() {
        // A root and ten leaves at layer MAX_TREE_HEIGHT, every leaf self
        // pair stored: each count passes its own bound, but the layer table
        // a load fills (ten rows of 4,097 entries) is past what the
        // payload can justify.
        let h = MAX_TREE_HEIGHT;
        let mut nodes = vec![(0, 0, NO_NODE)];
        nodes.extend((0..10).map(|site| (site, h, 0)));
        let leaves: Vec<u32> = (1..=10).collect();
        let pairs: Vec<(u64, f64)> = leaves.iter().map(|&l| (pair_key(l, l), 0.0)).collect();
        let image = v3_image(h, &nodes, &leaves, &pairs);
        let table = 10 * (h as usize + 1) * 4;
        assert!(table > 32 * (image.len() - 24) + 65536, "{table} B from {} B", image.len());
        assert!(matches!(
            SeOracle::load_bytes(&image),
            Err(PersistError::Corrupt("implausible tree height"))
        ));
        // The same tree one layer deep loads.
        let nodes: Vec<_> = nodes.iter().map(|&(c, l, p)| (c, l.min(1), p)).collect();
        let shallow = SeOracle::load_bytes(&v3_image(1, &nodes, &leaves, &pairs)).unwrap();
        assert_eq!(shallow.distance(3, 3), 0.0);
    }

    #[test]
    fn an_image_missing_a_leaf_self_pair_is_corrupt() {
        // Every built oracle stores every leaf's self pair, so an image
        // without one is hollow: rejected at load, not at its first query.
        let o = oracle(10, 61, 0.25);
        let leaf = o.tree().leaf_of_site[3];
        let one_short = o.pair_entries().filter(|&(k, _)| k != pair_key(leaf, leaf)).collect();
        for entries in [vec![], one_short] {
            let hostile = SeOracle::from_parts(o.epsilon(), o.tree().clone(), entries);
            assert!(matches!(
                SeOracle::load_bytes(&hostile.save_bytes_compact(false)),
                Err(PersistError::Corrupt("leaf self pair missing"))
            ));
        }
        assert!(SeOracle::load_bytes(&o.save_bytes_compact(false)).is_ok());
    }

    #[test]
    fn queries_after_reload_stay_within_eps() {
        // End-to-end: the reloaded oracle keeps the ε guarantee against
        // freshly computed exact distances.
        let mesh = diamond_square(4, 0.6, 33).to_mesh();
        let pois = sample_uniform(&mesh, 15, 0x33);
        let refined = insert_surface_points(&mesh, &pois, None).unwrap();
        let mut sites = refined.poi_vertices.clone();
        sites.sort_unstable();
        sites.dedup();
        let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites);
        let eps = 0.2;
        let o = SeOracle::build(&sp, eps, &BuildConfig::default()).unwrap();
        let loaded = SeOracle::load_bytes(&o.save_bytes_compact(false)).unwrap();
        use geodesic::sitespace::SiteSpace;
        for s in 0..loaded.n_sites() {
            let exact = sp.all_distances(s);
            for (t, &ex) in exact.iter().enumerate().take(loaded.n_sites()) {
                let d = loaded.distance(s, t);
                assert!((d - ex).abs() <= eps * ex + 1e-9);
            }
        }
    }
}
