//! `terrain-oracle` — command-line front end for building, inspecting and
//! querying SE distance-oracle images.
//!
//! ```text
//! terrain-oracle build --mesh t.off --pois p.csv --eps 0.1 --out oracle.seor
//! terrain-oracle info  --oracle oracle.seor
//! terrain-oracle query --oracle oracle.seor --pairs "0 5" "3 17"
//! terrain-oracle query-path --mesh t.off --pois p.csv --eps 0.1
//!                           --pairs "0 5" "3 17"
//! terrain-oracle query-detour --mesh t.off --pois p.csv --eps 0.1
//!                             --from 0 --to 5 --delta 0.4
//! terrain-oracle knn   --oracle oracle.seor --site 4 --k 3
//! terrain-oracle gen   --preset sf-small --scale 0.5 --out t.off
//! terrain-oracle atlas-build --mesh t.off --pois p.csv --eps 0.1
//!                            --grid 2x2 --out atlas.seat
//! terrain-oracle atlas-query --atlas atlas.seat --pairs-file q.txt
//! ```
//!
//! POIs are a CSV of `x,y` (projected onto the surface) or `x,y,z`
//! (matched to the nearest surface point by projection); `#` comments and
//! blank lines are ignored.

use se_oracle::atlas::{Atlas, AtlasConfig, AtlasHandle};
use se_oracle::oracle::{BuildConfig, SeOracle};
use se_oracle::p2p::{EngineKind, P2POracle};
use se_oracle::route::PathIndex;
use se_oracle::serve::QueryHandle;
use se_oracle::ProximityIndex;
use std::process::ExitCode;
use terrain::gen::Preset;
use terrain::locate::FaceLocator;
use terrain::poi::SurfacePoint;
use terrain::tile::TileGridConfig;
use terrain::TerrainMesh;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("query-batch") => cmd_query_batch(&args[1..]),
        Some("query-path") => cmd_query_path(&args[1..]),
        Some("query-detour") => cmd_query_detour(&args[1..]),
        Some("atlas-build") => cmd_atlas_build(&args[1..]),
        Some("atlas-query") => cmd_atlas_query(&args[1..]),
        Some("knn") => cmd_knn(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
terrain-oracle — SE geodesic distance oracles on terrain surfaces

USAGE:
  terrain-oracle build --mesh <file.off> --pois <file.csv> --eps <f>
                       --out <file.seor> [--engine exact|edge|steiner]
                       [--threads <n>]   (0 = auto-detect; default 0)
                       [--compress]      (quantize the image's tables:
                       answers within (1+eps)(1+EPS_QUANT), EPS_QUANT =
                       2^-20, from a smaller image; without it the tables
                       are raw and answers bit-identical. Images are
                       always SEOR format v3.)
                       [--trace <file.json>]  (write a Chrome trace-event
                       JSON of the build phases; view in chrome://tracing
                       or Perfetto. The built image is byte-identical with
                       and without tracing.)
  terrain-oracle info  --oracle <file.seor>
  terrain-oracle query --oracle <file.seor> --pairs \"<s> <t>\" ...
  terrain-oracle query-batch --oracle <file.seor> [--pairs-file <f>]
                       [--threads <n>]   (pairs from the file or stdin, one
                       '<s> <t>' per line; 0 threads = auto-detect)
  terrain-oracle query-path --mesh <file.off> --pois <file.csv> --eps <f>
                       --pairs \"<s> <t>\" ... [--engine exact|edge|steiner]
                       [--steiner-points <m>] [--threads <n>]
                       (ids are POI indices from the CSV; prints one
                       '<s> <t> <distance> <length> <points>' per pair)
  terrain-oracle query-detour --mesh <file.off> --pois <file.csv> --eps <f>
                       --from <s> --to <t> --delta <f>
                       [--engine exact|edge|steiner] [--threads <n>]
                       (POIs p with d(s,p) + d(p,t) <= d(s,t) + delta;
                       prints one '<p> <d_sp> <d_pt> <total>' per POI)
  terrain-oracle atlas-build --mesh <file.off> --pois <file.csv> --eps <f>
                       --out <file.seat> [--grid <nx>x<ny>] [--overlap <f>]
                       [--portal-spacing <k>] [--engine exact|edge|steiner]
                       [--threads <n>] [--compress]   (tiled per-piece
                       oracles + portal graph; defaults: 2x2 grid, 0.15
                       overlap, spacing 8; the image is SEAT format v2
                       with v3 tiles, and --compress quantizes its tables
                       as for build)
  terrain-oracle atlas-query --atlas <file.seat> [--pairs-file <f>]
                       [--threads <n>]   (pairs from the file or stdin, one
                       '<s> <t>' per line; 0 threads = auto-detect)
                       [--resident-budget <bytes>]  (serve out-of-core:
                       decode tiles lazily, hold at most this many decoded
                       bytes resident; answers are bit-identical to a
                       fully resident load of the same image)
  terrain-oracle knn   --oracle <file.seor> --site <s> --k <k>
  terrain-oracle gen   --preset bh|ep|sf|sf-small|bh-low --scale <f>
                       --out <file.off>
";

/// Pulls the value following `--name`, removing both from `rest`.
fn take_opt(rest: &mut Vec<String>, name: &str) -> Option<String> {
    let at = rest.iter().position(|a| a == name)?;
    if at + 1 >= rest.len() {
        return None;
    }
    let v = rest.remove(at + 1);
    rest.remove(at);
    Some(v)
}

/// Pulls a bare `--name` flag, removing it from `rest`.
fn take_flag(rest: &mut Vec<String>, name: &str) -> bool {
    match rest.iter().position(|a| a == name) {
        Some(at) => {
            rest.remove(at);
            true
        }
        None => false,
    }
}

fn require(rest: &mut Vec<String>, name: &str) -> Result<String, String> {
    take_opt(rest, name).ok_or_else(|| format!("missing required option {name}"))
}

fn reject_leftovers(rest: &[String]) -> Result<(), String> {
    if let Some(stray) = rest.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown option '{stray}'"));
    }
    Ok(())
}

fn load_mesh(path: &str) -> Result<TerrainMesh, String> {
    terrain::io::read_off_file(path).map_err(|e| format!("reading {path}: {e}"))
}

fn load_pois(path: &str, mesh: &TerrainMesh) -> Result<Vec<SurfacePoint>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let locator = FaceLocator::build(mesh);
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() < 2 {
            return Err(format!("{path}:{}: expected 'x,y[,z]'", ln + 1));
        }
        let x: f64 =
            fields[0].parse().map_err(|_| format!("{path}:{}: bad x '{}'", ln + 1, fields[0]))?;
        let y: f64 =
            fields[1].parse().map_err(|_| format!("{path}:{}: bad y '{}'", ln + 1, fields[1]))?;
        let (face, pos) = locator
            .locate(mesh, x, y)
            .ok_or_else(|| format!("{path}:{}: ({x}, {y}) outside the terrain", ln + 1))?;
        out.push(SurfacePoint { face, pos });
    }
    if out.is_empty() {
        return Err(format!("{path}: no POIs"));
    }
    Ok(out)
}

/// Parses the optional `--engine` flag (default: exact).
fn parse_engine(rest: &mut Vec<String>) -> Result<EngineKind, String> {
    match take_opt(rest, "--engine").as_deref() {
        None | Some("exact") => Ok(EngineKind::Exact),
        Some("edge") => Ok(EngineKind::EdgeGraph),
        Some("steiner") => Ok(EngineKind::Steiner { points_per_edge: 3 }),
        Some(other) => Err(format!("unknown engine '{other}'")),
    }
}

/// Parses the optional `--threads` flag. `0` = auto-detect (the
/// `BuildConfig` convention); validated here so a typo fails before any
/// input loads.
fn parse_threads(rest: &mut Vec<String>) -> Result<usize, String> {
    match take_opt(rest, "--threads") {
        Some(t) => {
            t.parse().map_err(|_| "--threads needs a non-negative integer (0 = auto)".to_string())
        }
        None => Ok(0),
    }
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let mesh_path = require(&mut rest, "--mesh")?;
    let poi_path = require(&mut rest, "--pois")?;
    let eps: f64 =
        require(&mut rest, "--eps")?.parse().map_err(|_| "--eps needs a number".to_string())?;
    let out_path = require(&mut rest, "--out")?;
    let trace_path = take_opt(&mut rest, "--trace");
    let compress = take_flag(&mut rest, "--compress");
    let engine = parse_engine(&mut rest)?;
    let threads = parse_threads(&mut rest)?;
    reject_leftovers(&rest)?;

    let mesh = load_mesh(&mesh_path)?;
    let pois = load_pois(&poi_path, &mesh)?;
    eprintln!("building SE(ε={eps}) over {} POIs on {} vertices…", pois.len(), mesh.n_vertices());
    let cfg = BuildConfig { threads, ..Default::default() };
    if trace_path.is_some() {
        se_oracle::telemetry::trace::enable();
    }
    let t0 = std::time::Instant::now();
    let oracle = P2POracle::build(&mesh, &pois, eps, engine, &cfg).map_err(|e| e.to_string())?;
    if let Some(trace_out) = &trace_path {
        let events = se_oracle::telemetry::trace::take_events();
        let json = se_oracle::telemetry::trace::export_chrome_json(&events);
        std::fs::write(trace_out, json).map_err(|e| format!("writing {trace_out}: {e}"))?;
        eprintln!(
            "wrote {} trace event(s) to {trace_out} (open in chrome://tracing or Perfetto)",
            events.len()
        );
    }
    let stats = oracle.oracle().build_stats();
    eprintln!(
        "built in {:.2?}: {} pairs, h = {}, {:.1} KiB ({} workers, SSAD cache {} hits / {} misses)",
        t0.elapsed(),
        oracle.oracle().n_pairs(),
        oracle.oracle().height(),
        oracle.storage_bytes() as f64 / 1024.0,
        stats.workers,
        stats.cache_hits,
        stats.cache_misses
    );
    let mut f =
        std::fs::File::create(&out_path).map_err(|e| format!("creating {out_path}: {e}"))?;
    oracle
        .oracle()
        .save_to_compact(&mut f, compress)
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("{out_path}");
    Ok(())
}

fn load_oracle(rest: &mut Vec<String>) -> Result<SeOracle, String> {
    let path = require(rest, "--oracle")?;
    let mut f = std::fs::File::open(&path).map_err(|e| format!("opening {path}: {e}"))?;
    SeOracle::load_from(&mut f).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let oracle = load_oracle(&mut rest)?;
    reject_leftovers(&rest)?;
    println!("sites:   {}", oracle.n_sites());
    println!("pairs:   {}", oracle.n_pairs());
    println!("epsilon: {}", oracle.epsilon());
    println!("height:  {}", oracle.height());
    println!("bytes:   {}", oracle.storage_bytes());
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let oracle = load_oracle(&mut rest)?;
    let at = rest.iter().position(|a| a == "--pairs").ok_or("missing required option --pairs")?;
    let pair_args: Vec<String> = rest.drain(at..).skip(1).collect();
    reject_leftovers(&rest)?;
    if pair_args.is_empty() {
        return Err("--pairs needs at least one \"<s> <t>\" argument".into());
    }
    for spec in &pair_args {
        let mut it = spec.split_whitespace();
        let (s, t) = match (it.next(), it.next(), it.next()) {
            (Some(s), Some(t), None) => (s, t),
            _ => return Err(format!("bad pair '{spec}' (expected \"<s> <t>\")")),
        };
        let s: usize = s.parse().map_err(|_| format!("bad site '{s}'"))?;
        let t: usize = t.parse().map_err(|_| format!("bad site '{t}'"))?;
        let n = oracle.n_sites();
        if s >= n || t >= n {
            return Err(format!("pair ({s}, {t}) out of range (oracle has {n} sites)"));
        }
        let (d, _) = oracle
            .distance_many_checked_with_stats(&[(s as u32, t as u32)])
            .map_err(|e| e.to_string())?;
        println!("{s} {t} {}", d[0]);
    }
    Ok(())
}

/// Parses batch query pairs: one `<s> <t>` per line, `#` comments and
/// blank lines ignored, every id checked against `n_sites`. Errors cite
/// `source:line`, and a fully parsed batch needs no further validation.
fn parse_pair_lines(text: &str, source: &str, n_sites: usize) -> Result<Vec<(u32, u32)>, String> {
    let mut pairs = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (s, t) = match (it.next(), it.next(), it.next()) {
            (Some(s), Some(t), None) => (s, t),
            _ => return Err(format!("{source}:{}: expected '<s> <t>', got '{line}'", ln + 1)),
        };
        let s: u32 = s.parse().map_err(|_| format!("{source}:{}: bad site '{s}'", ln + 1))?;
        let t: u32 = t.parse().map_err(|_| format!("{source}:{}: bad site '{t}'", ln + 1))?;
        if s as usize >= n_sites || t as usize >= n_sites {
            return Err(format!(
                "{source}:{}: pair ({s}, {t}) out of range (oracle has {n_sites} sites)",
                ln + 1
            ));
        }
        pairs.push((s, t));
    }
    Ok(pairs)
}

fn cmd_query_batch(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let oracle = load_oracle(&mut rest)?;
    let pairs_path = take_opt(&mut rest, "--pairs-file");
    let threads: usize = match take_opt(&mut rest, "--threads") {
        Some(t) => t
            .parse()
            .map_err(|_| "--threads needs a non-negative integer (0 = auto)".to_string())?,
        None => 0,
    };
    reject_leftovers(&rest)?;

    let (text, source) = match &pairs_path {
        Some(p) => {
            (std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?, p.as_str())
        }
        None => {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)
                .map_err(|e| format!("reading stdin: {e}"))?;
            (s, "<stdin>")
        }
    };
    let handle = QueryHandle::new(oracle);
    let pairs = parse_pair_lines(&text, source, handle.n_sites())?;
    if pairs.is_empty() {
        return Err(format!(
            "{source}: no query pairs (one '<s> <t>' per line; \
             '#' comments and blank lines are ignored)"
        ));
    }

    let t0 = std::time::Instant::now();
    // Parsing validated every id, so the unchecked driver is safe.
    let answers = handle.distance_many_par(&pairs, threads);
    let elapsed = t0.elapsed();
    let mut out = String::with_capacity(answers.len() * 24);
    for (&(s, t), d) in pairs.iter().zip(&answers) {
        use std::fmt::Write;
        writeln!(out, "{s} {t} {d}").expect("String writes are infallible");
    }
    print!("{out}");
    // An upper bound: the shard driver spawns fewer workers than resolved
    // when the batch splits into fewer shards.
    eprintln!(
        "{} pairs in {elapsed:.2?} (up to {} workers)",
        pairs.len(),
        geodesic::pool::resolve_threads(threads)
    );
    Ok(())
}

/// Parses one `"<s> <t>"` pair spec against an id bound.
fn parse_pair_spec(spec: &str, n: usize, what: &str) -> Result<(usize, usize), String> {
    let mut it = spec.split_whitespace();
    let (s, t) = match (it.next(), it.next(), it.next()) {
        (Some(s), Some(t), None) => (s, t),
        _ => return Err(format!("bad pair '{spec}' (expected \"<s> <t>\")")),
    };
    let s: usize = s.parse().map_err(|_| format!("bad {what} '{s}'"))?;
    let t: usize = t.parse().map_err(|_| format!("bad {what} '{t}'"))?;
    if s >= n || t >= n {
        return Err(format!("pair ({s}, {t}) out of range ({n} {what}s)"));
    }
    Ok((s, t))
}

/// Shared front half of `query-path` / `query-detour`: build a fresh
/// P2P oracle from `--mesh`/`--pois`/`--eps` (persisted `.seor` images
/// answer distances only — the mesh is needed for routes).
fn build_p2p_cli(rest: &mut Vec<String>) -> Result<P2POracle, String> {
    let mesh_path = require(rest, "--mesh")?;
    let poi_path = require(rest, "--pois")?;
    let eps: f64 =
        require(rest, "--eps")?.parse().map_err(|_| "--eps needs a number".to_string())?;
    let engine = parse_engine(rest)?;
    let threads = parse_threads(rest)?;
    let mesh = load_mesh(&mesh_path)?;
    let pois = load_pois(&poi_path, &mesh)?;
    let cfg = BuildConfig { threads, ..Default::default() };
    P2POracle::build(&mesh, &pois, eps, engine, &cfg).map_err(|e| e.to_string())
}

fn cmd_query_path(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let m: usize = match take_opt(&mut rest, "--steiner-points") {
        Some(s) => {
            s.parse().ok().filter(|&m| m >= 1).ok_or("--steiner-points needs a positive integer")?
        }
        None => 3,
    };
    let at = rest.iter().position(|a| a == "--pairs").ok_or("missing required option --pairs")?;
    let pair_args: Vec<String> = rest.drain(at..).skip(1).collect();
    if pair_args.is_empty() {
        return Err("--pairs needs at least one \"<s> <t>\" argument".into());
    }
    let p2p = build_p2p_cli(&mut rest)?;
    reject_leftovers(&rest)?;
    let pairs = pair_args
        .iter()
        .map(|spec| parse_pair_spec(spec, p2p.n_pois(), "POI"))
        .collect::<Result<Vec<_>, _>>()?;

    let paths = PathIndex::for_p2p(&p2p, m);
    for (s, t) in pairs {
        let sp = p2p.oracle().shortest_path(p2p.site_of_poi(s), p2p.site_of_poi(t), &paths);
        println!("{s} {t} {} {} {}", sp.distance, sp.path.length, sp.path.points.len());
    }
    Ok(())
}

fn cmd_query_detour(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let from: usize = require(&mut rest, "--from")?
        .parse()
        .map_err(|_| "--from needs a POI index".to_string())?;
    let to: usize =
        require(&mut rest, "--to")?.parse().map_err(|_| "--to needs a POI index".to_string())?;
    let delta: f64 = require(&mut rest, "--delta")?
        .parse()
        .ok()
        .filter(|d: &f64| d.is_finite() && *d >= 0.0)
        .ok_or("--delta needs a finite non-negative number")?;
    let p2p = build_p2p_cli(&mut rest)?;
    reject_leftovers(&rest)?;
    for (name, id) in [("--from", from), ("--to", to)] {
        if id >= p2p.n_pois() {
            return Err(format!("{name} {id} out of range ({} POIs)", p2p.n_pois()));
        }
    }
    for p in p2p.oracle().pois_within_detour(p2p.site_of_poi(from), p2p.site_of_poi(to), delta) {
        println!("{} {} {} {}", p.site, p.from_s, p.to_t, p.via());
    }
    Ok(())
}

fn cmd_atlas_build(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let mesh_path = require(&mut rest, "--mesh")?;
    let poi_path = require(&mut rest, "--pois")?;
    let eps: f64 =
        require(&mut rest, "--eps")?.parse().map_err(|_| "--eps needs a number".to_string())?;
    let out_path = require(&mut rest, "--out")?;
    let compress = take_flag(&mut rest, "--compress");
    let engine = parse_engine(&mut rest)?;
    let threads = parse_threads(&mut rest)?;
    let mut grid = TileGridConfig::default();
    if let Some(spec) = take_opt(&mut rest, "--grid") {
        let (nx, ny) = spec
            .split_once('x')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .filter(|&(nx, ny)| nx >= 1 && ny >= 1)
            .ok_or_else(|| format!("--grid needs '<nx>x<ny>' (got '{spec}')"))?;
        grid.nx = nx;
        grid.ny = ny;
    }
    if let Some(f) = take_opt(&mut rest, "--overlap") {
        grid.overlap_frac =
            f.parse().map_err(|_| "--overlap needs a fraction in (0, 1)".to_string())?;
    }
    if let Some(k) = take_opt(&mut rest, "--portal-spacing") {
        grid.portal_spacing =
            k.parse().map_err(|_| "--portal-spacing needs a positive integer".to_string())?;
    }
    reject_leftovers(&rest)?;

    let mesh = load_mesh(&mesh_path)?;
    let pois = load_pois(&poi_path, &mesh)?;
    eprintln!(
        "building {}×{} atlas SE(ε={eps}) over {} POIs on {} vertices…",
        grid.nx,
        grid.ny,
        pois.len(),
        mesh.n_vertices()
    );
    let cfg = AtlasConfig {
        grid,
        build: BuildConfig { threads, ..Default::default() },
        path_points_per_edge: None,
    };
    let atlas = Atlas::build(&mesh, &pois, eps, engine, &cfg).map_err(|e| e.to_string())?;
    let s = atlas.build_stats();
    eprintln!(
        "built in {:.2?}: {} tiles ({} sites each incl. portals/guests), {} portals, \
         {} graph edges, {:.1} KiB ({} workers, {} concurrent tiles)",
        s.total,
        s.n_tiles,
        s.tile_sites.iter().map(|n| n.to_string()).collect::<Vec<_>>().join("/"),
        s.n_portals,
        s.portal_edges,
        atlas.storage_bytes() as f64 / 1024.0,
        s.workers,
        s.tile_workers
    );
    let mut f =
        std::fs::File::create(&out_path).map_err(|e| format!("creating {out_path}: {e}"))?;
    atlas.save_to_compact(&mut f, compress).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("{out_path}");
    Ok(())
}

fn cmd_atlas_query(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let path = require(&mut rest, "--atlas")?;
    let pairs_path = take_opt(&mut rest, "--pairs-file");
    let budget: Option<usize> = match take_opt(&mut rest, "--resident-budget") {
        Some(b) => Some(b.parse().map_err(|_| "--resident-budget needs a byte count".to_string())?),
        None => None,
    };
    let threads = parse_threads(&mut rest)?;
    reject_leftovers(&rest)?;

    let atlas = match budget {
        Some(bytes) => Atlas::open_out_of_core(std::path::Path::new(&path), bytes)
            .map_err(|e| format!("loading {path}: {e}"))?,
        None => {
            let mut f = std::fs::File::open(&path).map_err(|e| format!("opening {path}: {e}"))?;
            Atlas::load_from(&mut f).map_err(|e| format!("loading {path}: {e}"))?
        }
    };
    let (text, source) = match &pairs_path {
        Some(p) => {
            (std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?, p.as_str())
        }
        None => {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut s)
                .map_err(|e| format!("reading stdin: {e}"))?;
            (s, "<stdin>")
        }
    };
    let handle = AtlasHandle::new(atlas);
    let pairs = parse_pair_lines(&text, source, handle.n_sites())?;
    if pairs.is_empty() {
        return Err(format!(
            "{source}: no query pairs (one '<s> <t>' per line; \
             '#' comments and blank lines are ignored)"
        ));
    }

    let t0 = std::time::Instant::now();
    let answers = handle.distance_many_par(&pairs, threads);
    let elapsed = t0.elapsed();
    let mut out = String::with_capacity(answers.len() * 24);
    for (&(s, t), d) in pairs.iter().zip(&answers) {
        use std::fmt::Write;
        writeln!(out, "{s} {t} {d}").expect("String writes are infallible");
    }
    print!("{out}");
    eprintln!(
        "{} pairs in {elapsed:.2?} (up to {} workers)",
        pairs.len(),
        geodesic::pool::resolve_threads(threads)
    );
    if let Some(store) = handle.atlas().tile_store() {
        let s = store.stats();
        eprintln!(
            "out-of-core: {} hits ({} load waits) / {} misses / {} evictions, {} of {} tiles \
             resident ({} / {} bytes)",
            s.hits,
            s.load_waits,
            s.misses,
            s.evictions,
            s.resident_tiles,
            s.n_tiles,
            s.resident_bytes,
            s.budget_bytes
        );
    }
    Ok(())
}

fn cmd_knn(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let oracle = load_oracle(&mut rest)?;
    let site: usize =
        require(&mut rest, "--site")?.parse().map_err(|_| "--site needs an integer".to_string())?;
    let k: usize =
        require(&mut rest, "--k")?.parse().map_err(|_| "--k needs an integer".to_string())?;
    reject_leftovers(&rest)?;
    if site >= oracle.n_sites() {
        return Err(format!("site {site} out of range ({} sites)", oracle.n_sites()));
    }
    let idx = ProximityIndex::new(&oracle);
    for nb in idx.knn(site, k) {
        println!("{} {}", nb.site, nb.distance);
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let mut rest = args.to_vec();
    let preset = match require(&mut rest, "--preset")?.as_str() {
        "bh" => Preset::BearHead,
        "ep" => Preset::EaglePeak,
        "sf" => Preset::SanFrancisco,
        "sf-small" => Preset::SfSmall,
        "bh-low" => Preset::BearHeadLow,
        other => return Err(format!("unknown preset '{other}'")),
    };
    let scale: f64 = match take_opt(&mut rest, "--scale") {
        Some(s) => s.parse().map_err(|_| "--scale needs a number".to_string())?,
        None => 1.0,
    };
    let out = require(&mut rest, "--out")?;
    reject_leftovers(&rest)?;
    let mesh = preset.mesh(scale);
    terrain::io::write_off_file(&mesh, &out).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "{}: {} vertices, {} faces → {out}",
        preset.name(),
        mesh.n_vertices(),
        mesh.n_faces()
    );
    println!("{out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_opt_removes_flag_and_value() {
        let mut v: Vec<String> = ["--a", "1", "--b", "2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_opt(&mut v, "--b"), Some("2".into()));
        assert_eq!(v, vec!["--a".to_string(), "1".into()]);
        assert_eq!(take_opt(&mut v, "--missing"), None);
    }

    #[test]
    fn take_opt_rejects_flag_at_end() {
        let mut v: Vec<String> = vec!["--a".into()];
        assert_eq!(take_opt(&mut v, "--a"), None);
    }

    #[test]
    fn leftover_flags_rejected() {
        let v: Vec<String> = vec!["--bogus".into()];
        assert!(reject_leftovers(&v).is_err());
        assert!(reject_leftovers(&[]).is_ok());
    }

    #[test]
    fn pair_specs_parse_and_bound_check() {
        assert_eq!(parse_pair_spec("3 7", 10, "POI").unwrap(), (3, 7));
        assert_eq!(parse_pair_spec(" 0  9 ", 10, "POI").unwrap(), (0, 9));
        for (spec, needle) in [
            ("3", "bad pair"),
            ("1 2 3", "bad pair"),
            ("a 2", "bad POI 'a'"),
            ("3 10", "out of range (10 POIs)"),
        ] {
            let err = parse_pair_spec(spec, 10, "POI").unwrap_err();
            assert!(err.contains(needle), "error '{err}' should contain '{needle}'");
        }
    }

    #[test]
    fn pair_lines_parse_skip_comments_and_locate_errors() {
        let ok = parse_pair_lines("# header\n0 1\n\n  2 3 \n", "f", 10).unwrap();
        assert_eq!(ok, vec![(0, 1), (2, 3)]);
        assert_eq!(parse_pair_lines("", "f", 10).unwrap(), vec![]);
        for (text, needle) in [
            ("0 1\n2\n", "f:2: expected '<s> <t>'"),
            ("0 1 2\n", "f:1: expected '<s> <t>'"),
            ("0 x\n", "f:1: bad site 'x'"),
            ("-1 0\n", "f:1: bad site '-1'"),
            ("0 1\n3 10\n", "f:2: pair (3, 10) out of range"),
        ] {
            let err = parse_pair_lines(text, "f", 10).unwrap_err();
            assert!(err.contains(needle), "error '{err}' should contain '{needle}'");
        }
    }
}
