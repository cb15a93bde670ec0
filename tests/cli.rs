//! End-to-end tests of the `terrain-oracle` CLI binary: generate a mesh,
//! build an oracle image, inspect and query it — the full operator
//! workflow through real process invocations.

mod common;

use common::tmp_dir;
use std::process::{Command, Output};

/// Cargo-provided path to the compiled CLI, valid in any profile.
fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_terrain-oracle")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn CLI")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Every image the CLI writes is in the current format, `SEOR` version 3
/// or `SEAT` version 2 (older versions are read, never written); returns
/// the image's length.
fn assert_current_version(image: &std::path::Path, magic: &[u8; 4]) -> usize {
    let bytes = std::fs::read(image).unwrap();
    assert_eq!(&bytes[0..4], magic, "{} is the wrong image kind", image.display());
    let version: u32 = if magic == b"SEOR" { 3 } else { 2 };
    assert_eq!(
        bytes[4..8],
        version.to_le_bytes(),
        "{} is not format version {version}",
        image.display()
    );
    bytes.len()
}

#[test]
fn full_workflow_gen_build_info_query_knn() {
    let dir = tmp_dir("flow");
    let mesh = dir.join("t.off");
    let pois = dir.join("p.csv");
    let image = dir.join("o.seor");

    // gen
    let o =
        run(&["gen", "--preset", "sf-small", "--scale", "0.3", "--out", mesh.to_str().unwrap()]);
    assert!(o.status.success(), "gen failed: {}", stderr(&o));
    assert!(mesh.exists());

    // POIs inside the SF-small footprint (1400 × 1110 m).
    std::fs::write(
        &pois,
        "# landmark grid\n100,100\n700,300\n1200,900\n300,800\n900,600\n500,200\n",
    )
    .unwrap();

    // build
    let o = run(&[
        "build",
        "--mesh",
        mesh.to_str().unwrap(),
        "--pois",
        pois.to_str().unwrap(),
        "--eps",
        "0.15",
        "--out",
        image.to_str().unwrap(),
        "--engine",
        "exact",
    ]);
    assert!(o.status.success(), "build failed: {}", stderr(&o));
    assert_current_version(&image, b"SEOR");

    // info
    let o = run(&["info", "--oracle", image.to_str().unwrap()]);
    assert!(o.status.success(), "info failed: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("sites:   6"), "info output:\n{out}");
    assert!(out.contains("epsilon: 0.15"), "info output:\n{out}");

    // query
    let o = run(&["query", "--oracle", image.to_str().unwrap(), "--pairs", "0 1", "2 3"]);
    assert!(o.status.success(), "query failed: {}", stderr(&o));
    let out = stdout(&o);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in &lines {
        let d: f64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
        assert!(d > 0.0 && d < 3000.0, "implausible distance in '{line}'");
    }

    // knn
    let o = run(&["knn", "--oracle", image.to_str().unwrap(), "--site", "0", "--k", "3"]);
    assert!(o.status.success(), "knn failed: {}", stderr(&o));
    let out = stdout(&o);
    assert_eq!(out.lines().count(), 3, "knn output:\n{out}");
    // Ascending distances.
    let ds: Vec<f64> =
        out.lines().map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap()).collect();
    assert!(ds.windows(2).all(|w| w[0] <= w[1]), "knn not sorted: {ds:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn path_and_detour_workflow() {
    let dir = tmp_dir("pathflow");
    let mesh = dir.join("t.off");
    let pois = dir.join("p.csv");

    let o =
        run(&["gen", "--preset", "sf-small", "--scale", "0.3", "--out", mesh.to_str().unwrap()]);
    assert!(o.status.success(), "gen failed: {}", stderr(&o));
    std::fs::write(&pois, "100,100\n700,300\n1200,900\n300,800\n900,600\n500,200\n").unwrap();
    let (mesh, pois) = (mesh.to_str().unwrap(), pois.to_str().unwrap());

    // query-path: one line per pair, `<s> <t> <distance> <length> <points>`
    // with the EPS_PATH ceiling holding (exact engine default).
    let o = run(&[
        "query-path",
        "--mesh",
        mesh,
        "--pois",
        pois,
        "--eps",
        "0.15",
        "--pairs",
        "0 2",
        "1 4",
        "3 3",
    ]);
    assert!(o.status.success(), "query-path failed: {}", stderr(&o));
    let out = stdout(&o);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "query-path output:\n{out}");
    for line in &lines[..2] {
        let f: Vec<f64> = line.split_whitespace().map(|x| x.parse().unwrap()).collect();
        assert_eq!(f.len(), 5, "bad line '{line}'");
        let (d, len, pts) = (f[2], f[3], f[4]);
        assert!(d > 0.0 && len >= d / 1.15 - 1e-9 && len <= d * 1.5 + 1e-9, "'{line}'");
        assert!(pts >= 2.0, "'{line}'");
    }
    assert!(lines[2].ends_with(" 0 0 1"), "degenerate pair line: '{}'", lines[2]);

    // query-detour: every other POI fits inside a huge budget, sorted by
    // total detour length, with total = d(s,p) + d(p,t).
    let o = run(&[
        "query-detour",
        "--mesh",
        mesh,
        "--pois",
        pois,
        "--eps",
        "0.15",
        "--from",
        "0",
        "--to",
        "2",
        "--delta",
        "1e9",
    ]);
    assert!(o.status.success(), "query-detour failed: {}", stderr(&o));
    let out = stdout(&o);
    assert_eq!(out.lines().count(), 4, "query-detour output:\n{out}");
    let mut prev_total = 0.0;
    for line in out.lines() {
        let f: Vec<f64> = line.split_whitespace().map(|x| x.parse().unwrap()).collect();
        assert_eq!(f.len(), 4, "bad line '{line}'");
        assert!((f[1] + f[2] - f[3]).abs() <= 1e-9, "total mismatch in '{line}'");
        assert!(f[3] >= prev_total, "not sorted by total: '{line}'");
        prev_total = f[3];
    }

    // A zero budget keeps only POIs already on a shortest path — none, on
    // this spread-out fixture.
    let o = run(&[
        "query-detour",
        "--mesh",
        mesh,
        "--pois",
        pois,
        "--eps",
        "0.15",
        "--from",
        "0",
        "--to",
        "2",
        "--delta",
        "0",
    ]);
    assert!(o.status.success(), "zero-delta query-detour failed: {}", stderr(&o));
    assert!(stdout(&o).is_empty(), "zero budget admitted POIs:\n{}", stdout(&o));

    // Errors: negative budget, missing pairs, out-of-range ids.
    let o = run(&[
        "query-detour",
        "--mesh",
        mesh,
        "--pois",
        pois,
        "--eps",
        "0.15",
        "--from",
        "0",
        "--to",
        "2",
        "--delta",
        "-1",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("non-negative"), "{}", stderr(&o));

    let o = run(&["query-path", "--mesh", mesh, "--pois", pois, "--eps", "0.15"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--pairs"), "{}", stderr(&o));

    let o =
        run(&["query-path", "--mesh", mesh, "--pois", pois, "--eps", "0.15", "--pairs", "0 99"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("out of range"), "{}", stderr(&o));

    std::fs::remove_dir_all(std::path::Path::new(mesh).parent().unwrap()).ok();
}

#[test]
fn helpful_errors_and_usage() {
    // No args → usage on stdout, success.
    let o = run(&[]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("USAGE"));

    // Unknown command.
    let o = run(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));

    // Missing required option.
    let o = run(&["info"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--oracle"));

    // Nonexistent oracle file.
    let o = run(&["info", "--oracle", "/nonexistent/path.seor"]);
    assert!(!o.status.success());

    // Bad epsilon.
    let o = run(&["build", "--mesh", "x", "--pois", "y", "--eps", "nope", "--out", "z"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--eps"));

    // Unknown stray option.
    let o = run(&["info", "--oracle", "x", "--bogus", "1"]);
    assert!(!o.status.success());
}

#[test]
fn query_batch_happy_path_file_and_stdin() {
    let dir = tmp_dir("batch");
    let mesh = dir.join("t.off");
    let pois = dir.join("p.csv");
    let image = dir.join("o.seor");
    run(&["gen", "--preset", "sf-small", "--scale", "0.3", "--out", mesh.to_str().unwrap()]);
    std::fs::write(&pois, "100,100\n700,300\n1200,900\n300,800\n900,600\n500,200\n").unwrap();
    let o = run(&[
        "build",
        "--mesh",
        mesh.to_str().unwrap(),
        "--pois",
        pois.to_str().unwrap(),
        "--eps",
        "0.2",
        "--out",
        image.to_str().unwrap(),
        "--engine",
        "edge",
    ]);
    assert!(o.status.success(), "build failed: {}", stderr(&o));

    // From a pairs file, with comments, blank lines and repeated pairs.
    let pairs = dir.join("pairs.txt");
    std::fs::write(&pairs, "# batch workload\n0 1\n\n2 3\n4 5\n0 1\n1 0\n").unwrap();
    let o = run(&[
        "query-batch",
        "--oracle",
        image.to_str().unwrap(),
        "--pairs-file",
        pairs.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert!(o.status.success(), "query-batch failed: {}", stderr(&o));
    let out = stdout(&o);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "one output line per pair:\n{out}");
    let dist = |line: &str| -> f64 { line.split_whitespace().nth(2).unwrap().parse().unwrap() };
    for line in &lines {
        let d = dist(line);
        assert!(d > 0.0 && d < 3000.0, "implausible distance in '{line}'");
    }
    // Repeated pair and its swap answer identically.
    assert_eq!(lines[0], lines[3], "repeated pair must repeat its answer");
    assert_eq!(dist(lines[0]), dist(lines[4]), "distance is symmetric");

    // Same pairs over stdin must produce the same distances; batch answers
    // also agree with the single-pair `query` command.
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(bin())
        .args(["query-batch", "--oracle", image.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn CLI");
    child.stdin.take().unwrap().write_all(b"0 1\n2 3\n4 5\n0 1\n1 0\n").unwrap();
    let o = child.wait_with_output().unwrap();
    assert!(o.status.success(), "stdin query-batch failed: {}", stderr(&o));
    assert_eq!(stdout(&o), out, "stdin and --pairs-file must answer identically");

    let o = run(&["query", "--oracle", image.to_str().unwrap(), "--pairs", "2 3"]);
    assert!(o.status.success());
    assert_eq!(stdout(&o).trim(), lines[1], "batch must agree with single query");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_batch_malformed_and_empty_inputs() {
    let dir = tmp_dir("batch-err");
    let mesh = dir.join("t.off");
    let pois = dir.join("p.csv");
    let image = dir.join("o.seor");
    run(&["gen", "--preset", "sf-small", "--scale", "0.2", "--out", mesh.to_str().unwrap()]);
    std::fs::write(&pois, "100,100\n700,300\n").unwrap();
    let o = run(&[
        "build",
        "--mesh",
        mesh.to_str().unwrap(),
        "--pois",
        pois.to_str().unwrap(),
        "--eps",
        "0.2",
        "--out",
        image.to_str().unwrap(),
        "--engine",
        "edge",
    ]);
    assert!(o.status.success(), "build failed: {}", stderr(&o));
    let image = image.to_str().unwrap();

    // Malformed pair line: non-zero exit, error cites file and line.
    let pairs = dir.join("bad.txt");
    std::fs::write(&pairs, "0 1\nzero one\n").unwrap();
    let o = run(&["query-batch", "--oracle", image, "--pairs-file", pairs.to_str().unwrap()]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains(":2:") && err.contains("bad site"), "error not located: {err}");

    // Wrong token count is caught too.
    std::fs::write(&pairs, "0 1 2\n").unwrap();
    let o = run(&["query-batch", "--oracle", image, "--pairs-file", pairs.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("expected '<s> <t>'"), "{}", stderr(&o));

    // Out-of-range pair: actionable error naming the pair and the range.
    std::fs::write(&pairs, "0 99\n").unwrap();
    let o = run(&["query-batch", "--oracle", image, "--pairs-file", pairs.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("out of range"), "{}", stderr(&o));

    // Empty input (only comments/blanks): actionable error, non-zero exit.
    std::fs::write(&pairs, "# nothing here\n\n").unwrap();
    let o = run(&["query-batch", "--oracle", image, "--pairs-file", pairs.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("no query pairs"), "{}", stderr(&o));

    // Nonexistent pairs file.
    let o = run(&["query-batch", "--oracle", image, "--pairs-file", "/nonexistent/pairs.txt"]);
    assert!(!o.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_rejects_out_of_range_sites() {
    let dir = tmp_dir("range");
    let mesh = dir.join("t.off");
    let pois = dir.join("p.csv");
    let image = dir.join("o.seor");
    run(&["gen", "--preset", "sf-small", "--scale", "0.2", "--out", mesh.to_str().unwrap()]);
    std::fs::write(&pois, "100,100\n700,300\n").unwrap();
    let o = run(&[
        "build",
        "--mesh",
        mesh.to_str().unwrap(),
        "--pois",
        pois.to_str().unwrap(),
        "--eps",
        "0.2",
        "--out",
        image.to_str().unwrap(),
        "--engine",
        "edge",
    ]);
    assert!(o.status.success(), "build failed: {}", stderr(&o));
    let o = run(&["query", "--oracle", image.to_str().unwrap(), "--pairs", "0 99"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("out of range"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poi_csv_parse_errors_are_located() {
    let dir = tmp_dir("csv");
    let mesh = dir.join("t.off");
    run(&["gen", "--preset", "sf-small", "--scale", "0.2", "--out", mesh.to_str().unwrap()]);

    // Malformed line.
    let pois = dir.join("bad.csv");
    std::fs::write(&pois, "100,100\nnot-a-number,5\n").unwrap();
    let o = run(&[
        "build",
        "--mesh",
        mesh.to_str().unwrap(),
        "--pois",
        pois.to_str().unwrap(),
        "--eps",
        "0.2",
        "--out",
        dir.join("o.seor").to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains(":2:"), "error should cite line 2: {}", stderr(&o));

    // POI outside the footprint.
    let pois = dir.join("outside.csv");
    std::fs::write(&pois, "100,100\n-5000,-5000\n").unwrap();
    let o = run(&[
        "build",
        "--mesh",
        mesh.to_str().unwrap(),
        "--pois",
        pois.to_str().unwrap(),
        "--eps",
        "0.2",
        "--out",
        dir.join("o.seor").to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("outside"), "{}", stderr(&o));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atlas_workflow_build_query_and_errors() {
    let dir = tmp_dir("atlas");
    let mesh = dir.join("t.off");
    let pois = dir.join("p.csv");
    let seor = dir.join("o.seor");
    let seat = dir.join("a.seat");
    run(&["gen", "--preset", "sf-small", "--scale", "0.3", "--out", mesh.to_str().unwrap()]);
    // POIs spread across the 1400 × 1110 m footprint so the 2×2 atlas has
    // sites in every tile and genuine cross-tile pairs.
    std::fs::write(&pois, "100,100\n1200,150\n150,950\n1250,1000\n700,550\n400,300\n1000,800\n")
        .unwrap();

    // atlas-build with explicit grid flags.
    let atlas_build = |out: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "atlas-build",
            "--mesh",
            mesh.to_str().unwrap(),
            "--pois",
            pois.to_str().unwrap(),
            "--eps",
            "0.2",
            "--out",
            out.to_str().unwrap(),
            "--engine",
            "edge",
            "--grid",
            "2x2",
            "--overlap",
            "0.2",
            "--portal-spacing",
            "2",
        ];
        args.extend_from_slice(extra);
        run(&args)
    };
    let o = atlas_build(&seat, &[]);
    assert!(o.status.success(), "atlas-build failed: {}", stderr(&o));
    let seat_len = assert_current_version(&seat, b"SEAT");
    assert!(stderr(&o).contains("portals"), "stats line expected: {}", stderr(&o));

    // A monolithic image over the same inputs: the two CLIs must agree
    // within the documented routing bound.
    let build = |out: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            "build",
            "--mesh",
            mesh.to_str().unwrap(),
            "--pois",
            pois.to_str().unwrap(),
            "--eps",
            "0.2",
            "--out",
            out.to_str().unwrap(),
            "--engine",
            "edge",
        ];
        args.extend_from_slice(extra);
        run(&args)
    };
    let o = build(&seor, &[]);
    assert!(o.status.success(), "build failed: {}", stderr(&o));
    let seor_len = assert_current_version(&seor, b"SEOR");

    // --compress writes the quantized image, smaller than the raw one.
    let packed = dir.join("packed.seat");
    let o = atlas_build(&packed, &["--compress"]);
    assert!(o.status.success(), "atlas-build --compress failed: {}", stderr(&o));
    let packed_len = assert_current_version(&packed, b"SEAT");
    assert!(packed_len < seat_len, "compressed atlas {packed_len} B vs raw {seat_len} B");
    let packed = dir.join("packed.seor");
    let o = build(&packed, &["--compress"]);
    assert!(o.status.success(), "build --compress failed: {}", stderr(&o));
    let packed_len = assert_current_version(&packed, b"SEOR");
    assert!(packed_len < seor_len, "compressed oracle {packed_len} B vs raw {seor_len} B");

    let pairs = dir.join("pairs.txt");
    std::fs::write(
        &pairs,
        "# all off-diagonal pairs of the first four sites\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    )
    .unwrap();
    let o = run(&[
        "atlas-query",
        "--atlas",
        seat.to_str().unwrap(),
        "--pairs-file",
        pairs.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert!(o.status.success(), "atlas-query failed: {}", stderr(&o));
    let atlas_out = stdout(&o);
    assert_eq!(atlas_out.lines().count(), 6, "one line per pair:\n{atlas_out}");
    let o = run(&[
        "query-batch",
        "--oracle",
        seor.to_str().unwrap(),
        "--pairs-file",
        pairs.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "query-batch failed: {}", stderr(&o));
    for (al, ml) in atlas_out.lines().zip(stdout(&o).lines()) {
        let a: f64 = al.split_whitespace().nth(2).unwrap().parse().unwrap();
        let m: f64 = ml.split_whitespace().nth(2).unwrap().parse().unwrap();
        assert!(a > 0.0 && a <= m * 1.5 + 1e-9, "atlas {a} vs monolithic {m}");
        assert!(a >= m * 0.6 - 1e-9, "atlas {a} implausibly below monolithic {m}");
    }

    // Feeding the wrong image kind to either loader is caught cleanly.
    let o = run(&[
        "atlas-query",
        "--atlas",
        seor.to_str().unwrap(),
        "--pairs-file",
        pairs.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("bad magic"), "{}", stderr(&o));
    let o = run(&["info", "--oracle", seat.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("bad magic"), "{}", stderr(&o));

    // Malformed grid / out-of-range pairs.
    let o = run(&[
        "atlas-build",
        "--mesh",
        mesh.to_str().unwrap(),
        "--pois",
        pois.to_str().unwrap(),
        "--eps",
        "0.2",
        "--out",
        seat.to_str().unwrap(),
        "--grid",
        "two-by-two",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--grid"), "{}", stderr(&o));
    std::fs::write(&pairs, "0 99\n").unwrap();
    let o = run(&[
        "atlas-query",
        "--atlas",
        seat.to_str().unwrap(),
        "--pairs-file",
        pairs.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("out of range"), "{}", stderr(&o));

    std::fs::remove_dir_all(&dir).ok();
}
