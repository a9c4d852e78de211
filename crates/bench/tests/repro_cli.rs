//! End-to-end tests of the `repro` binary's input validation and the
//! direction-ablation artifact — the harness half of the Matrix Market
//! hardening (every malformed input must exit 2 naming the file, never
//! panic mid-run).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn missing_mtx_exits_2_naming_the_file() {
    let out = repro()
        .args(["--quick", "--mtx", "/nonexistent/repro-test.mtx", "fig3"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/nonexistent/repro-test.mtx"), "{stderr}");
}

#[test]
fn malformed_mtx_variants_exit_2_naming_the_file() {
    let dir = temp_dir("badmm");
    // One representative per hardened parser case: garbage banner,
    // unsupported header, out-of-range 1-based index, truncated entry.
    for (tag, body) in [
        ("garbage", "this is not a matrix market file\n"),
        (
            "badsym",
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
        ),
        (
            "oob",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
        ),
        (
            "zeroidx",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
        ),
        (
            "novalue",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
        ),
    ] {
        let path = dir.join(format!("{tag}.mtx"));
        std::fs::write(&path, body).unwrap();
        let out = repro()
            .args(["--quick", "--mtx", path.to_str().unwrap(), "fig3"])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tag}: malformed input must exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{tag}.mtx")),
            "{tag}: stderr must name the file: {stderr}"
        );
    }
}

#[test]
fn rectangular_mtx_exits_2_naming_the_file() {
    let dir = temp_dir("rect");
    let path = dir.join("rect.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 3\n2 1\n",
    )
    .unwrap();
    let out = repro()
        .args(["--quick", "--mtx", path.to_str().unwrap(), "fig3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "non-square input must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rect.mtx"), "{stderr}");
    assert!(stderr.contains("square"), "{stderr}");
}

#[test]
fn crlf_mtx_input_is_accepted() {
    let dir = temp_dir("crlf");
    let path = dir.join("dos.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate pattern symmetric\r\n5 5 4\r\n2 1\r\n3 2\r\n4 3\r\n5 4\r\n",
    )
    .unwrap();
    let out = repro()
        .args([
            "--quick",
            "--out",
            dir.join("results").to_str().unwrap(),
            "--mtx",
            path.to_str().unwrap(),
            "direction",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The direction table (with the mtx row riding along) must land in the
    // results directory and the manifest.
    let direction = dir.join("results/direction.json");
    assert!(direction.exists(), "direction.json must be written");
    let summary = std::fs::read_to_string(dir.join("results/repro_summary.json")).unwrap();
    assert!(summary.contains("\"direction\""), "{summary}");
    let table = std::fs::read_to_string(direction).unwrap();
    assert!(
        table.contains("dos"),
        "mtx input missing from table: {table}"
    );
}

#[test]
fn unknown_experiment_exits_2() {
    let out = repro().args(["--quick", "frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment: frobnicate"),
        "{stderr}"
    );
}

#[test]
fn non_positive_scale_exits_2_with_usage() {
    let dir = temp_dir("scale");
    let out = repro()
        .args([
            "--quick",
            "--scale",
            "0",
            "--out",
            dir.join("results").to_str().unwrap(),
            "fig3",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}
