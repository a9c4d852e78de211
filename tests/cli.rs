//! End-to-end tests of the `rcm-order` command-line binary.

use std::process::Command;

fn rcm_order() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rcm-order"))
}

#[test]
fn orders_a_suite_matrix_and_writes_outputs() {
    let dir = std::env::temp_dir().join("rcm-order-test");
    std::fs::create_dir_all(&dir).unwrap();
    let perm_path = dir.join("perm.txt");
    let mtx_path = dir.join("reordered.mtx");
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--write-perm",
            perm_path.to_str().unwrap(),
            "--write-matrix",
            mtx_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bandwidth:"), "{stdout}");

    // The permutation file is a bijection.
    let text = std::fs::read_to_string(&perm_path).unwrap();
    let labels: Vec<usize> = text.lines().map(|l| l.parse().unwrap()).collect();
    let n = labels.len();
    let mut seen = vec![false; n];
    for &l in &labels {
        assert!(l < n && !seen[l]);
        seen[l] = true;
    }

    // The reordered matrix reads back with the same size.
    let m = distributed_rcm::sparse::mm::read_pattern_file(&mtx_path).unwrap();
    assert_eq!(m.n_rows(), n);
}

#[test]
fn write_matrix_is_the_mirrored_permuted_input_and_the_printed_metrics_match_it() {
    use distributed_rcm::sparse::{bandwidth, envelope_size, matrix_bandwidth, mm, CooBuilder};

    // A `coordinate pattern symmetric` file storing the lower triangle, in
    // no particular order, 1-based: diagonal entries on 2, 5 and 11, and
    // vertex 7 isolated.
    let n = 12;
    let lower: [(u32, u32); 17] = [
        (4, 1),
        (9, 1),
        (2, 2),
        (9, 4),
        (12, 4),
        (6, 2),
        (10, 2),
        (5, 5),
        (10, 6),
        (8, 3),
        (11, 3),
        (11, 11),
        (11, 8),
        (12, 9),
        (10, 5),
        (5, 3),
        (12, 10),
    ];
    let diagonal = lower.iter().filter(|(r, c)| r == c).count();
    let mirrored_nnz = 2 * lower.len() - diagonal;
    let mut text = format!(
        "%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {}\n",
        lower.len()
    );
    for (r, c) in lower {
        text.push_str(&format!("{r} {c}\n"));
    }
    let dir = std::env::temp_dir().join("rcm-order-test-write-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let (input, perm_path, mtx_path) = (
        dir.join("input.mtx"),
        dir.join("perm.txt"),
        dir.join("reordered.mtx"),
    );
    std::fs::write(&input, text).unwrap();
    let out = rcm_order()
        .arg(&input)
        .arg("--write-perm")
        .arg(&perm_path)
        .arg("--write-matrix")
        .arg(&mtx_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The input and PAPᵀ, both built by CooBuilder from the stored entries.
    let labels: Vec<u32> = std::fs::read_to_string(&perm_path)
        .unwrap()
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    let perm = distributed_rcm::sparse::Permutation::from_new_of_old(labels).unwrap();
    let (mut a, mut pap) = (CooBuilder::new(n, n), CooBuilder::new(n, n));
    for (r, c) in lower {
        a.push_sym(r - 1, c - 1);
        pap.push_sym(perm.new_of(r - 1), perm.new_of(c - 1));
    }
    let (a, pap) = (a.build(), pap.build());

    // Banner, size line with both triangles, and the entries of PAPᵀ.
    let written = std::fs::read_to_string(&mtx_path).unwrap();
    let mut lines = written.lines();
    assert_eq!(
        lines.next(),
        Some("%%MatrixMarket matrix coordinate pattern general")
    );
    let size = format!("{n} {n} {mirrored_nnz}");
    assert_eq!(
        lines.find(|l| !l.starts_with('%')),
        Some(size.as_str()),
        "{written}"
    );
    assert_eq!(mm::read_pattern_file(&mtx_path).unwrap(), pap);

    // The printed metrics are those of that matrix.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (maxw, rmsw) = bandwidth::wavefront(&pap);
    for line in [
        format!(
            "  bandwidth: {} -> {}",
            matrix_bandwidth(&a),
            matrix_bandwidth(&pap)
        ),
        format!(
            "  profile:   {} -> {}",
            envelope_size(&a),
            envelope_size(&pap)
        ),
        format!("  wavefront: max {maxw}, rms {rmsw:.1}"),
    ] {
        assert!(stdout.lines().any(|l| l == line), "{line:?} in {stdout}");
    }
}

#[test]
fn sloan_method_and_simulation_run() {
    let out = rcm_order()
        .args([
            "suite:thermal2",
            "--scale",
            "0.002",
            "--method",
            "sloan",
            "--simulate",
            "1,16",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sloan ordering computed"));
    assert!(stdout.contains("simulated distributed RCM"));
}

#[test]
fn unknown_matrix_fails_cleanly() {
    let out = rcm_order().args(["suite:doesnotexist"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn backend_flag_selects_each_runtime() {
    // Every backend computes the bit-identical ordering, so the reported
    // bandwidth must not depend on the choice.
    let mut bandwidth_lines: Vec<String> = Vec::new();
    for backend in ["serial", "pooled", "dist", "hybrid"] {
        let out = rcm_order()
            .args(["suite:nd24k", "--scale", "0.005", "--backend", backend])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--backend {backend} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("on the {backend} backend")),
            "--backend {backend} not reported: {stdout}"
        );
        bandwidth_lines.extend(
            stdout
                .lines()
                .filter(|l| l.contains("bandwidth:"))
                .map(str::to_string),
        );
    }
    assert_eq!(bandwidth_lines.len(), 4);
    assert!(
        bandwidth_lines.iter().all(|l| l == &bandwidth_lines[0]),
        "backends disagreed: {bandwidth_lines:?}"
    );
}

#[test]
fn unknown_backend_exits_2_naming_the_valid_set() {
    let out = rcm_order()
        .args(["suite:nd24k", "--scale", "0.005", "--backend", "gpu"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gpu"), "{stderr}");
    assert!(stderr.contains("serial|pooled|dist|hybrid"), "{stderr}");
}

#[test]
fn backend_flag_rejects_non_rcm_methods() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--method",
            "sloan",
            "--backend",
            "pooled",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--backend applies only to --method rcm"),
        "{stderr}"
    );
}

#[test]
fn multiple_inputs_order_through_one_warm_engine() {
    let dir = std::env::temp_dir().join("rcm-order-test-multi");
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("a.mtx");
    let path_b = dir.join("b.mtx");
    std::fs::write(
        &path_a,
        "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 4\n2 1\n3 2\n4 3\n5 4\n",
    )
    .unwrap();
    std::fs::write(
        &path_b,
        "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n2 1\n3 2\n4 3\n",
    )
    .unwrap();
    let out = rcm_order()
        .args([path_a.to_str().unwrap(), path_b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 rows"), "{stdout}");
    assert!(stdout.contains("4 rows"), "{stdout}");
    assert_eq!(
        stdout.matches("bandwidth:").count(),
        2,
        "one report per input: {stdout}"
    );
    assert_eq!(stdout.matches("warm engine").count(), 2, "{stdout}");
}

#[test]
fn cache_flag_reports_per_file_hit_miss_and_totals() {
    let dir = std::env::temp_dir().join("rcm-order-test-cache");
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("a.mtx");
    let path_b = dir.join("b.mtx");
    let pattern = "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 4\n2 1\n3 2\n4 3\n5 4\n";
    std::fs::write(&path_a, pattern).unwrap();
    // Same pattern under a different file name: the second ordering must be
    // served from the cache.
    std::fs::write(&path_b, pattern).unwrap();
    let out = rcm_order()
        .args([
            path_a.to_str().unwrap(),
            path_b.to_str().unwrap(),
            path_a.to_str().unwrap(),
            "--cache",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("cache miss").count(), 1, "{stdout}");
    assert_eq!(stdout.matches("cache hit").count(), 2, "{stdout}");
    assert!(
        stdout.contains("cache: 2 hits, 1 misses"),
        "multi-input runs must print cache totals: {stdout}"
    );
    // All three reports describe the bit-identical ordering.
    let bandwidth_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("bandwidth:"))
        .collect();
    assert_eq!(bandwidth_lines.len(), 3);
    assert!(bandwidth_lines.iter().all(|l| l == &bandwidth_lines[0]));
}

#[test]
fn cache_flag_without_repeats_reports_only_misses() {
    let out = rcm_order()
        .args(["suite:nd24k", "--scale", "0.005", "--cache"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache miss"), "{stdout}");
    // Single input: no totals line.
    assert!(!stdout.contains("cache:"), "{stdout}");
}

#[test]
fn cache_flag_rejects_non_rcm_methods() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--method",
            "sloan",
            "--cache",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--cache applies only to --method rcm"),
        "{stderr}"
    );
}

#[test]
fn cache_flag_with_bad_input_still_exits_2_naming_it() {
    let dir = std::env::temp_dir().join("rcm-order-test-cachebad");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("fine.mtx");
    std::fs::write(
        &good,
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
    )
    .unwrap();
    let bad = dir.join("corrupt.mtx");
    std::fs::write(&bad, "still not a matrix\n").unwrap();
    let out = rcm_order()
        .args([good.to_str().unwrap(), bad.to_str().unwrap(), "--cache"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt.mtx"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("bandwidth:"), "{stdout}");
}

#[test]
fn first_bad_input_of_many_exits_2_naming_it() {
    let dir = std::env::temp_dir().join("rcm-order-test-multibad");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.mtx");
    std::fs::write(
        &good,
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
    )
    .unwrap();
    let bad = dir.join("broken.mtx");
    std::fs::write(&bad, "not a matrix\n").unwrap();
    // The bad file comes second; nothing should be ordered and the exit
    // code must still be 2, naming the broken file.
    let out = rcm_order()
        .args([good.to_str().unwrap(), bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.mtx"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("bandwidth:"),
        "no input may be ordered when one is bad: {stdout}"
    );
}

#[test]
fn threads_flag_drives_the_pooled_backend() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--backend",
            "pooled",
            "--threads",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("on the pooled backend"), "{stdout}");
}

#[test]
fn compress_flag_reports_compression_stats() {
    let dir = std::env::temp_dir().join("rcm-order-test-compress");
    std::fs::create_dir_all(&dir).unwrap();
    let perm_path = dir.join("perm.txt");
    // ldoor's stand-in is a 2-dof FEM shape: it must actually compress.
    let out = rcm_order()
        .args([
            "suite:ldoor",
            "--scale",
            "0.002",
            "--compress",
            "--write-perm",
            perm_path.to_str().unwrap(),
        ])
        .env_remove("RCM_START_NODE")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compression:"), "{stdout}");
    assert!(stdout.contains("supervariables"), "{stdout}");
    // The expanded permutation is still a bijection.
    let text = std::fs::read_to_string(&perm_path).unwrap();
    let labels: Vec<usize> = text.lines().map(|l| l.parse().unwrap()).collect();
    let mut seen = vec![false; labels.len()];
    for &l in &labels {
        assert!(l < labels.len() && !seen[l]);
        seen[l] = true;
    }
}

#[test]
fn compress_flag_rejects_backend_selection() {
    // The compression path orders the quotient sequentially; silently
    // accepting --backend would misreport what ran.
    let out = rcm_order()
        .args([
            "suite:ldoor",
            "--scale",
            "0.002",
            "--compress",
            "--backend",
            "pooled",
        ])
        .env_remove("RCM_START_NODE")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--compress does not compose with --backend"),
        "{stderr}"
    );
}

#[test]
fn compress_flag_rejects_start_node_selection() {
    // The compression path orders the quotient with George-Liu; silently
    // accepting --start-node would write a George-Liu permutation.
    for strategy in ["min-degree", "fixed:3", "george-liu"] {
        let out = rcm_order()
            .args([
                "suite:nd24k",
                "--scale",
                "0.005",
                "--compress",
                "--start-node",
                strategy,
            ])
            .env_remove("RCM_START_NODE")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{strategy}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--compress does not compose with --start-node"),
            "{strategy}: {stderr}"
        );
    }
}

#[test]
fn compress_flag_rejects_the_start_node_environment_variable() {
    // Like --start-node, a recognized RCM_START_NODE would be ignored and
    // a George-Liu permutation written; an unrecognized value is rejected
    // before --compress is considered.
    for strategy in ["min-degree", "fixed:3", "george-liu"] {
        let out = rcm_order()
            .args(["suite:nd24k", "--scale", "0.005", "--compress"])
            .env("RCM_START_NODE", strategy)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{strategy}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--compress does not compose with the RCM_START_NODE"),
            "{strategy}: {stderr}"
        );
    }
    let out = rcm_order()
        .args(["suite:nd24k", "--scale", "0.005", "--compress"])
        .env("RCM_START_NODE", "no-such-strategy")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no-such-strategy in the RCM_START_NODE environment variable"),
        "{stderr}"
    );
}

#[test]
fn unrecognized_start_node_environment_variable_exits_2_naming_it() {
    // A set RCM_START_NODE is the strategy when --start-node is absent: a
    // value naming no strategy (a deleted one included) must not fall back
    // to George-Liu without a word.
    for spec in ["bi-criteria", "centroid"] {
        let out = rcm_order()
            .args(["suite:nd24k", "--scale", "0.005"])
            .env("RCM_START_NODE", spec)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{spec}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "unknown start-node strategy {spec} in the RCM_START_NODE environment variable"
            )),
            "{spec}: {stderr}"
        );
    }
    // --start-node overrides the variable, and a recognized value is the
    // strategy the summary names.
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--start-node",
            "george-liu",
        ])
        .env("RCM_START_NODE", "centroid")
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = rcm_order()
        .args(["suite:nd24k", "--scale", "0.005"])
        .env("RCM_START_NODE", "min-degree")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("min-degree strategy, 0 sweep(s)"),
        "{stdout}"
    );
}

#[test]
fn compress_flag_rejects_non_rcm_methods() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--method",
            "sloan",
            "--compress",
        ])
        .env_remove("RCM_START_NODE")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--compress applies only to --method rcm"),
        "{stderr}"
    );
}

#[test]
fn write_perm_rejects_multiple_inputs() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "suite:ldoor",
            "--scale",
            "0.005",
            "--write-perm",
            "/tmp/never-written.txt",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("single input"), "{stderr}");
}

#[test]
fn bad_flags_exit_with_usage() {
    let out = rcm_order().args(["--bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// Run `rcm-order` on a small suite matrix with `args` appended and
/// assert a usage error: exit 2 with the usage message, no panic.
fn assert_usage_error(args: &[&str]) {
    let out = rcm_order()
        .args(["suite:nd24k", "--scale", "0.005"])
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage"), "{args:?}: {stderr}");
}

#[test]
fn zero_simulate_cores_exit_2_with_usage() {
    assert_usage_error(&["--simulate", "0"]);
    assert_usage_error(&["--simulate", "4,0"]);
}

#[test]
fn non_positive_or_non_finite_scale_exits_2_with_usage() {
    for scale in ["0", "-0", "-1", "-0.5", "nan", "inf", "-inf", "x"] {
        assert_usage_error(&["--scale", scale]);
    }
}

#[test]
fn zero_threads_exit_2_with_usage() {
    assert_usage_error(&["--threads", "0", "--simulate", "4"]);
    assert_usage_error(&["--backend", "pooled", "--threads", "0"]);
}

#[test]
fn missing_mtx_file_exits_2_naming_the_file() {
    let out = rcm_order()
        .args(["/nonexistent/input.mtx"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/nonexistent/input.mtx"), "{stderr}");
}

/// Run `rcm-order` on a small suite matrix with `flag` pointing into a
/// directory that does not exist: exit 2 naming the path, no panic.
fn assert_unwritable_output_exits_2(flag: &str) {
    let path = std::env::temp_dir()
        .join("rcm-order-test-missing-dir")
        .join("out.txt");
    let path = path.to_str().unwrap();
    let out = rcm_order()
        .args(["suite:nd24k", "--scale", "0.005", flag, path])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
    assert!(stderr.contains(path), "{flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
}

#[test]
fn unwritable_write_perm_path_exits_2_naming_it() {
    assert_unwritable_output_exits_2("--write-perm");
}

#[test]
fn unwritable_write_matrix_path_exits_2_naming_it() {
    assert_unwritable_output_exits_2("--write-matrix");
}

#[test]
fn malformed_mtx_file_exits_2_naming_the_file() {
    let dir = std::env::temp_dir().join("rcm-order-test-badmm");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("garbage.mtx");
    std::fs::write(&input, "this is not a matrix market file\n").unwrap();
    let out = rcm_order().arg(input.to_str().unwrap()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "malformed input must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("garbage.mtx"), "{stderr}");
}

#[test]
fn hostile_nnz_header_exits_2_naming_the_file() {
    // A three-line file declaring 10^12 entries: the reader must not size
    // a buffer from the header (which aborted the process), and the CLI
    // reports a parse error naming the file.
    let dir = std::env::temp_dir().join("rcm-order-test-hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("hostile-nnz.mtx");
    std::fs::write(
        &input,
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000000\n1 1\n",
    )
    .unwrap();
    let out = rcm_order().arg(input.to_str().unwrap()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "hostile header must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("hostile-nnz.mtx"), "{stderr}");
}

#[test]
fn rectangular_mtx_file_exits_2_naming_the_file() {
    let dir = std::env::temp_dir().join("rcm-order-test-rect");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("rect.mtx");
    std::fs::write(
        &input,
        "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 3\n2 1\n",
    )
    .unwrap();
    let out = rcm_order().arg(input.to_str().unwrap()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "non-square input must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rect.mtx"), "{stderr}");
    assert!(stderr.contains("square"), "{stderr}");
}

#[test]
fn unsymmetric_input_is_symmetrized_with_a_note() {
    let dir = std::env::temp_dir().join("rcm-order-test-unsym");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("one-sided.mtx");
    // A 5-vertex path stored as its lower triangle in a `general` file.
    std::fs::write(
        &input,
        "%%MatrixMarket matrix coordinate pattern general\n5 5 4\n2 1\n3 2\n4 3\n5 4\n",
    )
    .unwrap();
    let out = rcm_order().arg(input.to_str().unwrap()).output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("symmetrizing"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 rows, 8 nnz"), "{stdout}");
    assert!(stdout.contains("bandwidth: 1 -> 1"), "{stdout}");
}

#[test]
fn a_piped_matrix_market_stream_orders_like_the_file() {
    use std::io::Write;
    use std::process::Stdio;

    // A symmetric pattern with scattered long edges, its lower triangle
    // column-major, large enough that the file path reads it in parallel
    // ranges while the pipe streams it.
    let n = 30_000u64;
    let mut body = String::new();
    let mut nnz = 0;
    for c in 1..=n {
        let mut rows = vec![c, c + 1, c + 97, c + (c * 7919) % 1_000];
        rows.sort_unstable();
        rows.dedup();
        for r in rows.into_iter().filter(|&r| r <= n) {
            body.push_str(&format!("{r} {c}\n"));
            nnz += 1;
        }
    }
    let text = format!("%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {nnz}\n{body}");
    assert!(text.len() > 512 << 10, "{} bytes", text.len());
    let dir = std::env::temp_dir().join("rcm-order-test-pipe");
    std::fs::create_dir_all(&dir).unwrap();
    let (input, from_file, from_pipe) = (
        dir.join("input.mtx"),
        dir.join("perm-file.txt"),
        dir.join("perm-pipe.txt"),
    );
    std::fs::write(&input, &text).unwrap();

    let out = rcm_order()
        .arg(&input)
        .arg("--write-perm")
        .arg(&from_file)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = rcm_order()
        .arg("/dev/stdin")
        .arg("--write-perm")
        .arg(&from_pipe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let feeder = std::thread::spawn(move || stdin.write_all(text.as_bytes()));
    let out = child.wait_with_output().unwrap();
    feeder.join().unwrap().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&from_pipe).unwrap(),
        std::fs::read_to_string(&from_file).unwrap()
    );
}

#[test]
fn reads_matrix_market_files() {
    let dir = std::env::temp_dir().join("rcm-order-test-mm");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("input.mtx");
    std::fs::write(
        &input,
        "%%MatrixMarket matrix coordinate pattern symmetric\n5 5 4\n2 1\n3 2\n4 3\n5 4\n",
    )
    .unwrap();
    let out = rcm_order().arg(input.to_str().unwrap()).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("5 rows"), "{stdout}");
}

#[test]
fn split_components_flag_matches_the_plain_run_and_reports_components() {
    // Two disjoint 4-vertex paths, interleaved ids: {1,3,5,7} and {2,4,6,8}
    // in 1-based Matrix Market numbering.
    let dir = std::env::temp_dir().join("rcm-order-test-split");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("two-paths.mtx");
    std::fs::write(
        &input,
        "%%MatrixMarket matrix coordinate pattern symmetric\n\
         8 8 6\n3 1\n5 3\n7 5\n4 2\n6 4\n8 6\n",
    )
    .unwrap();
    let perm_plain = dir.join("plain.txt");
    let perm_split = dir.join("split.txt");
    let plain = rcm_order()
        .args([
            input.to_str().unwrap(),
            "--write-perm",
            perm_plain.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        plain.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&plain.stderr)
    );
    let split = rcm_order()
        .args([
            input.to_str().unwrap(),
            "--split-components",
            "--write-perm",
            perm_split.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        split.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&split.stderr)
    );
    let stdout = String::from_utf8_lossy(&split.stdout);
    assert!(
        stdout.contains("components: 2 (scheduled as independent jobs)"),
        "{stdout}"
    );
    // The split ordering is bit-identical to the whole-matrix driver.
    assert_eq!(
        std::fs::read_to_string(&perm_plain).unwrap(),
        std::fs::read_to_string(&perm_split).unwrap()
    );
}

#[test]
fn split_components_flag_composes_with_every_backend() {
    for backend in ["serial", "pooled", "dist", "hybrid"] {
        let out = rcm_order()
            .args([
                "suite:nd24k",
                "--scale",
                "0.005",
                "--split-components",
                "--backend",
                backend,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "backend {backend} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("components:"), "{backend}: {stdout}");
    }
}

#[test]
fn split_components_flag_rejects_non_rcm_methods() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--method",
            "sloan",
            "--split-components",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--split-components applies only to --method rcm"),
        "{stderr}"
    );
}

#[test]
fn split_components_flag_rejects_compress() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--compress",
            "--split-components",
        ])
        .env_remove("RCM_START_NODE")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--split-components does not compose with --compress"),
        "{stderr}"
    );
}

#[test]
fn start_node_flag_reports_the_peripheral_phase() {
    for strategy in ["george-liu", "min-degree", "fixed:0"] {
        let out = rcm_order()
            .args(["suite:nd24k", "--scale", "0.005", "--start-node", strategy])
            .output()
            .unwrap();
        assert!(out.status.success(), "{strategy} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("peripheral:"),
            "{strategy}: missing peripheral summary line\n{stdout}"
        );
        let expected = strategy.split(':').next().unwrap();
        assert!(
            stdout.contains(&format!("{expected} strategy")),
            "{strategy}: summary does not name the strategy\n{stdout}"
        );
        if strategy == "min-degree" || strategy == "fixed:0" {
            assert!(
                stdout.contains("0 sweep(s)"),
                "{strategy}: zero-sweep strategy reported sweeps\n{stdout}"
            );
        }
    }
}

#[test]
fn start_node_strategies_produce_identical_or_valid_orderings_per_backend() {
    // Per-strategy determinism end to end: the same strategy on every
    // backend must write the identical permutation.
    let dir = std::env::temp_dir().join("rcm-order-test-startnode");
    std::fs::create_dir_all(&dir).unwrap();
    for strategy in ["min-degree"] {
        let mut perms = Vec::new();
        for backend in ["serial", "pooled", "dist", "hybrid"] {
            let perm_path = dir.join(format!("{strategy}-{backend}.txt"));
            let out = rcm_order()
                .args([
                    "suite:nd24k",
                    "--scale",
                    "0.005",
                    "--start-node",
                    strategy,
                    "--backend",
                    backend,
                    "--write-perm",
                    perm_path.to_str().unwrap(),
                ])
                .output()
                .unwrap();
            assert!(out.status.success(), "{strategy} on {backend} failed");
            perms.push(std::fs::read_to_string(&perm_path).unwrap());
        }
        assert!(
            perms.windows(2).all(|w| w[0] == w[1]),
            "{strategy}: backends disagree"
        );
    }
}

#[test]
fn start_node_flag_rejects_bad_specs_and_non_rcm_methods() {
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--start-node",
            "centroid",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown start-node strategy centroid"),
        "{stderr}"
    );
    // A deleted strategy's name is an unknown spec like any other.
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--start-node",
            "bi-criteria",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown start-node strategy bi-criteria"),
        "{stderr}"
    );
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--method",
            "sloan",
            "--start-node",
            "min-degree",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--start-node applies only to --method rcm"),
        "{stderr}"
    );
}
