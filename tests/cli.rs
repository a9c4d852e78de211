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
    for strategy in ["george-liu", "bi-criteria", "min-degree", "fixed:0"] {
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
    for strategy in ["bi-criteria", "min-degree"] {
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
    let out = rcm_order()
        .args([
            "suite:nd24k",
            "--scale",
            "0.005",
            "--method",
            "sloan",
            "--start-node",
            "bi-criteria",
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
