//! Command-line contract of the experiment binaries: every rejected
//! command line exits with status 2 and names the offending flag on
//! stderr, before any instance is evaluated. The binaries are spawned as
//! a user runs them (through the Cargo-provided paths), so these hold
//! whatever parser sits behind them.

use std::process::Command;

/// Runs `bin` with `args`, asserts exit status 2, and asserts that
/// stderr contains every one of `needles`.
fn rejects(bin: &str, args: &[&str], needles: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    for needle in needles {
        assert!(err.contains(needle), "{args:?}: {needle:?} not in {err}");
    }
}

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");

#[test]
fn sweep_rejects_bad_values() {
    rejects(SWEEP, &["--k", "0"], &["--k must be at least 1"]);
    rejects(
        SWEEP,
        &["--instances", "0"],
        &["--instances must be at least 1"],
    );
    rejects(
        SWEEP,
        &["--snapshot-every", "0"],
        &["--snapshot-every must be at least 1"],
    );
    rejects(SWEEP, &["--family", "xx"], &["family", "xx"]);
    rejects(SWEEP, &["--algo", "nope"], &["algorithm", "nope"]);
}

#[test]
fn sweep_rejects_bad_shards() {
    rejects(SWEEP, &["--shard", "2/2"], &["--shard 2/2"]);
    rejects(SWEEP, &["--shard", "1/x"], &["--shard count"]);
    rejects(
        SWEEP,
        &["--shard-out", "/nonexistent/s.jsonl"],
        &["--shard-out needs --shard"],
    );
    rejects(
        SWEEP,
        &["--shard", "0/5", "--instances", "3"],
        &["--shard", "3 instances cannot fill 5 shards"],
    );
}

/// `--snapshot-out BASE` writes `BASE.prom` and `BASE.jsonl`; an export
/// naming either file would overwrite a snapshot page.
#[test]
fn sweep_rejects_outputs_that_share_a_file() {
    rejects(
        SWEEP,
        &[
            "--snapshot-out",
            "/tmp/chunk",
            "--metrics-out",
            "/tmp/chunk.jsonl",
        ],
        &["--snapshot-out", "--metrics-out", "/tmp/chunk.jsonl"],
    );
    rejects(
        SWEEP,
        &["--trace-out", "/tmp/run.prom", "--snapshot-out", "/tmp/run"],
        &["--snapshot-out", "--trace-out", "/tmp/run.prom"],
    );
    rejects(
        SWEEP,
        &["--metrics-out", "m.jsonl", "--trace-out", "m.jsonl"],
        &["--metrics-out and --trace-out both write m.jsonl"],
    );
}

/// `--skewed` shrinks the first type's pool to a fifth (paper §V-E): the
/// panel says so in its title, and the ratios move against the same
/// sweep on the even machine.
#[test]
fn skewed_sweep_titles_its_panel_and_moves_the_ratios() {
    let sweep = |skewed: bool| {
        let mut cmd = Command::new(SWEEP);
        cmd.args(["--family", "ir", "--typing", "layered", "--size", "small"])
            .args(["--k", "3", "--instances", "4", "--seed", "5", "--stable"]);
        if skewed {
            cmd.arg("--skewed");
        }
        let out = cmd.output().expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let (skewed, even) = (sweep(true), sweep(false));
    let title = |page: &str| page.lines().next().unwrap_or("").to_string();
    assert!(
        title(&skewed).starts_with("== Small Layered IR (skewed) — "),
        "{}",
        title(&skewed)
    );
    assert!(!title(&even).contains("skewed"), "{}", title(&even));
    // The rows of the summary table: one per algorithm, ratios included.
    let rows = |page: &str| -> Vec<String> {
        page.lines()
            .skip(3)
            .take_while(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    };
    let (a, b) = (rows(&skewed), rows(&even));
    assert_eq!(a.len(), 6, "{skewed}");
    assert_eq!(b.len(), 6, "{even}");
    assert!(
        a.iter().zip(&b).all(|(x, y)| x != y),
        "skewed rows match the even machine's:\n{skewed}\n{even}"
    );
}

/// `--stable` reaches the snapshot pages: two runs write the same
/// `.prom` and `.jsonl` bytes, latency histograms on.
#[test]
fn stable_snapshot_pages_are_byte_identical_across_runs() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let page = |run: u32, ext: &str| dir.join(format!("fhs-cli-snap-{pid}-{run}.{ext}"));
    for run in 0..2 {
        let out = Command::new(SWEEP)
            .args(["--size", "small", "--k", "2", "--instances", "6"])
            .args(["--stable", "--instrument", "--snapshot-every", "2"])
            .arg("--snapshot-out")
            .arg(page(run, "out"))
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for ext in ["prom", "jsonl"] {
        let (a, b) = (page(0, ext), page(1, ext));
        let first = std::fs::read(&a).expect("first page");
        let second = std::fs::read(&b).expect("second page");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        assert!(!first.is_empty(), "empty .{ext} page");
        assert!(
            first == second,
            ".{ext} pages differ between two --stable runs"
        );
    }
}

#[test]
fn sweep_rejects_unknown_and_unfinished_flags() {
    rejects(SWEEP, &["--bogus"], &["unknown flag", "--bogus"]);
    rejects(SWEEP, &["--k", "3", "--seed"], &["--seed needs a value"]);
}

/// `--trace-cap` sizes a per-run event reservation, so a value past the
/// stated maximum is a command-line error, not an allocation attempt.
#[test]
fn sweep_rejects_a_trace_cap_past_the_maximum() {
    let trace = std::env::temp_dir().join(format!("fhs-cli-cap-{}.json", std::process::id()));
    rejects(
        SWEEP,
        &[
            "--size",
            "small",
            "--instances",
            "1",
            "--algo",
            "KGreedy",
            "--trace-out",
            trace.to_str().unwrap(),
            "--trace-cap",
            "18446744073709551615",
        ],
        &["--trace-cap"],
    );
    assert!(!trace.exists(), "a rejected command line wrote a trace");
}

#[test]
fn merge_shards_rejects_bad_command_lines() {
    rejects(SWEEP, &["merge-shards"], &["no fragment"]);
    rejects(
        SWEEP,
        &["merge-shards", "a.jsonl", "--out"],
        &["--out needs a value"],
    );
}

#[test]
fn figure_binaries_reject_bad_command_lines() {
    let fig4 = env!("CARGO_BIN_EXE_fig4");
    rejects(
        fig4,
        &["--instances", "0"],
        &["--instances must be at least 1"],
    );
    rejects(fig4, &["--bogus"], &["unknown flag", "--bogus"]);
    rejects(
        env!("CARGO_BIN_EXE_fig_stream"),
        &["--metrics-out"],
        &["--metrics-out needs a value"],
    );
}

#[test]
fn a_failed_output_write_exits_1_naming_the_path() {
    let out = Command::new(SWEEP)
        .args(["--size", "small", "--k", "2", "--instances", "1"])
        .args([
            "--algo",
            "KGreedy",
            "--metrics-out",
            "/nonexistent-dir/m.jsonl",
        ])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("failed to write /nonexistent-dir/m.jsonl"),
        "{err}"
    );
}

#[test]
fn a_failed_merge_write_exits_1_naming_the_path() {
    let frag = std::env::temp_dir().join(format!("fhs-cli-{}-s0.jsonl", std::process::id()));
    let shard = Command::new(SWEEP)
        .args(["--size", "small", "--k", "2", "--instances", "2"])
        .args(["--algo", "KGreedy", "--shard", "0/1", "--shard-out"])
        .arg(&frag)
        .output()
        .expect("spawn");
    assert!(
        shard.status.success(),
        "{}",
        String::from_utf8_lossy(&shard.stderr)
    );
    let out = Command::new(SWEEP)
        .args(["merge-shards", "--out", "/nonexistent-dir/m.jsonl"])
        .arg(&frag)
        .output()
        .expect("spawn");
    std::fs::remove_file(&frag).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("failed to write /nonexistent-dir/m.jsonl"),
        "{err}"
    );
}
