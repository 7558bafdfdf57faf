//! End-to-end tests of the `fhs` command-line tool (spawned as a real
//! process via the Cargo-provided binary path).

use std::process::{Command, Stdio};

fn fhs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fhs"))
}

fn write_job(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("fhs-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("write temp job");
    path
}

const CHAIN: &str = "kdag 2\ntask 0 2\ntask 1 3\nedge 0 1\n";

#[test]
fn example_prints_a_parseable_job() {
    let out = fhs().arg("example").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.starts_with("kdag 3"));
    // and it round-trips through the parser
    let job = fhs::kdag::text::from_text(&text).expect("valid");
    assert_eq!(job.num_tasks(), 14);
}

#[test]
fn schedule_reports_makespan_and_ratio() {
    let path = write_job("sched", CHAIN);
    let out = fhs()
        .args([
            "schedule",
            "--job",
            path.to_str().unwrap(),
            "--machine",
            "1,1",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan 5"), "{text}");
    assert!(text.contains("ratio 1.000"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn schedule_with_gantt_and_timeline() {
    let path = write_job("gantt", CHAIN);
    let out = fhs()
        .args([
            "schedule",
            "--job",
            path.to_str().unwrap(),
            "--machine",
            "1,1",
            "--gantt",
            "--timeline",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("type0 p0"), "{text}");
    assert!(text.contains("interleaving index"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn compare_lists_all_six_algorithms() {
    let path = write_job("cmp", CHAIN);
    let out = fhs()
        .args(["compare", "--job", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["KGreedy", "LSpan", "DType", "MaxDP", "ShiftBT", "MQB"] {
        assert!(text.contains(name), "missing {name} in {text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn profile_shows_structure() {
    let path = write_job("prof", CHAIN);
    let out = fhs()
        .args(["profile", "--job", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 tasks"), "{text}");
    assert!(text.contains("work per type: [2, 3]"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn reads_job_from_stdin() {
    use std::io::Write as _;
    let mut child = fhs()
        .args(["schedule", "--job", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(CHAIN.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("makespan 5"));
}

#[test]
fn bad_inputs_exit_nonzero_with_diagnostics() {
    // unknown command
    let out = fhs().arg("wibble").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // malformed job
    let path = write_job("bad", "kdag 1\ntask 9 1\n");
    let out = fhs()
        .args(["schedule", "--job", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid graph"));
    std::fs::remove_file(path).ok();

    // total work past u64::MAX (would wrap T1 and break the timeline/gantt)
    let path = write_job(
        "overflow",
        "kdag 1\ntask 0 18446744073709551615\ntask 0 5\nedge 0 1\n",
    );
    for extra in [&[][..], &["--timeline"], &["--gantt"]] {
        let out = fhs()
            .args(["schedule", "--job", path.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid graph"), "{err}");
        assert!(err.contains("overflows"), "{err}");
    }
    std::fs::remove_file(path).ok();

    // machine/K mismatch
    let path = write_job("mism", CHAIN);
    let out = fhs()
        .args([
            "schedule",
            "--job",
            path.to_str().unwrap(),
            "--machine",
            "1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("K=2"));
    std::fs::remove_file(path).ok();

    // a pool wider than the engine's u32 processor ids
    let path = write_job("wide", CHAIN);
    let out = fhs()
        .args([
            "schedule",
            "--job",
            path.to_str().unwrap(),
            "--machine",
            "4294967296,1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("4294967295"));
    std::fs::remove_file(path).ok();

    // unknown algorithm
    let path = write_job("alg", CHAIN);
    let out = fhs()
        .args([
            "schedule",
            "--job",
            path.to_str().unwrap(),
            "--algo",
            "Oracle",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
    std::fs::remove_file(path).ok();

    // zero quantum (would never advance the preemptive clock)
    let path = write_job("q0", CHAIN);
    for cmd in ["schedule", "compare"] {
        let out = fhs()
            .args([
                cmd,
                "--job",
                path.to_str().unwrap(),
                "--preemptive",
                "--quantum",
                "0",
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--quantum must be at least 1"));
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_command_lines_exit_2_naming_the_flag() {
    for (args, needle) in [
        (&[][..], "usage: fhs"),
        (&["schedule", "--bogus"], "unknown flag"),
        (&["schedule", "--bogus"], "--bogus"),
        (&["schedule", "--job"], "--job needs a value"),
    ] {
        let out = fhs().args(args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {needle:?} not in {err}");
    }
}

#[test]
fn dot_export_via_cli() {
    let path = write_job("dot", CHAIN);
    let out = fhs()
        .args(["schedule", "--job", path.to_str().unwrap(), "--dot"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("digraph job"));
    assert!(text.contains("t0 -> t1"));
    std::fs::remove_file(path).ok();
}

#[test]
fn svg_export_writes_a_file() {
    let job = write_job("svg", CHAIN);
    let svg_path = std::env::temp_dir().join(format!("fhs-cli-{}-out.svg", std::process::id()));
    let out = fhs()
        .args([
            "schedule",
            "--job",
            job.to_str().unwrap(),
            "--machine",
            "1,1",
            "--svg",
            svg_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("type1 p0"));
    std::fs::remove_file(job).ok();
    std::fs::remove_file(svg_path).ok();
}

#[test]
fn trace_csv_export_writes_segments() {
    let job = write_job("tcsv", CHAIN);
    let csv_path = std::env::temp_dir().join(format!("fhs-cli-{}-trace.csv", std::process::id()));
    let out = fhs()
        .args([
            "schedule",
            "--job",
            job.to_str().unwrap(),
            "--trace-csv",
            csv_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    assert_eq!(csv.lines().next().unwrap(), "task,rtype,proc,start,end");
    assert_eq!(csv.lines().count(), 3); // header + 2 tasks
    assert!(csv.contains("0,0,0,0,2"));
    assert!(csv.contains("1,1,0,2,5"));
    std::fs::remove_file(job).ok();
    std::fs::remove_file(csv_path).ok();
}

#[test]
fn failed_export_writes_exit_1_naming_the_path() {
    let job = write_job("badout", CHAIN);
    for (flag, path) in [
        ("--svg", "/nonexistent-dir/x.svg"),
        ("--trace-csv", "/nonexistent-dir/x.csv"),
    ] {
        let out = fhs()
            .args(["schedule", "--job", job.to_str().unwrap(), flag, path])
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(
            err.contains(&format!("failed to write {path}")),
            "{flag}: {err}"
        );
    }
    std::fs::remove_file(job).ok();
}
